"""Core L2O training loop: rollouts, truncated unrolled meta-loss, and
validation.

The meta-loss over a horizon of N optimizee steps is split into fixed
length segments (default 20). Within a segment the tape sees the
optimizee gradients as constants (no second derivatives) and the
optimizee parameters / LSTM state enter as constants at the segment
boundary, so gradients never flow across segments. One meta-optimizer
(Adam) step is applied per segment.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .model import L2OParams, l2o_step_np, l2o_step_tape, workspace, zero_state
from .optimizees import OptimizeeInstance
from .teachers import TeacherKind, adam_update, init_state, teacher_step


class MetaAdam:
    """Adam over phi.flat, given a gradient with phi's layout; mutates phi
    in place."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: np.ndarray | float = 0.0
        self.v: np.ndarray | float = 0.0

    def step(self, phi: L2OParams, grads: L2OParams) -> None:
        self.t += 1
        update, self.m, self.v = adam_update(self.m, self.v, grads.flat, self.t, self.lr)
        phi.flat += update


def rollout(step_fn, inst: OptimizeeInstance, theta0: np.ndarray, batches,
            n: int):
    """Evaluative rollout: iterate loss/grad -> step_fn -> theta update,
    one batch per step from batches. Returns (losses, diverged_at): one
    loss per step, nothing per step that grows with the optimizee dimension.

    Divergence (non-finite loss or parameters) truncates the losses and
    sets diverged_at; it is data, not an error.
    """
    if n < 1:
        raise ValueError("rollout: n must be >= 1")
    theta = np.asarray(theta0, dtype=np.float64).copy()
    losses: list[float] = []
    for t, batch in zip(range(n), batches):
        loss, g = inst.loss_and_grad(theta, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(theta)):
            return losses, t
        losses.append(loss)
        theta = theta + step_fn(g)
    return losses, None


def stepper(optimizer, dim: int):
    """g -> update for a rollout, from an L2OParams or a TeacherKind. The
    closure carries the optimizer's state from one step to the next and
    never mutates the optimizer. An L2O stepper updates its own state in
    place in one workspace; each update it returns is a fresh array."""
    if isinstance(optimizer, L2OParams):
        state = zero_state(dim, optimizer.hidden)
        work = workspace(dim, optimizer.hidden)
        return lambda g: l2o_step_np(optimizer, state, g, work)
    if not isinstance(optimizer, TeacherKind):
        raise TypeError(f"unsupported optimizer {type(optimizer).__name__}")
    state = init_state(dim)

    def run(g):
        nonlocal state
        update, state = teacher_step(optimizer, state, g)
        return update

    return run


def segment_loss_and_grads(phi: L2OParams, inst: OptimizeeInstance,
                           theta: np.ndarray, state, batches, n_steps: int,
                           step_override=None):
    """Record one truncated segment of n_steps optimizee steps, one batch
    each from batches, on a tape and backpropagate the sum of their losses.

    Returns (loss, grads, theta_next, state_next, diverged). grads is an
    L2OParams with phi's layout (zeros where unreachable).
    """
    tape = []
    th = np.asarray(theta, dtype=np.float64)
    total = 0.0
    for _, batch in zip(range(n_steps), batches):
        loss_t, g = inst.loss_and_grad(th, batch)
        if not np.isfinite(loss_t) or not np.all(np.isfinite(th)):
            return None, None, th, state, True
        update = None if step_override is None else step_override(g)
        if update is None:
            update, state = l2o_step_tape(tape, phi, state, g)
        th = th + update
        fv = inst.loss_on_tape(tape, th, batch)
        if not np.isfinite(fv):
            return None, None, th, state, True
        total += fv
    return float(total), ad.backward(tape, phi), th, state, False


def train_epoch(phi: L2OParams, epoch: int, horizon: int, *, adam: MetaAdam,
                segment: int, inst: OptimizeeInstance, seed: int, events: list,
                step_override=None):
    """One exploring-start epoch: a fresh theta0 and batch stream from
    seed's "epoch" start, unrolled over horizon steps in segments of
    segment steps (the last may be shorter), with one meta-Adam step per
    segment; mutates phi. Returns ("Lf", the summed meta-loss of the
    segments that completed).

    A segment hitting a non-finite loss skips its update and ends the
    epoch early (the remaining trajectory would stay non-finite anyway),
    appending ("divergence", epoch, the segment's first step) to events.

    Every epoch body takes (phi, epoch, horizon) positionally and the
    run's context by keyword, so one training loop runs any of them."""
    theta, batches = inst.start(seed, "epoch", epoch)
    state = zero_state(inst.dim, phi.hidden)
    total = 0.0
    for seg_start in range(0, horizon, segment):
        loss, grads, theta, state, diverged = segment_loss_and_grads(
            phi, inst, theta, state, batches, min(segment, horizon - seg_start),
            step_override=step_override)
        if diverged:
            events.append(("divergence", epoch, seg_start))
            break
        adam.step(phi, grads)
        total += loss
    return "Lf", total


def validate(phi: L2OParams, n_valid: int, instances: list, seed: int,
             penalty: float = 1e6) -> float:
    """Mean over the validation instances of sum_{t=1..N} f(theta_t) from
    evaluative rollouts, instance i starting from seed's "valid" start i;
    diverged rollouts score the penalty constant."""
    if not instances:
        raise ValueError("validate: validation set is empty")
    scores = []
    for i, inst in enumerate(instances):
        theta0, batches = inst.start(seed, "valid", i)
        # step n_valid's loss is f(theta_N); its update goes unused
        losses, diverged_at = rollout(stepper(phi, inst.dim), inst, theta0,
                                      batches, n_valid + 1)
        if diverged_at is not None:
            scores.append(penalty)
        else:
            # f(theta_N) added last, as a separate term, keeps the sum's bits
            scores.append(float(np.array(losses[:-1])[1:].sum() + losses[-1]))
    return float(np.mean(scores))
