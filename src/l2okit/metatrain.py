"""Core L2O training loop: rollouts, truncated unrolled meta-loss, and
validation.

Evaluative rollouts (validation, eval, teacher trajectories) run without
a tape. The optimizer is coordinate-wise, so rollout steps a list of
runs in lockstep through one stepper call over their stacked
coordinates, a stack of fixed width: a run that diverges stays in it
on zero gradients (rollout's docstring gives the cost). lockstep is the
one driver of validation and eval: it steps one run per key with one
optimizer, stacking runs narrower than POOL_MIN_DIM all together in the
calling thread, and making and stepping wider ones one per thread.

The meta-loss over a horizon of N optimizee steps is split into fixed
length segments (default 20). Within a segment the tape sees the
optimizee gradients as constants (no second derivatives) and the
optimizee parameters / LSTM state enter as constants at the segment
boundary, so gradients never flow across segments. One meta-optimizer
(Adam) step is applied per segment.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor

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


def rollout(step_fn, runs, n: int):
    """Lockstep evaluative rollout of runs, each an (inst, theta0, batches)
    triple: per step, every run still in draws one batch from its own
    batches for its loss and gradient, step_fn maps the runs' gradients,
    concatenated in run order, to their concatenated updates, and each
    run still in adds its own slice to its theta. Returns one (losses,
    diverged_at) per run: one loss per step, nothing per step that grows
    with the optimizee dimension.

    Divergence (non-finite loss or parameters) truncates a run's losses
    and sets its diverged_at; it is data, not an error. The stack keeps
    its width: a diverged run draws no batch and computes no loss after
    the step it diverged at, from that step on its slice of the gradient
    is zeros and its updates are dropped, and the rollout ends once every
    run has diverged.
    Columns are independent, so the other runs keep their bits, and a
    rollout never costs more than the same rollout with no run diverging.
    """
    if n < 1:
        raise ValueError("rollout: n must be >= 1")
    thetas = [np.asarray(theta0, dtype=np.float64).copy() for _, theta0, _ in runs]
    losses = [[] for _ in runs]
    diverged_at = [None] * len(runs)
    ends = itertools.accumulate(inst.dim for inst, _, _ in runs)
    cols = [slice(end - inst.dim, end) for (inst, _, _), end in zip(runs, ends)]
    for t in range(n):
        grads = []
        for r, (inst, _, batches) in enumerate(runs):
            if diverged_at[r] is None:
                loss, g = inst.loss_and_grad(thetas[r], next(batches))
                if np.isfinite(loss) and np.all(np.isfinite(thetas[r])):
                    losses[r].append(loss)
                    grads.append(g)
                    continue
                diverged_at[r] = t
            grads.append(np.zeros(inst.dim))
        if None not in diverged_at:
            break
        update = step_fn(np.concatenate(grads))
        for r, at in enumerate(diverged_at):
            if at is None:
                thetas[r] = thetas[r] + update[cols[r]]
    return list(zip(losses, diverged_at))


def stepper(optimizer, dim: int):
    """g -> update over dim stacked coordinates, from an L2OParams or a
    TeacherKind. The closure carries the optimizer's state from one step
    to the next and never mutates the optimizer; its width is fixed. An
    L2O stepper updates its own state in place in one workspace; each
    update it returns is a fresh array."""
    if isinstance(optimizer, L2OParams):
        state, work = zero_state(dim, optimizer.hidden), workspace(dim, optimizer.hidden)
        return lambda g: l2o_step_np(optimizer, state, g, work)
    if not isinstance(optimizer, TeacherKind):
        raise TypeError(f"unsupported optimizer {type(optimizer).__name__}")
    state = init_state(dim)

    def run(g):
        nonlocal state
        update, state = teacher_step(optimizer, state, g)
        return update

    return run


# The width from which one run pays for a thread of its own: threads
# overlap only the numpy kernels that release the interpreter lock, which
# dominate a step from about here up (2 vCPUs, L2O hidden 20: two threads
# ran 0.90x one at dim 42, 1.01x at 127, 1.35x at 202, 1.89x at 1,002).
# Narrower runs stack instead; ten dim-42 runs as two stacks on two
# threads ran 0.80-1.03 s against 0.90-1.17 s on one, for ~1.5 MB more.
POOL_MIN_DIM = 200


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (not macOS or Windows), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lockstep(optimizer, make_run, keys, dim: int, n: int) -> list:
    """One n-step rollout per key of the run make_run(key), an (inst,
    theta0, batches) over dim coordinates, all stepped by optimizer; one
    (losses, diverged_at) per key, in key order. Runs narrower than
    POOL_MIN_DIM step as one stack in the calling thread; each wider run
    is made and stepped alone, on min(keys, usable_cpus()) threads, or in
    the calling thread when that is one. An optimizer that stepper
    rejects raises its TypeError before any run is made."""
    if dim < POOL_MIN_DIM:
        return rollout(stepper(optimizer, dim * len(keys)), [make_run(k) for k in keys], n)
    stepper(optimizer, 1)  # an unsupported optimizer fails before any thread

    def alone(key):
        [result] = rollout(stepper(optimizer, dim), [make_run(key)], n)
        return result

    workers = min(len(keys), usable_cpus())
    if workers == 1:
        return list(map(alone, keys))
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(alone, keys))


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
    one lockstep of evaluative rollouts, instance i starting from seed's
    "valid" start i; diverged rollouts score the penalty constant."""
    if not instances:
        raise ValueError("validate: validation set is empty")
    scores = []
    # step n_valid's loss is f(theta_N); its update goes unused
    for losses, diverged_at in lockstep(
            phi, lambda i: (instances[i], *instances[i].start(seed, "valid", i)),
            range(len(instances)), instances[0].dim, n_valid + 1):
        if diverged_at is not None:
            scores.append(penalty)
        else:
            # f(theta_N) added last, as a separate term, keeps the sum's bits
            scores.append(float(np.array(losses[:-1])[1:].sum() + losses[-1]))
    return float(np.mean(scores))
