"""Core L2O training loop: rollouts, truncated unrolled meta-loss, and
validation.

Evaluative rollouts (validation, eval, teacher trajectories) run without
a tape. The optimizer is coordinate-wise, so rollout steps a list of
runs in lockstep through one stepper call over their stacked
coordinates. in_groups stacks runs narrower than POOL_MIN_DIM all
together in the calling thread, and runs wider ones one per thread.

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
from .teachers import TeacherKind, TeacherState, adam_update, init_state, teacher_step


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
    run adds its own slice to its theta. Returns one (losses,
    diverged_at) per run: one loss per step, nothing per step that grows
    with the optimizee dimension.

    Divergence (non-finite loss or parameters) truncates a run's losses
    and sets its diverged_at; it is data, not an error. The run leaves
    the stack and computes nothing more: on the next call step_fn gets
    keep, the indices of the stacked coordinates that stay, to drop the
    others' state. A step_fn for one run is called with g alone.
    """
    if n < 1:
        raise ValueError("rollout: n must be >= 1")
    thetas = [np.asarray(theta0, dtype=np.float64).copy() for _, theta0, _ in runs]
    losses = [[] for _ in runs]
    diverged_at = [None] * len(runs)
    live = list(range(len(runs)))
    cols = _columns(runs, live)
    for t in range(n):
        grads = []
        for r in live:
            inst, _, batches = runs[r]
            loss, g = inst.loss_and_grad(thetas[r], next(batches))
            if np.isfinite(loss) and np.all(np.isfinite(thetas[r])):
                losses[r].append(loss)
                grads.append(g)
            else:
                diverged_at[r] = t
        if not grads:
            break
        if len(grads) == len(live):
            update = step_fn(np.concatenate(grads))
        else:
            live = [r for r in live if diverged_at[r] is None]
            keep = np.r_[tuple(cols[r] for r in live)]
            cols = _columns(runs, live)
            update = step_fn(np.concatenate(grads), keep)
        for r in live:
            thetas[r] = thetas[r] + update[cols[r]]
    return list(zip(losses, diverged_at))


def _columns(runs, live: list[int]) -> dict[int, slice]:
    """Each live run's slice of the stacked coordinates, in live's order."""
    dims = [runs[r][0].dim for r in live]
    return {r: slice(end - d, end) for r, d, end in zip(live, dims, itertools.accumulate(dims))}


def stepper(optimizer, dim: int):
    """g -> update over dim stacked coordinates, from an L2OParams or a
    TeacherKind. The closure carries the optimizer's state from one step
    to the next and never mutates the optimizer; step(g, keep) first
    keeps only the state of the coordinates that keep indexes, for a
    rollout whose runs have left the stack. An L2O stepper updates its
    own state in place in one workspace; each update it returns is a
    fresh array."""
    if isinstance(optimizer, L2OParams):
        hidden = optimizer.hidden
        state, work = zero_state(dim, hidden), workspace(dim, hidden)

        def run_l2o(g, keep=None):
            nonlocal state, work
            if keep is not None:
                state, work = state.take(keep, axis=3), workspace(len(keep), hidden)
            return l2o_step_np(optimizer, state, g, work)

        return run_l2o
    if not isinstance(optimizer, TeacherKind):
        raise TypeError(f"unsupported optimizer {type(optimizer).__name__}")
    state = init_state(dim)

    def run(g, keep=None):
        nonlocal state
        if keep is not None:
            state = TeacherState(state.t, state.m[keep], state.v[keep], state.acc[keep])
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


def in_groups(fn, items: list, dims: list[int]) -> list:
    """fn over items in groups, fn(group) returning one result per item of
    the group; the results in item order. When every item is narrower
    than POOL_MIN_DIM coordinates (dims giving each one's), all items are
    one group in the calling thread; otherwise each item is a group of
    its own, and the groups run on min(items, usable_cpus()) threads, or
    in the calling thread when that is one."""
    if max(dims) < POOL_MIN_DIM:
        return fn(items)
    groups = [[item] for item in items]
    workers = min(len(groups), usable_cpus())
    if workers == 1:
        results = list(map(fn, groups))
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(fn, groups))
    return [r for (r,) in results]


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
    evaluative rollouts in in_groups's groups, instance i starting from
    seed's "valid" start i; diverged rollouts score the penalty constant."""
    if not instances:
        raise ValueError("validate: validation set is empty")

    def score(group):
        runs = [(instances[i], *instances[i].start(seed, "valid", i)) for i in group]
        # step n_valid's loss is f(theta_N); its update goes unused
        return rollout(stepper(phi, sum(inst.dim for inst, _, _ in runs)), runs,
                       n_valid + 1)

    scores = []
    for losses, diverged_at in in_groups(score, list(range(len(instances))),
                                         [inst.dim for inst in instances]):
        if diverged_at is not None:
            scores.append(penalty)
        else:
            # f(theta_N) added last, as a separate term, keeps the sum's bits
            scores.append(float(np.array(losses[:-1])[1:].sum() + losses[-1]))
    return float(np.mean(scores))
