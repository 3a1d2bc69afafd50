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

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .model import (L2OParams, TENSOR_NAMES, l2o_step_np, l2o_step_tape,
                    leaf_grads, phi_leaves, state_constants, state_from_values,
                    zero_state)
from .optimizees import OptimizeeInstance, OptimizeeSpec, sample_instance
from .seeding import derive_seed


@dataclass
class TrajStep:
    g: np.ndarray
    update: np.ndarray


@dataclass
class Trajectory:
    """A rollout's loss at every step. Only teacher trajectories also keep
    each step's (g, update) in ``steps``, for imitation; other rollouts
    keep nothing per step that grows with the optimizee dimension."""
    losses: list[float]
    produced_by: str
    diverged_at: int | None = None
    final_loss: float | None = None
    steps: list[TrajStep] = field(default_factory=list)


@dataclass
class MetaLossSpec:
    horizon: int
    segment: int = 20
    omega: np.ndarray | None = None  # defaults to all-ones

    def weights(self) -> np.ndarray:
        if self.omega is None:
            return np.ones(self.horizon)
        w = np.asarray(self.omega, dtype=np.float64)
        if w.shape != (self.horizon,):
            raise ValueError("omega length must equal horizon")
        if np.any(w < 0):
            raise ValueError("omega weights must be non-negative")
        return w

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.segment < 1 or self.segment > self.horizon:
            raise ValueError("segment must be in [1, horizon]")


@dataclass
class TrainConfig:
    master_seed: int
    epochs: int
    meta_lr: float = 1e-3
    n_val_instances: int = 5
    divergence_penalty: float = 1e6

    def __post_init__(self):
        if self.meta_lr <= 0:
            raise ValueError("meta_lr must be > 0")


# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class MetaAdam:
    """Adam over the dict of L2O parameter tensors; mutates phi in place."""

    def __init__(self, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m: dict[str, np.ndarray] | None = None
        self.v: dict[str, np.ndarray] | None = None

    def step(self, phi: L2OParams, grads: dict[str, np.ndarray]) -> None:
        if self.m is None:
            self.m = {n: np.zeros_like(getattr(phi, n)) for n in TENSOR_NAMES}
            self.v = {n: np.zeros_like(getattr(phi, n)) for n in TENSOR_NAMES}
        self.t += 1
        for name in TENSOR_NAMES:
            arr = getattr(phi, name)
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(arr)
            self.m[name] = BETA1 * self.m[name] + (1 - BETA1) * g
            self.v[name] = BETA2 * self.v[name] + (1 - BETA2) * g * g
            m_hat = self.m[name] / (1 - BETA1 ** self.t)
            v_hat = self.v[name] / (1 - BETA2 ** self.t)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def rollout(step_fn, inst: OptimizeeInstance, theta0: np.ndarray, n: int,
            produced_by: str = "l2o", record_final: bool = False) -> Trajectory:
    """Evaluative rollout: iterate loss/grad -> step_fn -> theta update.

    Divergence (non-finite loss or parameters) truncates the trajectory
    and sets diverged_at; it is data, not an error.
    """
    if n < 1:
        raise ValueError("rollout: n must be >= 1")
    theta = np.asarray(theta0, dtype=np.float64).copy()
    losses: list[float] = []
    for t in range(n):
        batch = inst.next_batch()
        loss, g = inst.loss_and_grad(theta, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(theta)):
            return Trajectory(losses, produced_by, diverged_at=t)
        losses.append(loss)
        theta = theta + step_fn(g)
    traj = Trajectory(losses, produced_by)
    if record_final:
        batch = inst.next_batch()
        loss, _ = inst.loss_and_grad(theta, batch)
        if not np.isfinite(loss) or not np.all(np.isfinite(theta)):
            traj.diverged_at = n
        else:
            traj.final_loss = loss
    return traj


def l2o_stepper(phi: L2OParams, dim: int):
    """Closure over recurrent state; never mutates phi."""
    state = zero_state(dim, phi.hidden)

    def step(g):
        nonlocal state
        update, state = l2o_step_np(phi, state, g)
        return update

    return step


def rollout_l2o(phi: L2OParams, inst: OptimizeeInstance, theta0: np.ndarray,
                n: int, record_final: bool = False) -> Trajectory:
    return rollout(l2o_stepper(phi, inst.dim), inst, theta0, n,
                   produced_by="l2o", record_final=record_final)


def segment_loss_and_grads(phi: L2OParams, inst: OptimizeeInstance,
                           theta: np.ndarray, state, omega_seg,
                           step_override=None, t_base: int = 0):
    """Build the tape for one truncated segment and backpropagate.

    Returns (loss, grads, theta_next, state_next, diverged). grads is a
    name -> array dict over phi tensors (zeros where unreachable).
    """
    tape = ad.Tape()
    leaves = phi_leaves(tape, phi)
    th = tape.constant(np.asarray(theta, dtype=np.float64))
    st = state_constants(tape, state)
    loss_acc = None
    for k, w in enumerate(omega_seg):
        batch = inst.next_batch()
        loss_t, g = inst.loss_and_grad(th.data, batch)
        if not np.isfinite(loss_t) or not np.all(np.isfinite(th.data)):
            return None, None, th.data, state_from_values(st), True
        ext = None if step_override is None else step_override(t_base + k, th.data, g)
        if ext is not None:
            th = ad.add(th, tape.constant(ext))
        else:
            update, st = l2o_step_tape(tape, leaves, phi, st, g)
            th = ad.add(th, update)
        fv = inst.loss_on_tape(tape, th, batch)
        if not np.isfinite(fv.data):
            return None, None, th.data, state_from_values(st), True
        term = ad.scale(fv, float(w))
        loss_acc = term if loss_acc is None else ad.add(loss_acc, term)
    ad.backward(tape, loss_acc)
    return (float(loss_acc.data), leaf_grads(leaves), th.data,
            state_from_values(st), False)


def meta_update(phi: L2OParams, inst: OptimizeeInstance, theta0: np.ndarray,
                mls: MetaLossSpec, adam: MetaAdam, epoch: int,
                events: list | None = None, step_override=None) -> float:
    """One full-horizon unroll with per-segment meta-updates; mutates phi.

    A segment hitting a non-finite loss skips its update and ends the
    epoch early (the remaining trajectory would stay non-finite anyway);
    the event is recorded as ("divergence", epoch, the segment's first
    step). Returns the summed meta-loss over the segments that completed.
    """
    omega = mls.weights()
    theta = np.asarray(theta0, dtype=np.float64)
    state = zero_state(inst.dim, phi.hidden)
    total = 0.0
    for seg_start in range(0, mls.horizon, mls.segment):
        omega_seg = omega[seg_start: seg_start + mls.segment]
        loss, grads, theta, state, diverged = segment_loss_and_grads(
            phi, inst, theta, state, omega_seg,
            step_override=step_override, t_base=seg_start)
        if diverged:
            if events is not None:
                events.append(("divergence", epoch, seg_start))
            break
        adam.step(phi, grads)
        total += loss
    return total


def exploring_start(inst: OptimizeeInstance, tc: TrainConfig, epoch: int) -> np.ndarray:
    """The epoch's fresh theta0; also reseeds the instance's batch stream."""
    theta0 = inst.init_params(derive_seed(tc.master_seed, "epoch-theta0", epoch))
    inst.reseed_batches(derive_seed(tc.master_seed, "epoch-batches", epoch))
    return theta0


def train_epoch(phi: L2OParams, epoch: int, mls: MetaLossSpec, adam: MetaAdam, *,
                inst: OptimizeeInstance, tc: TrainConfig,
                events: list | None = None, step_override=None):
    """One exploring-start epoch: fresh theta0 and batch stream, one
    full-horizon meta_update. Returns ("Lf", meta-loss).

    Every epoch body takes (phi, epoch, mls, adam) positionally and its
    mode's context by keyword, so a training loop can run any of them."""
    theta0 = exploring_start(inst, tc, epoch)
    return "Lf", meta_update(phi, inst, theta0, mls, adam, epoch, events=events,
                             step_override=step_override)


@dataclass
class ValidationSet:
    """Fixed instances, initializations and batch seeds, disjoint from the
    training streams by seed-label construction."""
    instances: list
    theta0s: list
    batch_seeds: list

    @classmethod
    def create(cls, spec: OptimizeeSpec, tc: TrainConfig) -> "ValidationSet":
        insts, theta0s, seeds = [], [], []
        for i in range(tc.n_val_instances):
            inst = sample_instance(spec, derive_seed(tc.master_seed, "valid-inst", i))
            insts.append(inst)
            theta0s.append(inst.init_params(derive_seed(tc.master_seed, "valid-theta0", i)))
            seeds.append(derive_seed(tc.master_seed, "valid-batches", i))
        return cls(insts, theta0s, seeds)


def validate(phi: L2OParams, n_valid: int, vs: ValidationSet,
             penalty: float = 1e6) -> float:
    """Mean over validation instances of sum_{t=1..N} f(theta_t) from
    evaluative rollouts; diverged rollouts score the penalty constant."""
    if not vs.instances:
        raise ValueError("validate: validation set is empty")
    scores = []
    for inst, theta0, bseed in zip(vs.instances, vs.theta0s, vs.batch_seeds):
        inst.reseed_batches(bseed)
        traj = rollout_l2o(phi, inst, theta0, n_valid, record_final=True)
        if traj.diverged_at is not None:
            scores.append(penalty)
        else:
            scores.append(float(np.array(traj.losses)[1:].sum() + traj.final_loss))
    return float(np.mean(scores))
