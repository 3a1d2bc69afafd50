"""Off-policy imitation of analytical optimizers, and the self-improving
mixed-trajectory baseline.

Imitation episodes replay a teacher-generated (gradient, update) sequence
through the learned optimizer and regress its updates onto the teacher's
with a weighted squared error, using the same 20-step segmenting and
per-segment meta-updates as ordinary meta-training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metatrain import (MetaAdam, MetaLossSpec, TrainConfig, Trajectory,
                        TrajStep, exploring_start, rollout, train_epoch)
from .model import (L2OParams, l2o_step_tape, leaf_grads, phi_leaves,
                    state_constants, state_from_values, zero_state)
from .optimizees import OptimizeeInstance
from .seeding import rng_for
from .teachers import TeacherKind, default_ensemble, teacher_stepper


@dataclass(frozen=True)
class ImitationConfig:
    r: float = 0.3
    teachers: tuple[TeacherKind, ...] = default_ensemble()

    def __post_init__(self):
        if not 0 <= self.r <= 1:
            raise ValueError("r must be in [0, 1]")
        if not self.teachers:
            raise ValueError("teachers must be non-empty")


@dataclass(frozen=True)
class SelfImprovingSchedule:
    teachers: tuple[TeacherKind, ...] = default_ensemble()
    anneal_epochs: int = 100
    start_prob: float | None = None  # per-teacher start; default 1/(k+1)

    def probs(self, epoch: int) -> np.ndarray:
        """[p_L2O, p_teacher_1, ..., p_teacher_k] at the given epoch.

        Teacher probabilities decay linearly to zero over anneal_epochs;
        the L2O absorbs the mass and reaches exactly 1 at the endpoint.
        """
        k = len(self.teachers)
        start = self.start_prob if self.start_prob is not None else 1.0 / (k + 1)
        frac = max(0.0, 1.0 - epoch / self.anneal_epochs)
        p_teacher = start * frac
        return np.array([1.0 - k * p_teacher] + [p_teacher] * k)


def teacher_trajectory(kind: TeacherKind, inst: OptimizeeInstance,
                       theta0: np.ndarray, n: int) -> Trajectory:
    """Roll the analytical optimizer for n steps, keeping each step's
    (g, update) for replay; independent of phi."""
    step = teacher_stepper(kind, inst.dim)
    steps: list[TrajStep] = []

    def recorded_step(g):
        update = step(g)
        steps.append(TrajStep(g, update))
        return update

    traj = rollout(recorded_step, inst, theta0, n, produced_by=f"teacher:{kind.kind}")
    traj.steps = steps
    return traj


def imitation_loss_and_grads(phi: L2OParams, steps, omega_seg, state):
    """One segment of the imitation loss: squared-error regression of the
    L2O's updates onto the teacher's, gradients flowing to phi only."""
    tape = ad.Tape()
    leaves = phi_leaves(tape, phi)
    st = state_constants(tape, state)
    loss_acc = None
    for rec, w in zip(steps, omega_seg):
        update, st = l2o_step_tape(tape, leaves, phi, st, rec.g)
        diff = ad.sub(update, tape.constant(rec.update))
        term = ad.scale(ad.vsum(ad.square(diff)), float(w))
        loss_acc = term if loss_acc is None else ad.add(loss_acc, term)
    ad.backward(tape, loss_acc)
    return float(loss_acc.data), leaf_grads(leaves), state_from_values(st)


def imitation_update(phi: L2OParams, traj: Trajectory, omega: np.ndarray,
                     adam: MetaAdam, segment: int = 20) -> float:
    """Replay the teacher trajectory through phi with the usual truncated
    segmenting, one meta step per segment; mutates phi, returns L_O."""
    if not traj.steps:
        raise ValueError("imitation_update: trajectory is empty")
    n = len(traj.steps)
    omega = np.asarray(omega, dtype=np.float64)
    if omega.shape != (n,):
        raise ValueError("imitation_update: omega length must match trajectory")
    dim = traj.steps[0].g.shape[0]
    state = zero_state(dim, phi.hidden)
    total = 0.0
    for seg_start in range(0, n, segment):
        seg = traj.steps[seg_start: seg_start + segment]
        loss, grads, state = imitation_loss_and_grads(
            phi, seg, omega[seg_start: seg_start + segment], state)
        adam.step(phi, grads)
        total += loss
    return total


def il_epoch(phi: L2OParams, epoch: int, mls: MetaLossSpec, adam: MetaAdam, *,
             inst: OptimizeeInstance, tc: TrainConfig, ic: ImitationConfig,
             events: list | None = None):
    """One mixed episode: with probability r imitate a uniformly
    chosen teacher, otherwise run a plain meta-training epoch. Teacher
    episodes use the same exploring-start draws as meta epochs.

    Returns (kind, loss) where kind is "Lf" or "IL:<teacher>".
    """
    u = rng_for(tc.master_seed, "il-u", epoch).random()
    if u >= ic.r:
        return train_epoch(phi, epoch, mls, adam, inst=inst, tc=tc, events=events)
    idx = int(rng_for(tc.master_seed, "il-teacher", epoch).integers(len(ic.teachers)))
    kind = ic.teachers[idx]
    theta0 = exploring_start(inst, tc, epoch)
    traj = teacher_trajectory(kind, inst, theta0, mls.horizon)
    if traj.diverged_at is not None:
        if events is not None:
            events.append(("teacher-divergence", epoch, kind.kind))
        return f"IL:{kind.kind}", float("nan")
    loss = imitation_update(phi, traj, mls.weights(), adam, segment=mls.segment)
    return f"IL:{kind.kind}", loss


def self_improving_epoch(phi: L2OParams, epoch: int, mls: MetaLossSpec,
                         adam: MetaAdam, *, inst: OptimizeeInstance,
                         tc: TrainConfig, sis: SelfImprovingSchedule,
                         events: list | None = None):
    """One epoch on a single mixed trajectory: each step's applied update
    comes from an optimizer sampled from the annealed multinomial.
    Teacher updates enter the tape as constants; the loss is still the
    ordinary meta-loss. Teacher accumulators advance only on the steps
    where that teacher is sampled. Returns ("SI:mixed", meta-loss)."""
    probs = sis.probs(epoch)
    sampler = rng_for(tc.master_seed, "si-choice", epoch)
    steppers = [teacher_stepper(kind, inst.dim) for kind in sis.teachers]

    def override(t, theta, g):
        j = int(sampler.choice(len(probs), p=probs))
        if j == 0:
            return None
        return steppers[j - 1](g)

    _, loss = train_epoch(phi, epoch, mls, adam, inst=inst, tc=tc, events=events,
                          step_override=override)
    return "SI:mixed", loss
