"""Off-policy imitation of analytical optimizers, and the self-improving
mixed-trajectory baseline.

Imitation episodes replay a teacher-generated (gradient, update) sequence
through the learned optimizer and regress its updates onto the teacher's
with a squared error, using the same 20-step segmenting and
per-segment meta-updates as ordinary meta-training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .metatrain import MetaAdam, MetaLossSpec, rollout, stepper, train_epoch
from .model import L2OParams, l2o_step_tape, zero_state
from .optimizees import OptimizeeInstance
from .seeding import rng_for
from .teachers import TeacherKind, default_ensemble


@dataclass(frozen=True)
class SelfImprovingSchedule:
    teachers: tuple[TeacherKind, ...] = default_ensemble()
    anneal_epochs: int = 100
    start_prob: float | None = None  # per-teacher start; default 1/(k+1)

    def __post_init__(self):
        if self.anneal_epochs < 1:
            raise ValueError("anneal_epochs must be >= 1")
        if self.start_prob is not None and (
                self.start_prob < 0 or len(self.teachers) * self.start_prob > 1):
            raise ValueError(f"si_start_prob must be in [0, 1/{len(self.teachers)}]")

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
                       theta0: np.ndarray, n: int):
    """Roll the analytical optimizer for n steps; independent of phi.
    Returns (steps, diverged_at), steps being each step's (g, update)
    pair for replay."""
    step = stepper(kind, inst.dim)
    steps = []

    def recorded_step(g):
        update = step(g)
        steps.append((g, update))
        return update

    _, diverged_at = rollout(recorded_step, inst, theta0, n)
    return steps, diverged_at


def imitation_loss_and_grads(phi: L2OParams, steps, state):
    """One segment of the imitation loss: squared-error regression of the
    L2O's updates onto the teacher's, gradients flowing to phi only."""
    tape = []
    total = 0.0
    for g, target in steps:
        update, state = l2o_step_tape(tape, phi, state, g)
        diff = update - target
        tape.append(2.0 * diff + 0.0)  # the gradient of this step's term
        term = (diff * diff).sum()
        total += term
    return float(total), ad.backward(tape, phi), state


def il_epoch(phi: L2OParams, epoch: int, mls: MetaLossSpec, adam: MetaAdam, *,
             inst: OptimizeeInstance, seed: int, r: float,
             teachers: tuple[TeacherKind, ...], events: list):
    """One mixed episode: with probability r imitate a uniformly chosen
    teacher, otherwise run train_epoch. A teacher episode rolls the
    teacher from the same exploring start as a meta epoch, then replays
    its (g, update) steps through phi with the usual truncated
    segmenting, one meta-Adam step per segment; mutates phi. A teacher
    that diverges appends ("teacher-divergence", epoch, its kind) to
    events and trains nothing.

    Returns (kind, loss): ("Lf", meta-loss) or ("IL:<teacher>", L_O),
    L_O being nan for a diverged teacher.
    """
    if rng_for(seed, "il-u", epoch).random() >= r:
        return train_epoch(phi, epoch, mls, adam, inst=inst, seed=seed, events=events)
    kind = teachers[int(rng_for(seed, "il-teacher", epoch).integers(len(teachers)))]
    theta0 = inst.start(seed, "epoch", epoch)
    steps, diverged_at = teacher_trajectory(kind, inst, theta0, mls.horizon)
    if diverged_at is not None:
        events.append(("teacher-divergence", epoch, kind.kind))
        return f"IL:{kind.kind}", float("nan")
    state = zero_state(inst.dim, phi.hidden)
    total = 0.0
    for seg_start in range(0, mls.horizon, mls.segment):
        loss, grads, state = imitation_loss_and_grads(
            phi, steps[seg_start: seg_start + mls.segment], state)
        adam.step(phi, grads)
        total += loss
    return f"IL:{kind.kind}", total


def self_improving_epoch(phi: L2OParams, epoch: int, mls: MetaLossSpec,
                         adam: MetaAdam, *, inst: OptimizeeInstance, seed: int,
                         sis: SelfImprovingSchedule, events: list):
    """One epoch on a single mixed trajectory: each step's applied update
    comes from an optimizer sampled from the annealed multinomial.
    Teacher updates enter theta as constants, and the tape records no step
    for them; the loss is still the ordinary meta-loss. Teacher
    accumulators advance only on the steps where that teacher is sampled.
    Returns ("SI:mixed", meta-loss)."""
    probs = sis.probs(epoch)
    sampler = rng_for(seed, "si-choice", epoch)
    steppers = [stepper(kind, inst.dim) for kind in sis.teachers]

    def override(g):
        j = int(sampler.choice(len(probs), p=probs))
        if j == 0:
            return None
        return steppers[j - 1](g)

    _, loss = train_epoch(phi, epoch, mls, adam, inst=inst, seed=seed, events=events,
                          step_override=override)
    return "SI:mixed", loss
