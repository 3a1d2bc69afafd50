"""Off-policy imitation of analytical optimizers, and the self-improving
mixed-trajectory baseline.

Imitation episodes replay a teacher-generated (gradient, update) sequence
through the learned optimizer and regress its updates onto the teacher's
with a squared error, using the same truncated segmenting and
per-segment meta-updates as ordinary meta-training.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .metatrain import MetaAdam, rollout, stepper, train_epoch
from .model import L2OParams, l2o_step_tape, zero_state
from .optimizees import OptimizeeInstance
from .seeding import rng_for
from .teachers import TeacherKind


def si_probs(epoch: int, n_teachers: int, anneal_epochs: int,
             start_prob: float | None) -> np.ndarray:
    """[p_L2O, p_teacher_1, ..., p_teacher_k] at the given epoch, k being
    n_teachers. Each teacher's probability decays linearly from start_prob
    (1/(k+1) when None) to zero over anneal_epochs; the L2O absorbs the
    mass and reaches exactly 1 at the endpoint."""
    k = n_teachers
    start = start_prob if start_prob is not None else 1.0 / (k + 1)
    frac = max(0.0, 1.0 - epoch / anneal_epochs)
    p_teacher = start * frac
    return np.array([1.0 - k * p_teacher] + [p_teacher] * k)


def teacher_trajectory(kind: TeacherKind, inst: OptimizeeInstance,
                       theta0: np.ndarray, batches, n: int):
    """Roll the analytical optimizer for n steps on batches; independent
    of phi. Returns (steps, diverged_at), steps being each step's
    (g, update) pair for replay."""
    step = stepper(kind, inst.dim)
    steps = []

    def recorded_step(g):
        update = step(g)
        steps.append((g, update))
        return update

    [(_, diverged_at)] = rollout(recorded_step, [(inst, theta0, batches)], n)
    return steps, diverged_at


def imitation_loss_and_grads(phi: L2OParams, steps, state):
    """One segment of the imitation loss: squared-error regression of the
    L2O's updates onto the teacher's, gradients flowing to phi only.
    Returns (loss, grads, state_next), or (None, None, state) at the
    first non-finite term, which is divergence data, not a warning."""
    tape = []
    total = 0.0
    for g, target in steps:
        update, state = l2o_step_tape(tape, phi, state, g)
        with np.errstate(over="ignore", invalid="ignore"):
            diff = update - target
            term = (diff * diff).sum()
        if not np.isfinite(term):
            return None, None, state
        tape.append(2.0 * diff + 0.0)  # the gradient of this step's term
        total += term
    return float(total), ad.backward(tape, phi), state


def il_epoch(phi: L2OParams, epoch: int, horizon: int, *, adam: MetaAdam,
             segment: int, inst: OptimizeeInstance, seed: int, r: float,
             teachers: tuple[TeacherKind, ...], events: list):
    """One mixed episode: with probability r imitate a uniformly chosen
    teacher, otherwise run train_epoch. A teacher episode rolls the
    teacher for horizon steps from the same exploring start as a meta
    epoch, then replays its (g, update) steps through phi with the same
    segmenting, one meta-Adam step per segment; mutates phi. A teacher
    that diverges appends ("teacher-divergence", epoch, its kind) to
    events and trains nothing. As in train_epoch, a segment whose loss is
    not finite skips its update, ends the episode and appends
    ("divergence", epoch, the segment's first step) to events.

    Returns (kind, loss): ("Lf", meta-loss) or ("IL:<teacher>", L_O),
    L_O being the loss of the segments that completed (nan for a
    diverged teacher).
    """
    if rng_for(seed, "il-u", epoch).random() >= r:
        return train_epoch(phi, epoch, horizon, adam=adam, segment=segment,
                           inst=inst, seed=seed, events=events)
    kind = teachers[int(rng_for(seed, "il-teacher", epoch).integers(len(teachers)))]
    theta0, batches = inst.start(seed, "epoch", epoch)
    steps, diverged_at = teacher_trajectory(kind, inst, theta0, batches, horizon)
    if diverged_at is not None:
        events.append(("teacher-divergence", epoch, kind.kind))
        return f"IL:{kind.kind}", float("nan")
    state = zero_state(inst.dim, phi.hidden)
    total = 0.0
    for seg_start in range(0, horizon, segment):
        loss, grads, state = imitation_loss_and_grads(
            phi, steps[seg_start: seg_start + segment], state)
        if loss is None:
            events.append(("divergence", epoch, seg_start))
            break
        adam.step(phi, grads)
        total += loss
    return f"IL:{kind.kind}", total


def self_improving_epoch(phi: L2OParams, epoch: int, horizon: int, *,
                         adam: MetaAdam, segment: int, inst: OptimizeeInstance,
                         seed: int, teachers: tuple[TeacherKind, ...],
                         anneal_epochs: int, start_prob: float | None,
                         events: list):
    """One epoch on a single mixed trajectory: each step's applied update
    comes from an optimizer sampled from si_probs's annealed multinomial
    over the L2O and teachers. Teacher updates enter theta as constants,
    and the tape records no step for them; the loss is still the
    ordinary meta-loss. Teacher accumulators advance only on the steps
    where that teacher is sampled. Returns ("SI:mixed", meta-loss)."""
    probs = si_probs(epoch, len(teachers), anneal_epochs, start_prob)
    sampler = rng_for(seed, "si-choice", epoch)
    steppers = [stepper(kind, inst.dim) for kind in teachers]

    def override(g):
        j = int(sampler.choice(len(probs), p=probs))
        if j == 0:
            return None
        return steppers[j - 1](g)

    _, loss = train_epoch(phi, epoch, horizon, adam=adam, segment=segment,
                          inst=inst, seed=seed, events=events,
                          step_override=override)
    return "SI:mixed", loss
