"""Analytical optimizers: imitation teachers, mixture components, baselines.

All steps are pure functions (state in, state out) and return ADDITIVE
updates, i.e. theta_next = theta + update, so teacher targets live in the
same space as the learned optimizer's outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

KINDS = ("sgd", "adam", "adagrad", "rmsprop")

# Fixed hyperparameters; meta-Adam shares Adam's
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAGRAD_EPS = 1e-10
RMS_DECAY = 0.9
RMS_EPS = 1e-10


@dataclass(frozen=True)
class TeacherKind:
    kind: str
    lr: float = 0.01

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown teacher kind {self.kind!r}")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


def adam_update(m: np.ndarray, v: np.ndarray, g: np.ndarray, t: int, lr: float):
    """Adam's step t >= 1 from moments (m, v): (additive update, m, v)."""
    m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
    v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g * g
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    return -lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS), m, v


@dataclass(frozen=True)
class TeacherState:
    t: int
    m: np.ndarray    # adam first moment
    v: np.ndarray    # adam second moment
    acc: np.ndarray  # adagrad / rmsprop accumulator


def init_state(dim: int) -> TeacherState:
    return TeacherState(t=0, m=np.zeros(dim), v=np.zeros(dim), acc=np.zeros(dim))


def teacher_step(kind: TeacherKind, state: TeacherState, g: np.ndarray):
    """One step; returns (update, new_state) with theta_next = theta + update."""
    g = np.asarray(g, dtype=np.float64)
    if state.m.shape != g.shape:
        raise ValueError("teacher_step: state/gradient dimension mismatch")
    t = state.t + 1
    if kind.kind == "sgd":
        return -kind.lr * g, replace(state, t=t)
    if kind.kind == "adam":
        update, m, v = adam_update(state.m, state.v, g, t, kind.lr)
        return update, replace(state, t=t, m=m, v=v)
    if kind.kind == "adagrad":
        acc = state.acc + g * g
        update = -kind.lr * g / np.sqrt(acc + ADAGRAD_EPS)
        return update, replace(state, t=t, acc=acc)
    if kind.kind == "rmsprop":
        acc = RMS_DECAY * state.acc + (1 - RMS_DECAY) * g * g
        update = -kind.lr * g / np.sqrt(acc + RMS_EPS)
        return update, replace(state, t=t, acc=acc)
    raise ValueError(f"unknown teacher kind {kind.kind!r}")


def default_ensemble(lr: float = 0.01) -> tuple[TeacherKind, ...]:
    """Adam / SGD / Adagrad, each at the grid-searched learning rate 0.01."""
    return (TeacherKind("adam", lr=lr), TeacherKind("sgd", lr=lr),
            TeacherKind("adagrad", lr=lr))
