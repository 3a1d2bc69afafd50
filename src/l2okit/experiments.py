"""Training schedules for every mode, and the CSV writers for their logs.

A mode is an epoch body, called as body(phi, epoch, mls, adam) and
returning (kind, loss): metatrain.train_epoch (vanilla, aug, cl),
imitation.il_epoch (il, cl-il) or imitation.self_improving_epoch
(self-improving), with the mode's context bound by keyword. A schedule
runs a body: train_fixed for tc.epochs at one horizon, or
train_curriculum over the horizon ladder.

train_fixed mutates phi in place; train_curriculum trains copies and
returns the best snapshot. Both append plain-tuple rows to the provided
log; CSV serialization lives at the bottom so repeated runs with the
same config produce byte-identical files.
"""

from __future__ import annotations

import csv

from .curriculum import CurriculumConfig, CurriculumResult, curriculum_train
from .metatrain import MetaAdam, MetaLossSpec, TrainConfig, ValidationSet, validate
from .model import L2OParams
from .optimizees import OptimizeeSpec


def train_fixed(phi: L2OParams, body, tc: TrainConfig, mls: MetaLossSpec,
                epoch_log: list | None = None) -> None:
    """Run the epoch body for tc.epochs epochs at one horizon."""
    adam = MetaAdam(lr=tc.meta_lr)
    for epoch in range(tc.epochs):
        kind, loss = body(phi, epoch, mls, adam)
        if epoch_log is not None:
            epoch_log.append((epoch, kind, loss, mls.horizon))


def train_curriculum(phi: L2OParams, body, spec: OptimizeeSpec,
                     cc: CurriculumConfig, tc: TrainConfig, segment: int = 20,
                     epoch_log: list | None = None) -> CurriculumResult:
    """Staged schedule over the horizon ladder, running the epoch body at
    the current stage's N_train (the cl-il flagship runs il_epoch). One
    meta-Adam persists across stages."""
    adam = MetaAdam(lr=tc.meta_lr)
    vs = ValidationSet.create(spec, tc)

    def train_period_fn(phi_cur, n_train, epoch_base):
        mls = MetaLossSpec(horizon=n_train, segment=min(segment, n_train))
        for epoch in range(epoch_base, epoch_base + cc.t_period):
            kind, loss = body(phi_cur, epoch, mls, adam)
            if epoch_log is not None:
                epoch_log.append((epoch, kind, loss, n_train))

    def validate_fn(phi_cur, n_valid):
        return validate(phi_cur, n_valid, vs, tc.divergence_penalty)

    return curriculum_train(phi, cc, train_period_fn, validate_fn,
                            epoch_budget=tc.epochs)


def write_epoch_csv(rows, path) -> None:
    """Per-episode rows: (epoch, kind, loss, horizon)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "kind", "loss", "horizon"])
        for epoch, kind, loss, horizon in rows:
            w.writerow([epoch, kind, repr(float(loss)), horizon])


def write_trace_csv(trace, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "stage", "period", "epoch", "n_train", "n_valid",
                    "l_val", "l_min", "improved"])
        for r in trace:
            w.writerow([r.kind, r.stage, r.period, r.epoch, r.n_train, r.n_valid,
                        repr(r.l_val), repr(r.l_min), int(r.improved)])


def write_events_csv(events, path) -> None:
    """Training events as (kind, where, detail) rows; where is the epoch.
    A "divergence" row's detail is the first optimizee step of the
    segment that diverged; a "teacher-divergence" row's is the teacher."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "where", "detail"])
        w.writerows(events)
