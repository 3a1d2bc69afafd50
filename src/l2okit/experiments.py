"""Runnable training modes: vanilla / augmented, curriculum (optionally
with imitation episodes), pure imitation, and self-improving.

All functions mutate phi in place and append plain-tuple rows to the
provided logs; CSV serialization lives at the bottom so repeated runs
with the same config produce byte-identical files.
"""

from __future__ import annotations

import csv

from .curriculum import CurriculumConfig, CurriculumResult, curriculum_train
from .imitation import ImitationConfig, SelfImprovingSchedule, il_epoch, self_improving_train
from .metatrain import (MetaAdam, MetaLossSpec, TrainConfig, ValidationSet,
                        train_epoch, validate)
from .model import L2OParams
from .optimizees import OptimizeeInstance, OptimizeeSpec


def train_vanilla(phi: L2OParams, inst: OptimizeeInstance, tc: TrainConfig,
                  mls: MetaLossSpec, epoch_log: list | None = None,
                  events: list | None = None) -> L2OParams:
    """Fixed-horizon meta-training for tc.epochs exploring-start epochs."""
    adam = MetaAdam(lr=tc.meta_lr)
    for epoch in range(tc.epochs):
        loss = train_epoch(phi, inst, epoch, tc, mls, adam, events=events)
        if epoch_log is not None:
            epoch_log.append((epoch, "Lf", loss, mls.horizon))
    return phi


def train_il(phi: L2OParams, inst: OptimizeeInstance, ic: ImitationConfig,
             tc: TrainConfig, mls: MetaLossSpec, epoch_log: list | None = None,
             events: list | None = None) -> L2OParams:
    adam = MetaAdam(lr=tc.meta_lr)
    for epoch in range(ic.t_total):
        kind, loss = il_epoch(phi, inst, epoch, ic, tc, mls, adam, events=events)
        if epoch_log is not None:
            epoch_log.append((epoch, kind, loss, mls.horizon))
    return phi


def train_curriculum(phi: L2OParams, inst: OptimizeeInstance, spec: OptimizeeSpec,
                     cc: CurriculumConfig, tc: TrainConfig, segment: int = 20,
                     ic: ImitationConfig | None = None,
                     epoch_log: list | None = None,
                     events: list | None = None) -> CurriculumResult:
    """Staged schedule over the horizon ladder. With an ImitationConfig
    the per-epoch body becomes the mixed episode (the cl-il flagship);
    trajectory horizons follow the current stage's N_train. One meta-Adam
    persists across stages."""
    adam = MetaAdam(lr=tc.meta_lr)
    vs = ValidationSet.create(spec, tc)

    def train_period_fn(phi_cur, n_train, epoch_base):
        mls = MetaLossSpec(horizon=n_train, segment=min(segment, n_train))
        for k in range(cc.t_period):
            epoch = epoch_base + k
            if ic is None:
                kind, loss = "Lf", train_epoch(phi_cur, inst, epoch, tc, mls,
                                               adam, events=events)
            else:
                kind, loss = il_epoch(phi_cur, inst, epoch, ic, tc, mls, adam,
                                      events=events)
            if epoch_log is not None:
                epoch_log.append((epoch, kind, loss, n_train))

    def validate_fn(phi_cur, n_valid):
        return validate(phi_cur, n_valid, vs, tc.divergence_penalty)

    return curriculum_train(phi, cc, train_period_fn, validate_fn,
                            epoch_budget=tc.epochs)


def train_self_improving(phi: L2OParams, inst: OptimizeeInstance,
                         sis: SelfImprovingSchedule, tc: TrainConfig,
                         mls: MetaLossSpec, epoch_log: list | None = None,
                         events: list | None = None) -> L2OParams:
    return self_improving_train(phi, inst, sis, mls, tc, events=events,
                                episode_log=epoch_log)


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
    """Training events as (kind, where, detail) rows. A "divergence" row
    gives the first optimizee step of the segment that diverged and no
    detail; a "teacher-divergence" row gives the epoch and the teacher."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "where", "detail"])
        for kind, where, *detail in events:
            w.writerow([kind, where, *(detail or [""])])
