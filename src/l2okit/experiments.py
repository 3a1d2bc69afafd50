"""train(cfg), the one recipe from a run config to a trained optimizer,
the schedules it runs for every mode, and the CSV writers for their logs.

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
from dataclasses import dataclass
from functools import partial

from .config import RunConfig
from .curriculum import CurriculumConfig, CurriculumResult, curriculum_train
from .imitation import (ImitationConfig, SelfImprovingSchedule, il_epoch,
                        self_improving_epoch)
from .metatrain import (MetaAdam, MetaLossSpec, TrainConfig, ValidationSet,
                        train_epoch, validate)
from .model import L2OParams, init_l2o
from .optimizees import OptimizeeSpec, sample_instance
from .seeding import derive_seed
from .teachers import default_ensemble

# The curriculum flags of the README flagship `cl-il` run (ladder, periods
# and epoch budget); the other modes train with profile defaults.
FLAGSHIP_FLAGS = {"ladder": (20, 40, 100), "n_period": 3, "t_period": 25,
                  "epochs": 600}


@dataclass
class TrainResult:
    """A trained run: phi, its epoch rows and events, and the curriculum's
    result (None for the fixed-horizon modes)."""
    phi: L2OParams
    epoch_log: list
    events: list
    curriculum: CurriculumResult | None


def train(cfg: RunConfig) -> TrainResult:
    """Train cfg.mode from cfg.seed; writes and prints nothing. Invalid
    mode settings raise ValueError before the first epoch."""
    spec = cfg.optimizee_spec()
    inst = sample_instance(spec, derive_seed(cfg.seed, "train-inst"))
    phi = init_l2o(derive_seed(cfg.seed, "init-phi"), hidden=cfg.hidden,
                   preprocess_p=cfg.preprocess_p, out_scale=cfg.out_scale)
    tc = TrainConfig(master_seed=cfg.seed, epochs=cfg.resolved_epochs(),
                     meta_lr=cfg.meta_lr, n_val_instances=cfg.n_val_instances,
                     divergence_penalty=cfg.divergence_penalty)
    teachers = default_ensemble(lr=cfg.teacher_lr)
    epoch_log, events = [], []
    context = {"inst": inst, "tc": tc, "events": events}
    if cfg.mode in ("il", "cl-il"):
        body = partial(il_epoch, ic=ImitationConfig(r=cfg.r, teachers=teachers),
                       **context)
    elif cfg.mode == "self-improving":
        sis = SelfImprovingSchedule(teachers=teachers,
                                    anneal_epochs=cfg.anneal_epochs,
                                    start_prob=cfg.si_start_prob)
        body = partial(self_improving_epoch, sis=sis, **context)
    else:
        body = partial(train_epoch, **context)

    if cfg.mode in ("cl", "cl-il"):
        result = train_curriculum(phi, body, spec, cfg.curriculum(), tc,
                                  segment=cfg.segment, epoch_log=epoch_log)
        return TrainResult(result.best_phi, epoch_log, events, result)
    n_train = cfg.resolved_n_train()
    mls = MetaLossSpec(horizon=n_train, segment=min(cfg.segment, n_train))
    train_fixed(phi, body, tc, mls, epoch_log=epoch_log)
    return TrainResult(phi, epoch_log, events, None)


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
