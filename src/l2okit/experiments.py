"""train(cfg), the one recipe from a run config to a trained optimizer,
the schedules it runs for every mode, and the CSV writers for their logs.

A mode is an epoch body, called as body(phi, epoch, horizon) and
returning (kind, loss): metatrain.train_epoch (vanilla, aug, cl),
imitation.il_epoch (il, cl-il) or imitation.self_improving_epoch
(self-improving). train binds the rest by keyword: one meta-Adam for the
whole run, the segment length, instance, seed, events and the mode's
settings. train_fixed is the one epoch loop: it runs a body over a range
of epochs at one horizon, once over the resolved epochs in a
fixed-horizon mode and once per period of the horizon ladder in
train_curriculum.

train_fixed mutates phi in place; train_curriculum trains copies and
returns the best snapshot. Both append plain-tuple rows to the given
log; CSV serialization lives at the bottom so repeated runs with the
same config produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import partial

from .config import RunConfig
from .curriculum import CurriculumResult, curriculum_train
from .imitation import il_epoch, self_improving_epoch
from .metatrain import MetaAdam, train_epoch, validate
from .model import L2OParams, init_l2o
from .optimizees import sample_instance
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
    """Train cfg.mode from cfg.seed, cfg having passed RunConfig.validate;
    writes and prints nothing."""
    spec = cfg.optimizee_spec()
    inst = sample_instance(spec, derive_seed(cfg.seed, "train-inst"))
    phi = init_l2o(derive_seed(cfg.seed, "init-phi"), hidden=cfg.hidden,
                   preprocess_p=cfg.preprocess_p, out_scale=cfg.out_scale)
    teachers = default_ensemble(lr=cfg.teacher_lr)
    epoch_log, events = [], []
    context = {"adam": MetaAdam(lr=cfg.meta_lr), "segment": cfg.segment,
               "inst": inst, "seed": cfg.seed, "events": events}
    if cfg.mode in ("il", "cl-il"):
        body = partial(il_epoch, r=cfg.r, teachers=teachers, **context)
    elif cfg.mode == "self-improving":
        body = partial(self_improving_epoch, teachers=teachers,
                       anneal_epochs=cfg.anneal_epochs,
                       start_prob=cfg.si_start_prob, **context)
    else:
        body = partial(train_epoch, **context)

    if cfg.mode in ("cl", "cl-il"):
        result = train_curriculum(phi, body, cfg, epoch_log)
        return TrainResult(result.best_phi, epoch_log, events, result)
    train_fixed(phi, body, cfg.resolved_n_train(), range(cfg.resolved_epochs()),
                epoch_log)
    return TrainResult(phi, epoch_log, events, None)


def train_fixed(phi: L2OParams, body, horizon: int, epochs: range,
                epoch_log: list) -> None:
    """Run the epoch body for each epoch in epochs at the given horizon,
    appending (epoch, kind, loss, horizon) to epoch_log."""
    for epoch in epochs:
        kind, loss = body(phi, epoch, horizon)
        epoch_log.append((epoch, kind, loss, horizon))


def train_curriculum(phi: L2OParams, body, cfg: RunConfig,
                     epoch_log: list) -> CurriculumResult:
    """cfg's staged schedule over its horizon ladder: each period runs
    train_fixed at the stage's N_train (the cl-il flagship runs
    il_epoch), validated on cfg.n_val_instances fixed instances whose seed
    labels no training draw uses, within cfg.resolved_epochs() epochs."""
    cc = cfg.curriculum()
    spec = cfg.optimizee_spec()
    instances = [sample_instance(spec, derive_seed(cfg.seed, "valid-inst", i))
                 for i in range(cfg.n_val_instances)]

    def train_period_fn(phi_cur, n_train, epoch_base):
        train_fixed(phi_cur, body, n_train,
                    range(epoch_base, epoch_base + cc.t_period), epoch_log)

    def validate_fn(phi_cur, n_valid):
        return validate(phi_cur, n_valid, instances, cfg.seed,
                        cfg.divergence_penalty)

    return curriculum_train(phi, cc, train_period_fn, validate_fn,
                            epoch_budget=cfg.resolved_epochs())


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
    A "divergence" row's detail is the first optimizee step of the meta
    or imitation segment that diverged; a "teacher-divergence" row's is
    the teacher."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["kind", "where", "detail"])
        w.writerows(events)
