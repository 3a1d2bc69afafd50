"""Long-horizon, multi-seed evaluation of optimizers (learned or
analytical) on unseen optimizees, with divergence tracking.

Loss curves are stored in natural units; the log transform is applied
only when computing the presentation AUC.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .metatrain import l2o_stepper, rollout
from .model import L2OParams
from .optimizees import OptimizeeSpec, sample_instance
from .seeding import derive_seed
from .teachers import TeacherKind, teacher_stepper

_LOG_FLOOR = 1e-300


@dataclass(frozen=True)
class EvalConfig:
    optimizee: OptimizeeSpec
    n_eval: int
    seeds: tuple[int, ...]
    log_every: int = 10
    optimizer_name: str = "l2o"

    def __post_init__(self):
        if self.n_eval < 1:
            raise ValueError("n_eval must be >= 1")
        if not self.seeds:
            raise ValueError("seed list must be non-empty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass
class EvalReport:
    optimizer_name: str
    optimizee: OptimizeeSpec
    n_eval: int
    log_every: int
    seeds: tuple[int, ...]
    curves: dict[int, list[tuple[int, float]]]   # seed -> [(step, loss)]
    diverged_at: dict[int, int | None]
    agg_steps: list[int]
    agg_mean: list[float]
    agg_std: list[float]
    final_median: float
    final_mean: float
    final_std: float
    divergence_rate: float

    def final_losses(self) -> dict[int, float]:
        """Per-seed final recorded loss; +inf for diverged seeds (useful
        for paired comparisons)."""
        out = {}
        for s in self.seeds:
            if self.diverged_at[s] is not None:
                out[s] = float("inf")
            else:
                out[s] = self.curves[s][-1][1]
        return out

    def log_auc(self) -> float:
        """Trapezoid AUC of log10(mean curve) over the logged steps."""
        # numpy >= 2.0 names it trapezoid (and 2.4 removed trapz);
        # numpy < 2.0 has only trapz. Look trapz up only when needed.
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        y = np.log10(np.maximum(np.asarray(self.agg_mean), _LOG_FLOOR))
        return float(trapezoid(y, np.asarray(self.agg_steps, dtype=np.float64)))

    def to_json(self) -> str:
        payload = {
            "optimizer_name": self.optimizer_name,
            "optimizee": asdict(self.optimizee),
            "n_eval": self.n_eval,
            "log_every": self.log_every,
            "seeds": list(self.seeds),
            "curves": {str(s): self.curves[s] for s in self.seeds},
            "diverged_at": {str(s): self.diverged_at[s] for s in self.seeds},
            "agg_steps": self.agg_steps,
            "agg_mean": self.agg_mean,
            "agg_std": self.agg_std,
            "final_median": self.final_median,
            "final_mean": self.final_mean,
            "final_std": self.final_std,
            "divergence_rate": self.divergence_rate,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        d = json.loads(text)
        seeds = tuple(d["seeds"])
        return cls(
            optimizer_name=d["optimizer_name"],
            optimizee=OptimizeeSpec(**d["optimizee"]),
            n_eval=d["n_eval"], log_every=d["log_every"], seeds=seeds,
            curves={s: [tuple(p) for p in d["curves"][str(s)]] for s in seeds},
            diverged_at={s: d["diverged_at"][str(s)] for s in seeds},
            agg_steps=d["agg_steps"], agg_mean=d["agg_mean"], agg_std=d["agg_std"],
            final_median=d["final_median"], final_mean=d["final_mean"],
            final_std=d["final_std"], divergence_rate=d["divergence_rate"],
        )


def _check_optimizer(optimizer) -> None:
    if not isinstance(optimizer, (L2OParams, TeacherKind)):
        raise TypeError(f"unsupported optimizer {type(optimizer).__name__}")


def make_stepper(optimizer, dim: int):
    _check_optimizer(optimizer)
    if isinstance(optimizer, L2OParams):
        return l2o_stepper(optimizer, dim)
    return teacher_stepper(optimizer, dim)


# Seeds run on threads, which overlap only the numpy kernels that release
# the interpreter lock. Those dominate a step from about this optimizee
# dimension up; below it two threads ran slower than one (2 vCPUs, L2O
# hidden 20: 0.90x at dim 42, 1.01x at 127, 1.35x at 202, 1.89x at 1,002).
POOL_MIN_DIM = 200


def _pool_size(cfg: EvalConfig) -> int:
    """Threads for run_eval: one per seed and usable CPU, or 1 (the seeds
    run in the calling thread) below POOL_MIN_DIM."""
    workers = min(len(cfg.seeds), len(os.sched_getaffinity(0)))
    if workers == 1:
        return 1
    inst = sample_instance(cfg.optimizee, derive_seed(cfg.seeds[0], "eval-inst"))
    return workers if inst.dim >= POOL_MIN_DIM else 1


def eval_seed(optimizer, cfg: EvalConfig, seed: int):
    """One seed's rollout on a fresh instance and theta0: its logged
    (step, loss) points and the step it diverged at, or None."""
    inst = sample_instance(cfg.optimizee, derive_seed(seed, "eval-inst"))
    theta0 = inst.init_params(derive_seed(seed, "eval-theta0"))
    inst.reseed_batches(derive_seed(seed, "eval-batches"))
    traj = rollout(make_stepper(optimizer, inst.dim), inst, theta0, cfg.n_eval,
                   produced_by=cfg.optimizer_name)
    pts = [(t, float(loss)) for t, loss in enumerate(traj.losses)
           if t % cfg.log_every == 0 or t == cfg.n_eval - 1]
    return pts, traj.diverged_at


def run_eval(optimizer, cfg: EvalConfig) -> EvalReport:
    """Fresh instance + theta0 per seed, evaluative rollout, aggregates.
    Fully deterministic given cfg, whatever the number of threads the
    seeds run on; never mutates the optimizer."""
    _check_optimizer(optimizer)
    run = partial(eval_seed, optimizer, cfg)
    workers = _pool_size(cfg)
    if workers == 1:
        results = list(map(run, cfg.seeds))
    else:
        with ThreadPoolExecutor(workers) as pool:
            results = list(pool.map(run, cfg.seeds))
    curves = {s: pts for s, (pts, _) in zip(cfg.seeds, results)}
    diverged = {s: at for s, (_, at) in zip(cfg.seeds, results)}

    logged = {s: dict(curves[s]) for s in cfg.seeds}
    agg_mean, agg_std, kept_steps = [], [], []
    for t in range(cfg.n_eval):
        if t % cfg.log_every and t != cfg.n_eval - 1:
            continue
        alive = [logged[s][t] for s in cfg.seeds
                 if diverged[s] is None or diverged[s] > t]
        if not alive:
            continue
        kept_steps.append(t)
        agg_mean.append(float(np.mean(alive)))
        agg_std.append(float(np.std(alive)))

    finals = [curves[s][-1][1] for s in cfg.seeds if diverged[s] is None]
    n_div = sum(1 for s in cfg.seeds if diverged[s] is not None)
    if finals:
        fmed, fmean, fstd = (float(np.median(finals)), float(np.mean(finals)),
                             float(np.std(finals)))
    else:
        fmed = fmean = fstd = float("inf")
    return EvalReport(
        optimizer_name=cfg.optimizer_name, optimizee=cfg.optimizee,
        n_eval=cfg.n_eval, log_every=cfg.log_every, seeds=cfg.seeds,
        curves=curves, diverged_at=diverged,
        agg_steps=kept_steps, agg_mean=agg_mean, agg_std=agg_std,
        final_median=fmed, final_mean=fmean, final_std=fstd,
        divergence_rate=n_div / len(cfg.seeds),
    )


COMPARE_COLUMNS = ("median_final", "divergence_rate", "log_auc")


def compare(reports: list[EvalReport]) -> dict:
    """Tabulate reports sharing an optimizee spec and horizon; lower is
    better in every column and the winner is flagged per column."""
    if not reports:
        raise ValueError("compare: no reports")
    first = reports[0]
    for r in reports[1:]:
        if r.optimizee != first.optimizee or r.n_eval != first.n_eval:
            raise ValueError("compare: reports have mismatched optimizee/horizon")
    rows = []
    for r in reports:
        rows.append({
            "optimizer": r.optimizer_name,
            "median_final": r.final_median,
            "divergence_rate": r.divergence_rate,
            "log_auc": r.log_auc(),
        })
    winners = {}
    for col in COMPARE_COLUMNS:
        best = min(rows, key=lambda row: row[col])
        winners[col] = best["optimizer"]
    return {"rows": rows, "winners": winners}


def write_curves_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["step", "seed", "loss"])
        for seed in report.seeds:
            for step, loss in report.curves[seed]:
                w.writerow([step, seed, repr(loss)])


def write_summary_csv(reports: list[EvalReport], path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["optimizer", "median_final", "mean_final", "std_final",
                    "divergence_rate", "log_auc"])
        for r in reports:
            w.writerow([r.optimizer_name, repr(r.final_median), repr(r.final_mean),
                        repr(r.final_std), repr(r.divergence_rate), repr(r.log_auc())])
