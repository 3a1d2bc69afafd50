"""Long-horizon, multi-seed evaluation of optimizers (learned or
analytical) on unseen optimizees, with divergence tracking.

The seeds of an eval run in metatrain.in_groups's groups, each group one
metatrain.rollout with one stepper over its seeds' stacked coordinates:
seeds narrower than POOL_MIN_DIM step as one lockstep stack in the
calling thread, wider ones one per thread. A seed's curve is the same
bits whatever group or thread it ran in.

Loss curves are stored in natural units; the log transform is applied
only when computing the presentation AUC.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .metatrain import in_groups, rollout, stepper
from .optimizees import OptimizeeSpec, instance_dim, sample_instance
from .seeding import derive_seed

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

    def paired_wins(self, ref: "EvalReport") -> int:
        """The seeds whose final loss is below ref's at the same seed. A
        diverged seed's final loss is +inf, so it never wins and loses to
        any finite loss; a tie counts for neither. ValueError when the two
        reports' seeds differ."""
        if self.seeds != ref.seeds:
            raise ValueError(f"paired_wins: seeds {self.seeds} and {ref.seeds} differ")
        own, other = self.final_losses(), ref.final_losses()
        return sum(own[s] < other[s] for s in self.seeds)

    def log_auc(self) -> float:
        """Trapezoid AUC of log10(mean curve) over the logged steps."""
        # numpy >= 2.0 names it trapezoid (and 2.4 removed trapz);
        # numpy < 2.0 has only trapz. Look trapz up only when needed.
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        y = np.log10(np.maximum(np.asarray(self.agg_mean), _LOG_FLOOR))
        return float(trapezoid(y, np.asarray(self.agg_steps, dtype=np.float64)))

    def to_json(self) -> str:
        # seed keys become strings before sort_keys, which puts "10" before
        # "2"; int keys would sort numerically and change the bytes
        d = asdict(self)
        for key in ("curves", "diverged_at"):
            d[key] = {str(s): v for s, v in d[key].items()}
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, source: str = "document") -> "EvalReport":
        """The report that to_json wrote; ValueError naming source for
        JSON that is not one (a missing or extra key, not an object, or a
        value that compare and log_auc read that is not a real number), or
        for text that is not JSON."""
        try:
            d = json.loads(text)
            numbers = [d["final_median"], d["divergence_rate"], *d["agg_steps"],
                       *d["agg_mean"]]
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in numbers):
                raise TypeError("final_median, divergence_rate, agg_steps and "
                                "agg_mean must be real numbers")
            d["optimizee"] = OptimizeeSpec(**d["optimizee"])
            d["seeds"] = seeds = tuple(d["seeds"])
            d["curves"] = {s: [tuple(p) for p in d["curves"][str(s)]] for s in seeds}
            d["diverged_at"] = {s: d["diverged_at"][str(s)] for s in seeds}
            return cls(**d)
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{source} is not an eval report ({exc!r})") from None


def logged_steps(cfg: EvalConfig) -> list[int]:
    """The steps a curve records: every log_every-th, and the last."""
    return sorted({*range(0, cfg.n_eval, cfg.log_every), cfg.n_eval - 1})


def eval_group(optimizer, cfg: EvalConfig, seeds) -> list:
    """The lockstep rollout of seeds (all of run_eval's, or one wide seed),
    each on a fresh instance and theta0: per seed, its (step, loss) at
    each logged step it reached, and the step it diverged at, or None."""
    insts = [sample_instance(cfg.optimizee, derive_seed(s, "eval-inst")) for s in seeds]
    runs = [(inst, *inst.start(s, "eval")) for inst, s in zip(insts, seeds)]
    results = rollout(stepper(optimizer, sum(inst.dim for inst in insts)), runs,
                      cfg.n_eval)
    return [([(t, float(losses[t])) for t in logged_steps(cfg) if t < len(losses)],
             diverged_at) for losses, diverged_at in results]


def _std(values) -> float:
    """np.std, rescaled by the largest magnitude where the squares overflow."""
    with np.errstate(over="ignore"):
        std = float(np.std(values))
    if np.isfinite(std):
        return std
    scale = float(np.max(np.abs(values)))
    return float(np.std(np.asarray(values) / scale)) * scale


def run_eval(optimizer, cfg: EvalConfig) -> EvalReport:
    """Fresh instance + theta0 per seed, evaluative rollouts in
    metatrain.in_groups's groups, aggregates. Fully deterministic given
    cfg, whatever the groups and the number of threads they run on; never
    mutates the optimizer."""
    stepper(optimizer, 1)  # an unsupported optimizer fails before any thread
    results = in_groups(partial(eval_group, optimizer, cfg), list(cfg.seeds),
                        [instance_dim(cfg.optimizee)] * len(cfg.seeds))
    curves = {s: pts for s, (pts, _) in zip(cfg.seeds, results)}
    diverged = {s: at for s, (_, at) in zip(cfg.seeds, results)}

    # a seed has a point at every logged step before it diverged
    points = [dict(curves[s]) for s in cfg.seeds]
    agg_mean, agg_std, kept_steps = [], [], []
    for t in logged_steps(cfg):
        alive = [pts[t] for pts in points if t in pts]
        if not alive:
            continue
        kept_steps.append(t)
        agg_mean.append(float(np.mean(alive)))
        agg_std.append(_std(alive))

    finals = [curves[s][-1][1] for s in cfg.seeds if diverged[s] is None]
    n_div = sum(1 for s in cfg.seeds if diverged[s] is not None)
    if finals:
        fmed, fmean, fstd = (float(np.median(finals)), float(np.mean(finals)),
                             _std(finals))
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
