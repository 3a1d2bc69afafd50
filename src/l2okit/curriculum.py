"""Progressive-unrolling training scheduler with mismatched validation
horizons, best-snapshot tracking and a two-level stopping rule.

The driver is deliberately abstract: it consumes a train-period callable
and a validate callable, so tests can script validation losses and the
real binding lives in experiments.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CurriculumConfig:
    ladder: tuple[int, ...] = (20, 40, 100, 200)
    n_period: int = 3
    t_period: int = 25

    def __post_init__(self):
        if not self.ladder:
            raise ValueError("ladder must be non-empty")
        if any(b <= a for a, b in zip(self.ladder, self.ladder[1:])):
            raise ValueError("ladder must be strictly increasing")
        if any(n < 1 for n in self.ladder):
            raise ValueError("ladder entries must be positive")
        if self.n_period < 1:
            raise ValueError("n_period must be >= 1")
        if self.t_period < 1:
            raise ValueError("t_period must be >= 1")


def n_valid_for(cc: CurriculumConfig, i: int) -> int:
    """Validation horizon for stage i: the next ladder entry; the final
    stage extrapolates by the last ladder ratio."""
    if not 0 <= i < len(cc.ladder):
        raise ValueError(f"stage index {i} outside ladder")
    if len(cc.ladder) == 1:
        raise ValueError("single-element ladder: no mismatched horizon definable")
    if i + 1 < len(cc.ladder):
        return cc.ladder[i + 1]
    last, prev = cc.ladder[-1], cc.ladder[-2]
    return round(last * last / prev)


@dataclass
class TraceRow:
    kind: str            # period | rebaseline | stop | exhausted | budget
    stage: int
    period: int
    epoch: int           # cumulative epochs trained so far
    n_train: int
    n_valid: int
    l_val: float
    l_min: float
    improved: bool


@dataclass
class CurriculumResult:
    """A finished schedule. train_iterations is its cost in optimizee
    steps: the sum over periods of t_period epochs * that stage's N_train."""
    best_phi: object
    trace: list[TraceRow]
    total_epochs: int
    stopped_by: str      # stop | exhausted | budget
    best_stage: int
    train_iterations: int

    def summary(self) -> dict:
        """How it stopped and what it cost: curriculum.json, and a grid row's."""
        return {k: getattr(self, k) for k in ("stopped_by", "best_stage",
                                              "total_epochs", "train_iterations")}


def curriculum_train(phi0, cc: CurriculumConfig, train_period_fn, validate_fn,
                     epoch_budget: int | None = None) -> CurriculumResult:
    """Run the staged schedule.

    train_period_fn(phi, n_train, epoch_base) trains phi in place for
    t_period epochs at horizon n_train. validate_fn(phi, n_valid) returns
    a scalar validation loss. phi.copy() takes each snapshot. Each period
    adds t_period * n_train optimizee steps to the result's
    train_iterations.

    Per stage: at least n_period periods, then keep going while the last
    period improved on the best validation loss; if a whole stage passes
    without improvement, stop and return the prior best snapshot. On a
    stage advance, training restarts from the best snapshot and the
    comparison floor is re-baselined by validating it at the new horizon.
    """
    phi_cur = phi0.copy()
    phi_best = phi0.copy()
    l_min = math.inf
    i = 0
    epoch = 0
    best_stage = 0
    trace: list[TraceRow] = []
    iterations = 0

    def finish(reason: str) -> CurriculumResult:
        return CurriculumResult(phi_best, trace, epoch, reason, best_stage,
                                iterations)

    while True:
        n_train = cc.ladder[i]
        n_valid = n_valid_for(cc, i)
        n = 0
        stage_improved = False
        last_improved = False
        while n < cc.n_period or last_improved:
            if epoch_budget is not None and epoch + cc.t_period > epoch_budget:
                trace.append(TraceRow("budget", i, n, epoch, n_train, n_valid,
                                      math.nan, l_min, False))
                return finish("budget")
            n += 1
            train_period_fn(phi_cur, n_train, epoch)
            epoch += cc.t_period
            iterations += cc.t_period * n_train
            l_val = float(validate_fn(phi_cur, n_valid))
            last_improved = l_val < l_min
            if last_improved:
                l_min = l_val
                phi_best = phi_cur.copy()
                stage_improved = True
                best_stage = i
            trace.append(TraceRow("period", i, n, epoch, n_train, n_valid,
                                  l_val, l_min, last_improved))
        if not stage_improved:
            trace.append(TraceRow("stop", i, n, epoch, n_train, n_valid,
                                  math.nan, l_min, False))
            return finish("stop")
        i += 1
        if i >= len(cc.ladder):
            trace.append(TraceRow("exhausted", i - 1, n, epoch, n_train, n_valid,
                                  math.nan, l_min, False))
            return finish("exhausted")
        phi_cur = phi_best.copy()
        n_valid = n_valid_for(cc, i)
        l_min = float(validate_fn(phi_best, n_valid))
        trace.append(TraceRow("rebaseline", i, 0, epoch, cc.ladder[i], n_valid,
                              l_min, l_min, False))
