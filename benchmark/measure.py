"""Repeat a workload's unit for a fixed time, check its bytes, and turn
the timings and spans into the metrics named in BENCHMARK.json."""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

from spans import CallCounter, Patches, Tracer
from workloads import UnitResult, layer_targets, optimizee_methods

STEP_SPAN = "optimizees.loss_and_grad"


@dataclass
class Unit:
    warmup: bool
    traced: bool
    wall_s: float
    steps: int
    result: UnitResult | None      # None when the unit raised
    tracer: Tracer | None


def run_one(workload, warmup: bool, traced: bool) -> Unit:
    patches = Patches()
    tracer = counter = None
    if traced:
        tracer = Tracer()
        for name, owner, attr, observe in layer_targets():
            make = lambda fn, name=name, observe=observe: tracer.wrap(name, fn, observe)
            if isinstance(owner, type):
                patches.method(owner, attr, make)
            else:
                patches.function(owner, attr, make)
    else:
        counter = CallCounter()
        for cls, attr in optimizee_methods(("loss_and_grad",)):
            patches.method(cls, attr, counter.wrap)
    result = None
    start = time.perf_counter()
    try:
        result = workload.run_unit()
    except Exception:
        traceback.print_exc(file=sys.stderr)
    finally:
        wall = time.perf_counter() - start
        patches.undo()
    steps = (sum(1 for s in tracer.spans if s[2] == STEP_SPAN) if traced
             else counter.calls)
    return Unit(warmup, traced, wall, steps, result, tracer)


def run_units(workload, seconds: float, trace: bool) -> list[Unit]:
    """A warm-up unit, then units until ``seconds`` have passed, at least
    two. The warm-up's bytes are checked but its time is not used: the
    first unit in a process runs slower while allocations grow. With
    tracing on, units alternate untraced / traced, so each run measures
    the tracing overhead and checks that tracing leaves the bytes
    unchanged."""
    units = [run_one(workload, warmup=True, traced=False)]
    start = time.perf_counter()
    timed = 0
    while timed < 2 or time.perf_counter() - start < seconds:
        units.append(run_one(workload, warmup=False, traced=trace and timed % 2 == 1))
        timed += 1
    return units


def check(units: list[Unit], reference: dict | None) -> list[bool]:
    """Per unit: did it fail? A unit fails when it raised or its bytes
    differ from the reference digest (when one applies) or else from the
    run's first successful unit."""
    ok = [u.result for u in units if u.result is not None]
    expect = reference if reference is not None else (ok[0].digest if ok else None)
    return [u.result is None or u.result.digest != expect for u in units]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_q(n: int) -> float:
    """The highest percentile with at least ten samples beyond it, capped
    at 99 and floored at the median for small samples."""
    return min(0.99, max(0.5, 1.0 - 10.0 / n))


def end_to_end(good: list[Unit]) -> dict[str, float]:
    """From the units that passed their check."""
    timed = [u for u in good if not u.warmup and not u.traced]
    return {
        "wall_s": statistics.median(u.wall_s for u in timed),
        "steps_per_s": statistics.median(u.steps / u.wall_s for u in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(good: list[Unit]) -> dict[str, float]:
    """From the units that passed their check."""
    traced = [u for u in good if u.traced]
    plain = [u for u in good if not u.traced and not u.warmup]
    names = sorted({t[0] for t in layer_targets()})
    out: dict[str, float] = {}

    per_unit = []   # name -> (calls, self ns, total ns) for each traced unit
    durations: dict[str, list[int]] = defaultdict(list)
    for u in traced:
        agg = defaultdict(lambda: [0, 0, 0])
        for _sid, _parent, name, _start, dur, self_ns in u.tracer.spans:
            a = agg[name]
            a[0] += 1
            a[1] += self_ns
            a[2] += dur
            durations[name].append(dur)
        per_unit.append(agg)
    for name in names:
        rows = [agg.get(name, (0, 0, 0)) for agg in per_unit]
        out[f"{name}.calls"] = statistics.mean(r[0] for r in rows)
        out[f"{name}.self_s"] = statistics.median(r[1] for r in rows) / 1e9
        out[f"{name}.total_s"] = statistics.median(r[2] for r in rows) / 1e9
        d = durations[name]
        out[f"{name}.p50_us"] = statistics.median(d) / 1e3 if d else 0.0
        out[f"{name}.p99_us"] = percentile(d, tail_q(len(d))) / 1e3 if d else 0.0

    def observed_mean(name):
        vals = [v for u in traced for v in u.tracer.observed.get(name, ())]
        return statistics.mean(vals) if vals else 0.0

    out["autodiff.backward.nodes_mean"] = observed_mean("autodiff.backward")
    out["metatrain.segments_completed_ratio"] = observed_mean(
        "metatrain.segment_loss_and_grads")
    for key in ("curriculum.periods_improved_ratio", "evaluation.divergence_rate"):
        out[key] = statistics.mean(u.result.ratios.get(key, 0.0) for u in good)
    out["result_loss"] = good[0].result.result_loss
    out["trace.overhead_ratio"] = (statistics.median(u.wall_s for u in traced)
                                   / statistics.median(u.wall_s for u in plain))
    out["trace.self_coverage"] = statistics.median(
        sum(s[5] for s in u.tracer.spans) / 1e9 / u.wall_s for u in traced)
    out["trace.units"] = len(traced)
    return out


def write_spans(units: list[Unit], path) -> None:
    with open(path, "w") as fh:
        fh.write("unit,id,parent,name,start_ns,dur_ns,self_ns\n")
        for k, u in enumerate(units):
            if u.tracer is not None:
                for row in u.tracer.spans:
                    fh.write(f"{k}," + ",".join(str(v) for v in row) + "\n")
