"""l2okit benchmark: run one workload at one seed and print its metrics.

From the repository root:

    python3 benchmark/run.py --workload eval-tiny --seed 0 --seconds 25 --trace 0

The process is single-threaded (BLAS threads pinned to 1 before numpy
loads) and drives l2okit only through its public entry points. It first
times the set-up in several fresh processes, then repeats the workload's
unit for ``--seconds``. Every metric is printed as ``name value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_build" / "benchmark"
SETUP_PROBES = 4   # before the units, and again after them
PROBE_TIMEOUT_S = 60


def setup_probe(workload: str, seed: int) -> None:
    """Child side of ``measure_setup``: set up, report the clock, exit."""
    import workloads

    workloads.prepare(workload, seed, OUT_ROOT / workload / "probe")
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first measured call into
    l2okit, over fresh processes (imports happen once per process)."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return times


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the workload's reference seed)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "l2okit" / "__init__.py").is_file():
        print(f"error: l2okit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    if args.setup_probe:
        setup_probe(args.workload, seed)
        return 0
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    setup_times = measure_setup(args.workload, seed)

    import measure

    out_dir = OUT_ROOT / args.workload / "run"
    shutil.rmtree(out_dir, ignore_errors=True)
    workload = workloads.prepare(args.workload, seed, out_dir)
    units = measure.run_units(workload, seconds, trace=bool(args.trace))
    setup_times += measure_setup(args.workload, seed)

    build = workloads.fingerprint()
    ref = workloads.load_reference()
    ref_wl = ref["workloads"][args.workload]
    if seed == ref_wl["seed"] and workloads.same_build(build, ref["fingerprint"]):
        check_mode = "reference sha256 (default seed, same build)"
        failed = measure.check(units, ref_wl["sha256"])
    else:
        check_mode = "run-to-run identity (other seed or build)"
        failed = measure.check(units, None)

    n_failed = sum(failed)
    good = [u for u, bad in zip(units, failed) if not bad]
    needed = {False, True} if args.trace else {False}   # untraced / traced
    if not needed <= {u.traced for u in good if not u.warmup}:
        print(f"error: no unit of {args.workload} passed its check "
              f"({n_failed}/{len(units)} failed)", file=sys.stderr)
        return 1

    if args.trace:
        values = measure.per_layer(good)
        declared = spec["per_layer"]
        measure.write_spans(units, out_dir / "spans.csv")
    else:
        values = measure.end_to_end(good)
        values["setup_s"] = statistics.median(setup_times)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"units {len(units)}  measured {sum(u.wall_s for u in units):.3f} s")
    print("build " + json.dumps(build, sort_keys=True))
    print(f"check {check_mode}: ops_failed_share {n_failed}/{len(units)}")
    print(f"result_loss {good[0].result.result_loss!r}  "
          f"artifacts {json.dumps(good[0].result.digest, sort_keys=True)}")
    print("unit walls (s; w = warm-up, t = traced): " + " ".join(
        f"{u.wall_s:.3f}{'w' if u.warmup else 't' if u.traced else ''}" for u in units))
    print("set-up probes (s): " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": n_failed == 0, "attempted": len(units),
                      "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
