"""Paired benchmark runs of a parent and a change, summarized as BENCH_*.json.

From the repository root:

    python3 scripts/bench_pairs.py --parent HEAD --workload eval-tiny:0 \
        --workload train-cl-il:6 --trace --what "..." --out BENCH_20261018.json

Both sides run ``benchmark/run.py`` from their own fresh directory under
``.bench_build/pairs/``: the parent is exported from git with ``git
archive``, and the change is a commit exported the same way or, by
default, a copy of the working tree's tracked and unignored files. Each
pair runs both sides one after the other, alternating which side goes
first, so that drift of a shared machine falls on both sides alike. Every
workload gets ten pairs, and every run lasts the run_seconds of
BENCHMARK.json.

For every end-to-end metric of BENCHMARK.json the summary gives each
side's [q1, median, q3] (linear interpolation), the number of pairs in
which the change is better, the change median over the parent median,
and the parent's interquartile range. ``--trace`` adds one traced run per
side, with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PAIRS_DIR = ROOT / ".bench_build" / "pairs"
WORKTREE = "."
PAIRS = 10


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def export(rev: str, side: str) -> tuple[Path, str]:
    """A fresh directory holding rev's files, or the working tree's for
    rev ".", and the label recorded for it."""
    if rev == WORKTREE:
        label = "working tree on " + git("rev-parse", "--short=12", "HEAD").strip()
        dest = PAIRS_DIR / f"{side}-worktree"
    else:
        label = git("rev-parse", "--short=12", rev).strip()
        dest = PAIRS_DIR / f"{side}-{label}"
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    if rev == WORKTREE:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, names.split("\0")):
            src = ROOT / name
            if src.is_file():
                (dest / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / name)
    else:
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest, filter="data")
    return dest, label


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: bool) -> tuple[dict | None, dict | None]:
    """One benchmark/run.py process: (its result JSON, its build), or
    (None, None) when it fails."""
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        return None, None
    lines = done.stdout.splitlines()
    build = next((json.loads(line[len("build "):]) for line in lines
                  if line.startswith("build ")), None)
    return json.loads(lines[-1]), build


def quartiles(values) -> list[float]:
    return [float(q) for q in np.percentile(values, [25, 50, 75])]


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: both sides' quartiles, paired wins and the median ratio,
    over the pairs in which both sides ran."""
    by_pair: dict[int, dict] = {}
    for r in runs:
        if r["result"] is not None:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for m in metrics if pairs else ():
        name = m["name"]
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        sign = 1.0 if m["better"] == "higher" else -1.0
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "median_ratio_change_over_parent": cq[1] / pq[1],
            "pairs": len(pairs),
            "parent_iqr": pq[2] - pq[0],
        }
    return out


def parse_workload(text: str) -> tuple[str, int]:
    name, _, seed = text.partition(":")
    return name, int(seed) if seed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    p.add_argument("--change", default=WORKTREE,
                   help='git revision of the change, or "." for the working tree')
    p.add_argument("--workload", action="append", required=True, metavar="NAME[:SEED]")
    p.add_argument("--trace", action="store_true",
                   help="also one traced run per side and workload")
    p.add_argument("--what", default="", help="what the change is, for the record")
    p.add_argument("--out", default=None,
                   help="output file (default: BENCH_<yyyymmdd>.json in the repository)")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    out_path = Path(args.out or ROOT / f"BENCH_{time.strftime('%Y%m%d')}.json")
    if out_path.exists():
        p.error(f"{out_path} exists; name another file with --out")
    sides = {"parent": export(args.parent, "parent"),
             "change": export(args.change, "change")}

    report = {
        "what": args.what,
        "parent_commit": sides["parent"][1],
        "change_commit": sides["change"][1],
        "command": f"python3 benchmark/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace T",
        "machine": f"{os.cpu_count()} CPUs; BLAS pinned to one thread",
        "method": "Each pair runs the parent and the change one after the other "
                  "from fresh checkouts, alternating which side runs first. Timing "
                  "figures are [q1, median, q3] over the runs of one side; "
                  "change_wins counts pairs in which the change is better. ratios "
                  "are change median / parent median.",
        "build": None,
        "workloads": {},
    }
    for text in args.workload:
        workload, seed = parse_workload(text)
        runs = []
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result, build = run_bench(sides[side][0], workload, seed, seconds, False)
                report["build"] = report["build"] or build
                runs.append({"pair": pair, "side": side, "result": result})
                wall = result["metrics"]["wall_s"]["value"] if result else float("nan")
                print(f"{workload} seed {seed} pair {pair} {side}: wall_s {wall:.3f}",
                      flush=True)
        entry = {
            "ops_failed": {side: sum(r["result"]["failed"] for r in runs
                                     if r["side"] == side and r["result"])
                           for side in sides},
            "runs_failed": {side: sum(r["side"] == side and r["result"] is None
                                      for r in runs) for side in sides},
            "summary": summarize(runs, spec["end_to_end"]),
            "untraced": runs,
        }
        if args.trace:
            entry["traced"] = {side: run_bench(sides[side][0], workload, seed,
                                               seconds, True)[0] for side in sides}
        report["workloads"][f"{workload} seed {seed}"] = entry
        out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for key, entry in report["workloads"].items():
        for name, s in entry["summary"].items():
            print(f"{key} {name}: parent {s['parent_q1_median_q3'][1]:.4g} -> change "
                  f"{s['change_q1_median_q3'][1]:.4g} (ratio "
                  f"{s['median_ratio_change_over_parent']:.3f}, change wins "
                  f"{s['change_wins']}/{s['pairs']}, parent IQR {s['parent_iqr']:.3g})")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
