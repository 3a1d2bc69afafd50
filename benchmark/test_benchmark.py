"""Self-tests of the benchmark. From the repository root:

    python3 -m pytest benchmark -q

They run each workload's unit at its reference seed (about a minute in
total) and the benchmark command itself on eval-tiny.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import measure  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def unit_pair(request, tmp_path_factory):
    """One untraced and one traced unit of a workload at its reference seed."""
    name = request.param
    wl = workloads.prepare(name, workloads.DEFAULT_SEEDS[name],
                           tmp_path_factory.mktemp(name))
    plain = measure.run_one(wl, warmup=False, traced=False)
    traced = measure.run_one(wl, warmup=False, traced=True)
    return name, wl, plain, traced


def test_traced_artifacts_equal_untraced(unit_pair):
    name, _wl, plain, traced = unit_pair
    assert plain.result is not None and traced.result is not None
    assert traced.result.digest == plain.result.digest
    ref = workloads.load_reference()
    if workloads.same_build(workloads.fingerprint(), ref["fingerprint"]):
        assert plain.result.digest == ref["workloads"][name]["sha256"]


def test_eval_gradient_calls_equal_seeds_times_steps(unit_pair):
    name, wl, plain, traced = unit_pair
    if not isinstance(wl, workloads.EvalWorkload):
        pytest.skip("train workload")
    assert traced.result.ratios["evaluation.divergence_rate"] == 0.0
    expected = len(wl.cfg.seeds) * wl.cfg.n_eval
    assert traced.steps == expected
    assert plain.steps == expected


def test_self_times_add_up_to_outer_span():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: [traced_inner() for _ in range(3)])
    outer()
    by_name = {}
    for _sid, parent, name, _start, dur, self_ns in tracer.spans:
        by_name.setdefault(name, []).append((parent, dur, self_ns))
    (outer_parent, outer_dur, outer_self), = by_name["outer"]
    assert outer_parent == -1
    assert len(by_name["inner"]) == 3
    assert all(dur == self_ns for _p, dur, self_ns in by_name["inner"])
    assert outer_self + sum(d for _p, d, _s in by_name["inner"]) == outer_dur


def test_patches_rebind_every_importer_and_restore():
    from l2okit import evaluation, imitation, metatrain

    original = metatrain.rollout
    patches = Patches()
    patches.function(metatrain, "rollout", lambda fn: "wrapped")
    try:
        assert metatrain.rollout == evaluation.rollout == imitation.rollout == "wrapped"
    finally:
        patches.undo()
    assert metatrain.rollout is evaluation.rollout is imitation.rollout is original


@pytest.mark.parametrize("trace,declared", [(0, "end_to_end"), (1, "per_layer")])
def test_one_command_prints_every_metric(trace, declared):
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "eval-tiny",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC[declared]]
    assert list(result["metrics"]) == names
    table = {ln.split()[0]: ln.split() for ln in lines[:-1] if ln.startswith("  ")}
    for m in SPEC[declared]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert table[m["name"]][-1] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "eval-tiny",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={**os.environ, "PYTHONPATH": ""})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
