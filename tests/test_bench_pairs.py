"""scripts/bench_pairs.py's summary verdicts on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.25}
RATE = {"name": "steps_per_s", "better": "higher", "bound": 0.25}
PARENT_WALL = [2.00, 2.04, 1.98, 2.10, 2.02, 1.96, 2.06, 2.01, 1.99, 2.03]


def runs(metric, parent, change):
    """Paired runs in bench_pairs' format, one value of metric per run."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change), start=1):
        for side, value in (("parent", p), ("change", c)):
            out.append({"pair": pair, "side": side,
                        "result": {"metrics": {metric["name"]: {"value": value}}}})
    return out


def summary(metric, parent, change):
    return bench_pairs.summarize(runs(metric, parent, change), [metric])[metric["name"]]


def test_ten_of_ten_wins_by_more_than_the_iqr_is_a_gain():
    s = summary(WALL, PARENT_WALL, [v - 0.3 for v in PARENT_WALL])
    assert s["change_wins"] == 10 and s["pairs"] == 10
    assert s["verdict"] == "gain"


def test_seven_of_ten_wins_is_no_gain():
    change = [v - 0.3 for v in PARENT_WALL[:7]] + [v + 0.1 for v in PARENT_WALL[7:]]
    s = summary(WALL, PARENT_WALL, change)
    assert s["change_wins"] == 7
    assert s["parent_q1_median_q3"][1] - s["change_q1_median_q3"][1] > s["parent_iqr"]
    assert s["verdict"] == "within bound"


def test_nine_wins_within_the_iqr_is_no_gain_and_ties_count_for_neither():
    change = [v - 0.001 for v in PARENT_WALL[:9]] + PARENT_WALL[9:]
    s = summary(WALL, PARENT_WALL, change)
    assert s["change_wins"] == 9
    assert s["verdict"] == "within bound"


@pytest.mark.parametrize("metric,factor", [(WALL, 1.3), (RATE, 0.7)])
def test_a_median_worse_than_the_bound_is_worse(metric, factor):
    parent = [1000 * v for v in PARENT_WALL]
    s = summary(metric, parent, [factor * v for v in parent])
    assert s["change_wins"] == 0
    assert s["verdict"] == "worse"


@pytest.mark.parametrize("metric,factor", [(WALL, 1.2), (RATE, 0.8)])
def test_a_median_worse_within_the_bound_is_within_bound(metric, factor):
    parent = [1000 * v for v in PARENT_WALL]
    assert summary(metric, parent, [factor * v for v in parent])["verdict"] == \
        "within bound"


def test_a_failed_run_counts_against_the_gain_share():
    # 8 wins in the 8 pairs where both sides ran are 8 of the 10 pairs run
    paired = runs(WALL, PARENT_WALL, [v - 0.3 for v in PARENT_WALL])
    for run in paired:
        if run["side"] == "change" and run["pair"] in (3, 7):
            run["result"] = None
    s = bench_pairs.summarize(paired, [WALL])["wall_s"]
    assert s["change_wins"] == 8 and s["pairs"] == 10
    assert s["verdict"] == "within bound"
