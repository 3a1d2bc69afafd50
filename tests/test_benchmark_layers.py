"""The benchmark's traced layers still name the program's functions.

benchmark/workloads.py lists, in layer_targets(), each (owner, attribute)
that a traced run patches; a deleted or renamed one makes
`benchmark/run.py --trace 1` fail with a KeyError, and its per-layer
metrics in BENCHMARK.json name spans that no run records.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "benchmark"))

import workloads  # noqa: E402

# the statistics that benchmark/measure.py reports for every traced span
SPAN_STATS = ("calls", "self_s", "total_s", "p50_us", "p99_us")


def test_every_layer_target_resolves():
    missing = [span for span, owner, attr, _ in workloads.layer_targets()
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_every_per_layer_span_metric_names_a_layer_target():
    spans = {span for span, *_ in workloads.layer_targets()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"].rpartition(".") for m in spec["per_layer"]]
    named = [span for span, _, stat in metrics if stat in SPAN_STATS]
    assert len(named) > 20
    assert [span for span in named if span not in spans] == []
