"""scripts/run_grid.py against in-process train + run_eval of its cells."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__

from l2okit.config import build_config
from l2okit.evaluation import EvalConfig, run_eval
from l2okit.experiments import train

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_grid.py"


def test_grid_rows_match_in_process_cells(tmp_path):
    out = tmp_path / "grid.json"
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    subprocess.run([sys.executable, str(SCRIPT), "--modes", "vanilla", "il",
                    "--families", "quadratic", "--seeds", "0", "--out", str(out)],
                   env=env, check=True, capture_output=True)
    grid = json.loads(out.read_text())
    dispatch = grid["build"]["numpy_dispatch"]
    assert isinstance(dispatch, list) and len(set(dispatch)) == len(dispatch)
    assert set(dispatch) <= set(__cpu_dispatch__)
    rows = {(r["family"], r["mode"], r["seed"]): r for r in grid["rows"]}
    assert set(rows) == {("quadratic", "vanilla", 0), ("quadratic", "il", 0),
                         ("quadratic", "adam", None), ("quadratic", "sgd", None)}

    reports = {}
    for mode in ("vanilla", "il"):
        cfg = build_config(flag_values={"mode": mode, "family": "quadratic",
                                        "seed": 0})
        ec = EvalConfig(optimizee=cfg.optimizee_spec(), n_eval=500,
                        seeds=tuple(range(10)), log_every=10)
        report = reports[mode] = run_eval(train(cfg).phi, ec)
        row = rows["quadratic", mode, 0]
        assert (row["median_final"], row["divergence_rate"], row["log_auc"]) == (
            report.final_median, report.divergence_rate, report.log_auc())
    assert rows["quadratic", "il", 0]["paired_wins"] == reports["il"].paired_wins(
        reports["vanilla"])
    assert "paired_wins" not in rows["quadratic", "vanilla", 0]


def test_importing_grid_leaves_environment_alone():
    before = dict(os.environ)
    spec = importlib.util.spec_from_file_location("run_grid", SCRIPT)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before
