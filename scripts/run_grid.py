#!/usr/bin/env python3
"""The ablation grid: every training mode on every desk family, over
training seeds, each evaluated at 10 eval seeds x 500 steps.

A cell is one `l2okit.experiments.train` of (mode, family, seed) followed
by `run_eval`. `cl` and `cl-il` train with the README flagship's
curriculum flags (`experiments.FLAGSHIP_FLAGS`); every other mode uses
profile defaults. Each family also gets one `adam` and one `sgd` row at
the default teacher lr, evaluated only. `vanilla` is always trained, as
the reference for the other modes' paired wins.

Each row holds the `evaluation.COMPARE_COLUMNS` (median final loss,
divergence rate, log AUC). A trained row other than `vanilla` adds its
paired wins (`EvalReport.paired_wins`): the eval seeds whose final loss
is below that of `vanilla` at the same family and seed. `cl` and `cl-il`
rows add how the curriculum stopped and what it cost. The file also
records the Python/numpy/scipy/BLAS build, the OpenBLAS kernel and the
SIMD targets numpy dispatches its loops to on this CPU. Rows are
sorted, so the bytes do not depend on scheduling; wall times go to
stderr only.

Cells run on one spawned process per usable CPU, with BLAS pinned to one
thread.
The full default grid takes about 18 minutes on 2 CPUs:

    PYTHONPATH=src python scripts/run_grid.py
    PYTHONPATH=src python scripts/run_grid.py --modes vanilla cl-il \\
        --families tiny_mlp --seeds 6 --out /tmp/grid.json
"""

import os

if __name__ == "__main__":
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import multiprocessing
import platform
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import scipy

from l2okit.config import MODES, build_config
from l2okit.evaluation import COMPARE_COLUMNS, EvalConfig, compare, run_eval
from l2okit.experiments import FLAGSHIP_FLAGS, train
from l2okit.metatrain import usable_cpus
from l2okit.teachers import TeacherKind

FAMILIES = ("quadratic", "logistic_blobs", "tiny_mlp")
BASELINES = ("adam", "sgd")
N_EVAL = 500
EVAL_SEEDS = tuple(range(10))
LOG_EVERY = 10


def run_cell(cell):
    """Train (unless the mode is an analytical baseline) and evaluate one
    (family, mode, seed) cell. Returns its row, its eval report and its
    wall time."""
    family, mode, seed = cell
    t0 = time.time()
    row = {"family": family, "mode": mode, "seed": seed}
    if mode in BASELINES:
        cfg = build_config(flag_values={"family": family})
        optimizer = TeacherKind(mode, lr=cfg.teacher_lr)
    else:
        flags = FLAGSHIP_FLAGS if mode in ("cl", "cl-il") else {}
        cfg = build_config(flag_values={"mode": mode, "family": family,
                                        "seed": seed, **flags})
        run = train(cfg)
        optimizer = run.phi
        if run.curriculum is not None:
            row.update(run.curriculum.summary())
    ec = EvalConfig(optimizee=cfg.optimizee_spec(), n_eval=N_EVAL,
                    seeds=EVAL_SEEDS, log_every=LOG_EVERY)
    report = run_eval(optimizer, ec)
    columns = compare([report])["rows"][0]
    row.update({c: columns[c] for c in COMPARE_COLUMNS})
    return row, report, time.time() - t0


def grid_cells(modes, families, seeds):
    trained = [m for m in MODES if m in modes or m == "vanilla"]
    for family in (f for f in FAMILIES if f in families):
        yield from ((family, mode, seed) for mode in trained
                    for seed in sorted(set(seeds)))
        yield from ((family, kind, None) for kind in BASELINES)


def run_grid(cells) -> list[dict]:
    """Rows of every cell, sorted by (family, mode, seed)."""
    cells = list(cells)
    workers = min(len(cells), usable_cpus())
    rows, reports = [], {}
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        for cell, (row, report, secs) in zip(cells, pool.map(run_cell, cells)):
            print(f"{' '.join(map(str, cell))}: median {row['median_final']:.4g}, "
                  f"{secs:.0f}s", file=sys.stderr)
            rows.append(row)
            reports[cell] = report
    for row in rows:
        if row["seed"] is not None and row["mode"] != "vanilla":
            ref = reports[row["family"], "vanilla", row["seed"]]
            own = reports[row["family"], row["mode"], row["seed"]]
            row["paired_wins"] = own.paired_wins(ref)
    return sorted(rows, key=lambda r: (r["family"], r["mode"],
                                       -1 if r["seed"] is None else r["seed"]))


def _openblas_core():
    """Kernel family OpenBLAS picked at run time (e.g. "SkylakeX"), or
    None when numpy's BLAS is not the bundled scipy-openblas."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if not libs:
        return None
    try:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _numpy_dispatch():
    """The SIMD targets numpy's CPU-dispatched loops (exp, log, tanh and
    others) may pick on this CPU: the entries of __cpu_dispatch__ that
    __cpu_features__ marks available. NPY_DISABLE_CPU_FEATURES removes
    targets from it."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2 keeps it in numpy.core
        from numpy.core import _multiarray_umath as umath
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
        "numpy_dispatch": _numpy_dispatch(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--modes", nargs="+", choices=MODES, default=list(MODES),
                    help="training modes (default all; vanilla always runs)")
    ap.add_argument("--families", nargs="+", choices=FAMILIES,
                    default=list(FAMILIES))
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(8)),
                    help="training seeds (default 0..7)")
    ap.add_argument("--out", default="results/grid.json")
    args = ap.parse_args(argv)

    t0 = time.time()
    rows = run_grid(grid_cells(args.modes, args.families, args.seeds))
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump({"build": build(), "rows": rows}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(rows)} rows to {args.out} in {time.time() - t0:.0f}s",
          file=sys.stderr)


if __name__ == "__main__":
    main()
