#!/usr/bin/env python3
"""Criterion 6 over several training seeds.

tests/test_acceptance.py::test_criterion_6_directional_reproduction
decides on one training seed (EXP_SEED) whether curriculum+imitation
(cl-il) beats vanilla training on tiny_mlp at a 500-step horizon. That
outcome moves with float rounding in the numpy/scipy/BLAS build. This
script reruns the test's `directional_experiment` fixture for each
given training seed, and
writes one JSON file. Per seed it holds both medians, both divergence
rates, the paired wins, the criterion-6 verdict, how the curriculum
stopped and what it cost; the file also records the build that produced
the numbers. It is evidence next to the gate, not a replacement for it.

One to two minutes per seed on one CPU core:

    PYTHONPATH=src python scripts/run_directional_seeds.py
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

from l2okit.config import build_config
from l2okit.evaluation import EvalConfig, run_eval
from l2okit.experiments import train

# Settings of the directional_experiment fixture in tests/test_acceptance.py:
# the `l2okit train` flags of its cl-il run (the README flagship; the other
# run is `--mode vanilla`) and its eval.
CL_IL_FLAGS = {"mode": "cl-il", "ladder": (20, 40, 100), "n_period": 3,
               "t_period": 25, "epochs": 600}
N_EVAL = 500
EVAL_SEEDS = tuple(range(10))
LOG_EVERY = 10
MIN_PAIRED_WINS = 7


def directional(seed: int) -> dict:
    """The fixture's experiment and criterion 6's checks at one seed."""
    cfg_v = build_config(flag_values={"mode": "vanilla", "seed": seed})
    vanilla = train(cfg_v)
    cl_il = train(build_config(flag_values={**CL_IL_FLAGS, "seed": seed}))
    result = cl_il.curriculum

    ec = EvalConfig(optimizee=cfg_v.optimizee_spec(), n_eval=N_EVAL,
                    seeds=EVAL_SEEDS, log_every=LOG_EVERY)
    rv, rc = run_eval(vanilla.phi, ec), run_eval(cl_il.phi, ec)
    fv, fc = rv.final_losses(), rc.final_losses()
    wins = sum(fc[s] < fv[s] for s in fv)
    return {
        "seed": seed,
        "median_cl_il": rc.final_median,
        "median_vanilla": rv.final_median,
        "divergence_cl_il": rc.divergence_rate,
        "divergence_vanilla": rv.divergence_rate,
        "paired_wins": wins,
        "criterion_6": bool(rc.final_median < rv.final_median
                            and rc.divergence_rate <= rv.divergence_rate
                            and wins >= MIN_PAIRED_WINS),
        "stopped_by": result.stopped_by,
        "total_epochs": result.total_epochs,
        "best_stage": result.best_stage,
        "train_iterations": result.train_iterations(),
    }


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


def build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": _openblas_core(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(8)),
                    help="training seeds (default 0..7)")
    ap.add_argument("--out", default="results/directional_seeds.json")
    args = ap.parse_args()

    rows = []
    for seed in args.seeds:
        t0 = time.time()
        row = directional(seed)
        rows.append(row)
        print(f"seed {seed}: median cl-il {row['median_cl_il']:.4f} vs vanilla "
              f"{row['median_vanilla']:.4f}, paired wins {row['paired_wins']}/10, "
              f"{row['stopped_by']} after {row['total_epochs']} epochs, "
              f"{time.time() - t0:.0f}s", file=sys.stderr)

    out = {"build": build(), "min_paired_wins": MIN_PAIRED_WINS, "seeds": rows}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
