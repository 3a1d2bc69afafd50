#!/usr/bin/env python3
"""Criterion 6 over several training seeds.

tests/test_acceptance.py::test_criterion_6_directional_reproduction
decides on one training seed (EXP_SEED) whether curriculum+imitation
(cl-il) beats vanilla training on tiny_mlp at a 500-step horizon. That
outcome moves with float rounding in the numpy/scipy/BLAS build. This
script reruns the same experiment, with the constants of the test's
`directional_experiment` fixture, for each given training seed, and
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
from functools import partial

import numpy as np
import scipy

from l2okit.curriculum import CurriculumConfig
from l2okit.evaluation import EvalConfig, run_eval
from l2okit.experiments import train_curriculum, train_fixed
from l2okit.imitation import ImitationConfig, il_epoch
from l2okit.metatrain import MetaLossSpec, TrainConfig, train_epoch
from l2okit.model import init_l2o
from l2okit.optimizees import OptimizeeSpec, sample_instance
from l2okit.seeding import derive_seed
from l2okit.teachers import default_ensemble

# Constants of the directional_experiment fixture in tests/test_acceptance.py.
TINY = OptimizeeSpec(family="tiny_mlp")
VANILLA_EPOCHS = 300
VANILLA_HORIZON = 20
CURRICULUM = CurriculumConfig(ladder=(20, 40, 100), n_period=3, t_period=25)
IMITATION = ImitationConfig(r=0.3, teachers=default_ensemble(lr=0.01))
CL_IL_EPOCHS = 600
SEGMENT = 20
N_EVAL = 500
EVAL_SEEDS = tuple(range(10))
LOG_EVERY = 10
MIN_PAIRED_WINS = 7


def directional(seed: int) -> dict:
    """The fixture's experiment and criterion 6's checks at one seed."""
    inst = sample_instance(TINY, derive_seed(seed, "train-inst"))
    phi_v = init_l2o(derive_seed(seed, "init-phi"))
    tc_v = TrainConfig(master_seed=seed, epochs=VANILLA_EPOCHS)
    train_fixed(phi_v, partial(train_epoch, inst=inst, tc=tc_v), tc_v,
                MetaLossSpec(horizon=VANILLA_HORIZON, segment=VANILLA_HORIZON))

    inst2 = sample_instance(TINY, derive_seed(seed, "train-inst"))
    phi_c = init_l2o(derive_seed(seed, "init-phi"))
    tc_c = TrainConfig(master_seed=seed, epochs=CL_IL_EPOCHS)
    result = train_curriculum(phi_c, partial(il_epoch, inst=inst2, tc=tc_c, ic=IMITATION),
                              TINY, CURRICULUM, tc_c, segment=SEGMENT)

    def eval_cfg(name):
        return EvalConfig(optimizee=TINY, n_eval=N_EVAL, seeds=EVAL_SEEDS,
                          log_every=LOG_EVERY, optimizer_name=name)

    rv = run_eval(phi_v, eval_cfg("vanilla"))
    rc = run_eval(result.best_phi, eval_cfg("cl-il"))
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
