"""The benchmark's workloads, the layer list it traces, and the build
fingerprint its reference hashes belong to.

Each workload turns a seed into inputs and a *unit*: one call of a public
l2okit entry point whose artifacts are hashed. A run repeats the unit
with the same inputs, so every unit after the first must reproduce the
first one's bytes.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from l2okit import (autodiff, cli, evaluation, imitation, metatrain, model,
                    optimizees, teachers)

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
CHECKPOINT_PATH = BENCH_DIR / "checkpoint.l2o"

# The README flagship, except that the epoch budget (600 there) binds at
# 75 = n_period * t_period: every seed then trains the same three
# periods at horizon 20, so the work per unit does not depend on the
# seed. With the full budget the curriculum stops anywhere from 300 to
# 600 epochs depending on the seed (29 s to 54 s).
TRAIN_ARGS = ["train", "--mode", "cl-il", "--family", "tiny_mlp",
              "--ladder", "20,40,100", "--n-period", "3", "--t-period", "25",
              "--epochs", "75"]
TRAIN_ARTIFACTS = ("checkpoint.l2o", "epochs.csv", "trace.csv", "curriculum.json")

# The flagship itself at seed 6; ``record_reference.py --checkpoint``
# reruns it to produce the fixed eval checkpoint.
FLAGSHIP_ARGS = TRAIN_ARGS[:-1] + ["600", "--seed", "6"]

EVAL_SEEDS_PER_UNIT = 10


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def fingerprint() -> dict:
    """The build that produced a run's bytes; ``cpus`` is informational
    and not part of the comparison (every run is single-threaded)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "cpus": os.cpu_count(),
    }


def same_build(a: dict, b: dict) -> bool:
    keys = ("python", "numpy", "scipy", "blas", "blas_threads")
    return all(a.get(k) == b.get(k) for k in keys)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass
class UnitResult:
    digest: dict[str, str]      # artifact name -> sha256
    result_loss: float
    ratios: dict[str, float]    # per-layer ratios read from the artifacts


class TrainWorkload:
    """``l2okit train`` through ``cli.main``; tape-bound meta-training."""

    def __init__(self, seed: int, out_dir: Path):
        self.argv = TRAIN_ARGS + ["--seed", str(seed), "--out", str(out_dir)]
        self.out_dir = out_dir

    def run_unit(self) -> UnitResult:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"l2okit train exited with {rc}")
        digest = {a: sha256_file(self.out_dir / a) for a in TRAIN_ARTIFACTS}
        with open(self.out_dir / "trace.csv", newline="") as fh:
            periods = [r for r in csv.DictReader(fh) if r["kind"] == "period"]
        improved = sum(int(r["improved"]) for r in periods)
        return UnitResult(
            digest=digest,
            result_loss=min(float(r["l_min"]) for r in periods),
            ratios={"curriculum.periods_improved_ratio": improved / len(periods)})


class EvalWorkload:
    """``run_eval`` of the fixed checkpoint, then ``to_json`` and
    ``write_curves_csv``. ``write_summary_csv`` is left out: it calls
    ``EvalReport.log_auc``, which fails on numpy without ``np.trapz``."""

    def __init__(self, mlp_hidden: int, n_eval: int, seed: int, out_dir: Path):
        self.phi = load_checkpoint_verified()
        seeds = tuple(EVAL_SEEDS_PER_UNIT * seed + i for i in range(EVAL_SEEDS_PER_UNIT))
        self.cfg = evaluation.EvalConfig(
            optimizee=optimizees.OptimizeeSpec(family="tiny_mlp", hidden=mlp_hidden),
            n_eval=n_eval, seeds=seeds)
        self.out_dir = out_dir

    def run_unit(self) -> UnitResult:
        report = evaluation.run_eval(self.phi, self.cfg)
        text = report.to_json()
        curves = self.out_dir / "curves.csv"
        evaluation.write_curves_csv(report, curves)
        (self.out_dir / "report.json").write_text(text + "\n")
        return UnitResult(
            digest={"report.json": sha256_bytes(text.encode()),
                    "curves.csv": sha256_file(curves)},
            result_loss=report.final_median,
            ratios={"evaluation.divergence_rate": report.divergence_rate})


def load_checkpoint_verified():
    want = load_reference()["checkpoint_sha256"]
    got = sha256_file(CHECKPOINT_PATH)
    if got != want:
        raise RuntimeError(f"{CHECKPOINT_PATH.name}: sha256 {got} != {want}")
    return model.load_checkpoint(CHECKPOINT_PATH)


WORKLOADS = {
    "train-cl-il": TrainWorkload,
    # dim 42: per-call overhead dominates each step
    "eval-tiny": lambda seed, out: EvalWorkload(8, 500, seed, out),
    # dim 1,002: array work in the LSTM step dominates each step
    "eval-wide": lambda seed, out: EvalWorkload(200, 100, seed, out),
}
# The README's training seed; the CLI's default eval seeds 0..9.
DEFAULT_SEEDS = {"train-cl-il": 6, "eval-tiny": 0, "eval-wide": 0}


def prepare(name: str, seed: int, out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, out_dir)


# Traced layers: (span name, owner, attribute, observe). Span names are
# <module>.<function>; methods keep their class name.
def layer_targets():
    targets = [
        ("autodiff.backward", autodiff, "backward", lambda a, r: len(a[0])),
        ("model.l2o_step_tape", model, "l2o_step_tape", None),
        ("model.l2o_step_np", model, "l2o_step_np", None),
        ("model.preprocess", model, "preprocess", None),
        ("metatrain.segment_loss_and_grads", metatrain, "segment_loss_and_grads",
         lambda a, r: 0.0 if r[4] else 1.0),
        ("metatrain.MetaAdam.step", metatrain.MetaAdam, "step", None),
        ("metatrain.validate", metatrain, "validate", None),
        ("metatrain.rollout", metatrain, "rollout", None),
        ("imitation.teacher_trajectory", imitation, "teacher_trajectory", None),
        ("imitation.imitation_loss_and_grads", imitation, "imitation_loss_and_grads", None),
        ("teachers.teacher_step", teachers, "teacher_step", None),
        ("evaluation.run_eval", evaluation, "run_eval", None),
    ]
    return targets + [(f"optimizees.{attr}", cls, attr, None)
                      for cls, attr in optimizee_methods(("loss_and_grad", "loss_on_tape"))]


def optimizee_methods(attrs):
    """(class, attribute) for every optimizee class defining one of attrs."""
    return [(cls, attr) for cls in vars(optimizees).values()
            if isinstance(cls, type) and cls.__module__ == optimizees.__name__
            for attr in attrs if attr in vars(cls)]
