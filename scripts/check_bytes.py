"""Byte check of a change against its parent on a fixed set of l2okit runs.

From the repository root:

    python3 scripts/check_bytes.py --parent HEAD

Both sides are exported as ``bench_pairs.py`` exports them: the parent
with ``git archive``, the change as a copy of the working tree's tracked
and unignored files. Each side runs the same commands, with BLAS pinned
to one thread, into the same output directory ``.bench_build/bytes/out``
(run configs record their paths), which is then moved to
``.bench_build/bytes/<side>``:

- ``l2okit train`` for each of the six modes on ``tiny_mlp`` at seed 3,
  40 epochs, a 10,20,40 ladder and one 5-epoch period;
- ``l2okit train --mode il`` on ``quadratic`` with every episode a
  teacher's and a teacher lr of 1e160, so that its ``events.csv`` holds
  ``teacher-divergence`` rows;
- ``l2okit train --mode il`` on ``tiny_mlp`` over 20 epochs at horizon 20
  with a 7-step segment, so that meta and imitation episodes both end in
  a segment shorter than the others (7, 7 and 6 steps);
- ``l2okit train --mode cl`` on ``quadratic`` at dimension 200 with three
  validation instances, which reach ``POOL_MIN_DIM`` and so validate one
  per thread;
- ``l2okit train --mode cl-il`` on ``logistic_blobs`` with 500 points, so
  that each pass over the data ends in a 116-point batch after three of
  128;
- ``l2okit train --mode cl-il`` on ``tiny_mlp`` at L2O hidden size 7, so
  that most of phi's tensors start at offsets in ``phi.flat`` that are
  not 64-byte aligned, and an ``l2okit eval`` of the checkpoint it
  writes on a 200-hidden-unit ``tiny_mlp`` (dimension 1,002) over 100
  steps;
- ``l2okit eval --family tiny_mlp --n-eval 500`` of
  ``benchmark/checkpoint.l2o`` (this checkout's copy, for both sides), of
  ``--optimizer adam`` and of ``--optimizer adagrad``; each steps its ten
  seeds (dimension 42) in one stack of ten;
- ``l2okit eval --family tiny_mlp --mlp-hidden 200 --optimizer adam``
  over 100 steps, a teacher eval whose ten seeds (dimension 1,002) are
  each sampled and stepped alone, one per thread;
- ``l2okit eval --family quadratic --dim 10 --optimizer sgd`` at a
  teacher lr of 0.38, whose ten seeds step as one stack of 100
  coordinates, in which seed 6 diverges at step 437 and steps on zero
  gradients from then on;
- ``l2okit eval --family quadratic --dim 10 --init-std 1e153`` of
  ``benchmark/checkpoint.l2o`` over 200 steps, in whose L2O stack seed 4
  diverges at step 0 and the other nine seeds run every step;
- ``l2okit gradcheck``, which writes only to stdout.

Each command's stdout is kept next to its artifacts, 119 files on each
side in all. The script prints every file whose sha256 differs between
the sides, or that only one side wrote, and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BYTES_DIR = ROOT / ".bench_build" / "bytes"
MODES = ("vanilla", "aug", "cl", "il", "cl-il", "self-improving")
TRAIN_ARGS = ["--family", "tiny_mlp", "--seed", "3", "--epochs", "40", "--n-train", "20",
              "--ladder", "10,20,40", "--n-period", "1", "--t-period", "5",
              "--anneal-epochs", "20"]
EVAL_ARGS = ["eval", "--family", "tiny_mlp", "--n-eval", "500"]
CLI = "import sys; from l2okit.cli import main; sys.exit(main(sys.argv[1:]))"
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def commands(out: Path) -> dict[str, list[str]]:
    """Run name -> l2okit arguments, in run order; train and eval runs
    write under out."""
    runs = {f"train-{mode}": ["train", "--mode", mode, *TRAIN_ARGS]
            for mode in MODES}
    runs["train-il-diverging"] = ["train", "--mode", "il", "--family", "quadratic",
                                  "--epochs", "2", "--n-train", "4", "--r", "1.0",
                                  "--teacher-lr", "1e160", "--seed", "5"]
    runs["train-il-segment-7"] = ["train", "--mode", "il", "--family", "tiny_mlp",
                                  "--seed", "3", "--epochs", "20", "--n-train", "20",
                                  "--segment", "7", "--r", "0.5"]
    runs["train-cl-quadratic-200"] = ["train", "--mode", "cl", "--family", "quadratic",
                                      "--dim", "200", "--n-val-instances", "3",
                                      "--seed", "3", "--epochs", "20", "--n-train", "10",
                                      "--ladder", "10,20", "--n-period", "1",
                                      "--t-period", "5"]
    runs["train-cl-il-blobs-500"] = ["train", "--mode", "cl-il",
                                     "--family", "logistic_blobs", "--n-points", "500",
                                     "--seed", "3", "--epochs", "40", "--n-train", "20",
                                     "--ladder", "10,20,40", "--n-period", "1",
                                     "--t-period", "5"]
    runs["train-cl-il-hidden-7"] = ["train", "--mode", "cl-il", "--family", "tiny_mlp",
                                    "--hidden", "7", "--seed", "3", "--epochs", "40",
                                    "--n-train", "20", "--ladder", "10,20,40",
                                    "--n-period", "1", "--t-period", "5"]
    runs["eval-hidden-7-wide"] = ["eval", "--family", "tiny_mlp", "--mlp-hidden", "200",
                                  "--n-eval", "100", "--checkpoint",
                                  str(out / "train-cl-il-hidden-7" / "checkpoint.l2o")]
    runs["eval-checkpoint"] = [*EVAL_ARGS, "--checkpoint",
                               str(ROOT / "benchmark" / "checkpoint.l2o")]
    runs["eval-adam"] = [*EVAL_ARGS, "--optimizer", "adam"]
    runs["eval-adagrad"] = [*EVAL_ARGS, "--optimizer", "adagrad"]
    runs["eval-adam-wide"] = ["eval", "--family", "tiny_mlp", "--mlp-hidden", "200",
                              "--optimizer", "adam", "--n-eval", "100"]
    runs["eval-sgd-one-diverges"] = ["eval", "--family", "quadratic", "--dim", "10",
                                     "--optimizer", "sgd", "--teacher-lr", "0.38",
                                     "--n-eval", "500"]
    runs["eval-l2o-one-diverges"] = ["eval", "--family", "quadratic", "--dim", "10",
                                     "--init-std", "1e153", "--checkpoint",
                                     str(ROOT / "benchmark" / "checkpoint.l2o"),
                                     "--n-eval", "200"]
    runs = {name: [*args, "--out", str(out / name)] for name, args in runs.items()}
    return {**runs, "gradcheck": ["gradcheck"]}


def run_side(checkout: Path, out: Path) -> None:
    """Every command of the check from checkout's sources, into out."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
           **dict.fromkeys(PINNED, "1")}
    for name, args in commands(out).items():
        done = subprocess.run([sys.executable, "-c", CLI, *args], cwd=checkout,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise RuntimeError(f"{checkout.name}: {name} exited with "
                               f"{done.returncode}:\n{done.stderr}")
        (out / f"{name}.stdout").write_text(done.stdout)


def sha256_tree(root: Path) -> dict[str, str]:
    """Relative path -> sha256 of every file under root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in root.rglob("*") if p.is_file()}


def differing_files(a: Path, b: Path) -> list[str]:
    """Sorted relative paths of the files whose sha256 differs between the
    trees a and b, or that only one of them holds."""
    ha, hb = sha256_tree(a), sha256_tree(b)
    return sorted(name for name in ha.keys() | hb.keys() if ha.get(name) != hb.get(name))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", default="HEAD", help="git revision of the parent")
    args = p.parse_args(argv)
    from bench_pairs import WORKTREE, export

    out = BYTES_DIR / "out"
    results = {}
    for side, rev in (("parent", args.parent), ("change", WORKTREE)):
        checkout, label = export(rev, f"bytes-{side}")
        try:
            run_side(checkout, out)
        except RuntimeError as err:
            print(f"{side} ({label}): {err}", file=sys.stderr)
            return 1
        results[side] = BYTES_DIR / side
        shutil.rmtree(results[side], ignore_errors=True)
        out.rename(results[side])
        print(f"{side} ({label}): {sum(1 for f in results[side].rglob('*') if f.is_file())} "
              f"files in {results[side]}")
    differ = differing_files(results["parent"], results["change"])
    for name in differ:
        print(f"differs: {name}")
    print(f"{len(differ)} files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
