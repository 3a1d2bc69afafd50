"""Record reference.json: the build fingerprint, the eval checkpoint's
sha256, and each workload's artifact sha256 at its default seed.

From the repository root:

    python3 benchmark/record_reference.py [--checkpoint]

``--checkpoint`` first regenerates checkpoint.l2o by running the README
flagship (``l2okit train --mode cl-il ... --epochs 600 --seed 6``, about
30 s). Rerun this script only when the program's bytes are meant to
change, and say so in the change that commits the new file.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from l2okit import cli  # noqa: E402

OUT = ROOT / ".bench_build" / "benchmark" / "reference"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--checkpoint", action="store_true",
                   help="retrain the flagship and replace checkpoint.l2o")
    args = p.parse_args()
    shutil.rmtree(OUT, ignore_errors=True)

    if args.checkpoint:
        flagship = OUT / "flagship"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(workloads.FLAGSHIP_ARGS + ["--out", str(flagship)])
        if rc != 0:
            print(f"error: flagship training exited with {rc}", file=sys.stderr)
            return 1
        shutil.copyfile(flagship / "checkpoint.l2o", workloads.CHECKPOINT_PATH)

    ref = {"fingerprint": workloads.fingerprint(),
           "checkpoint_sha256": workloads.sha256_file(workloads.CHECKPOINT_PATH),
           "checkpoint_command": ["l2okit"] + workloads.FLAGSHIP_ARGS,
           "workloads": {}}
    # the eval workloads check checkpoint.l2o against this file at set-up
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    for name, seed in workloads.DEFAULT_SEEDS.items():
        unit = workloads.prepare(name, seed, OUT / name).run_unit()
        ref["workloads"][name] = {"seed": seed, "sha256": unit.digest,
                                  "result_loss": unit.result_loss}
        print(f"{name} seed {seed}: result_loss {unit.result_loss!r}")
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
