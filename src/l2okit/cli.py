"""Command-line entry point: train / eval / compare / gradcheck.

Every run writes a manifest recording the config hash, master seed and
the sha256 of each artifact, so reruns can be verified byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from functools import partial

from .config import (MODES, PARSERS, PROFILES, ConfigError, RunConfig,
                     build_config, config_hash, parse_config_file,
                     serialize_config)
from .evaluation import (COMPARE_COLUMNS, EvalConfig, EvalReport, compare,
                         run_eval, write_curves_csv, write_summary_csv)
from .experiments import (train, write_epoch_csv, write_events_csv,
                          write_trace_csv)
from .model import load_checkpoint, save_checkpoint
from .teachers import TeacherKind


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_text(text: str, path) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_run(cfg: RunConfig, artifacts: dict) -> None:
    """Create cfg.out and write config.txt and each artifact, given as
    {file name: write(path)}; manifest.json hashes exactly those files."""
    artifacts = {"config.txt": partial(_write_text, serialize_config(cfg)),
                 **artifacts}
    os.makedirs(cfg.out, exist_ok=True)
    for name, write in artifacts.items():
        write(os.path.join(cfg.out, name))
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "artifacts": {name: _sha256(os.path.join(cfg.out, name))
                      for name in sorted(artifacts)},
    }
    _write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                os.path.join(cfg.out, "manifest.json"))


def cmd_train(cfg: RunConfig) -> int:
    run = train(cfg)
    artifacts = {"checkpoint.l2o": partial(save_checkpoint, run.phi),
                 "epochs.csv": partial(write_epoch_csv, run.epoch_log),
                 "events.csv": partial(write_events_csv, run.events)}
    if (result := run.curriculum) is not None:
        artifacts["trace.csv"] = partial(write_trace_csv, result.trace)
        artifacts["curriculum.json"] = partial(
            _write_text, json.dumps(result.summary(), sort_keys=True) + "\n")
    _write_run(cfg, artifacts)
    print(f"trained mode={cfg.mode} profile={cfg.profile} -> {cfg.out}")
    return 0


def _eval_optimizer(cfg: RunConfig):
    if cfg.optimizer == "checkpoint":
        if not cfg.checkpoint:
            raise ConfigError("checkpoint required (set checkpoint= or --checkpoint)")
        return load_checkpoint(cfg.checkpoint), "l2o"
    return TeacherKind(cfg.optimizer, lr=cfg.teacher_lr), cfg.optimizer


def cmd_eval(cfg: RunConfig) -> int:
    optimizer, name = _eval_optimizer(cfg)
    if cfg.name:
        name = cfg.name
    ec = EvalConfig(optimizee=cfg.optimizee_spec(), n_eval=cfg.resolved_n_eval(),
                    seeds=cfg.eval_seeds, log_every=cfg.log_every,
                    optimizer_name=name)
    report = run_eval(optimizer, ec)
    _write_run(cfg, {"curves.csv": partial(write_curves_csv, report),
                     "summary.csv": partial(write_summary_csv, [report]),
                     "report.json": partial(_write_text, report.to_json() + "\n")})
    print(f"evaluated {name}: median final loss {report.final_median:.6g}, "
          f"divergence rate {report.divergence_rate:.2f}")
    return 0


def cmd_compare(report_paths: list[str], out_path: str) -> int:
    reports = []
    for path in report_paths:
        with open(path) as fh:
            reports.append(EvalReport.from_json(fh.read(), path))
    table = compare(reports)
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["optimizer", *COMPARE_COLUMNS])
        for row in table["rows"]:
            w.writerow([row["optimizer"], *(repr(row[c]) for c in COMPARE_COLUMNS)])
        w.writerow(["winner", *(table["winners"][c] for c in COMPARE_COLUMNS)])
    for row in table["rows"]:
        print(f"{row['optimizer']}: median_final={row['median_final']:.6g} "
              f"divergence_rate={row['divergence_rate']:.2f} "
              f"log_auc={row['log_auc']:.6g}")
    print(f"winners: {table['winners']}")
    return 0


def cmd_gradcheck() -> int:
    from . import gradchecks

    errors = gradchecks.run_all()
    worst = 0.0
    for name, err in errors.items():
        print(f"{name}: max relative error {err:.3e}")
        worst = max(worst, err)
    if worst >= 1e-4:
        print("FAIL: gradient check above 1e-4", file=sys.stderr)
        return 1
    print("all gradient checks below 1e-4")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    for name, parse in PARSERS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=name, type=parse,
                       choices={"mode": MODES, "profile": PROFILES}.get(name))


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return build_config(file_values, {k: getattr(args, k) for k in PARSERS})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="l2okit")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "eval"):
        p = sub.add_parser(name)
        _add_config_flags(p)

    p = sub.add_parser("compare")
    p.add_argument("reports", nargs="+", help="report.json files from eval runs")
    p.add_argument("--table-out", dest="table_out", default="comparison.csv")

    sub.add_parser("gradcheck")

    args = parser.parse_args(argv)
    try:
        if args.command == "train":
            return cmd_train(_config_from_args(args))
        if args.command == "eval":
            return cmd_eval(_config_from_args(args))
        if args.command == "compare":
            return cmd_compare(args.reports, args.table_out)
        if args.command == "gradcheck":
            return cmd_gradcheck()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
