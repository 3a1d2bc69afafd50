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

from .config import (MODES, PROFILES, ConfigError, RunConfig, build_config,
                     config_hash, parse_config_file, serialize_config,
                     _parse_int_list)
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


def _write_manifest(out_dir, cfg: RunConfig, artifacts: list[str]) -> None:
    manifest = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "artifacts": {name: _sha256(os.path.join(out_dir, name))
                      for name in sorted(artifacts)},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def cmd_train(cfg: RunConfig) -> int:
    run = train(cfg)
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    artifacts = ["config.txt", "checkpoint.l2o", "epochs.csv", "events.csv"]
    if (result := run.curriculum) is not None:
        write_trace_csv(result.trace, os.path.join(out_dir, "trace.csv"))
        with open(os.path.join(out_dir, "curriculum.json"), "w") as fh:
            json.dump({"stopped_by": result.stopped_by,
                       "best_stage": result.best_stage,
                       "total_epochs": result.total_epochs,
                       "train_iterations": result.train_iterations()},
                      fh, sort_keys=True)
            fh.write("\n")
        artifacts += ["trace.csv", "curriculum.json"]

    save_checkpoint(run.phi, os.path.join(out_dir, "checkpoint.l2o"))
    write_epoch_csv(run.epoch_log, os.path.join(out_dir, "epochs.csv"))
    write_events_csv(run.events, os.path.join(out_dir, "events.csv"))
    _write_manifest(out_dir, cfg, artifacts)
    print(f"trained mode={cfg.mode} profile={cfg.profile} -> {out_dir}")
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
    out_dir = cfg.out
    os.makedirs(out_dir, exist_ok=True)
    write_curves_csv(report, os.path.join(out_dir, "curves.csv"))
    write_summary_csv([report], os.path.join(out_dir, "summary.csv"))
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(report.to_json())
        fh.write("\n")
    with open(os.path.join(out_dir, "config.txt"), "w") as fh:
        fh.write(serialize_config(cfg))
    _write_manifest(out_dir, cfg,
                    ["config.txt", "curves.csv", "summary.csv", "report.json"])
    print(f"evaluated {name}: median final loss {report.final_median:.6g}, "
          f"divergence rate {report.divergence_rate:.2f}")
    return 0


def cmd_compare(report_paths: list[str], out_path: str) -> int:
    reports = []
    for path in report_paths:
        with open(path) as fh:
            reports.append(EvalReport.from_json(fh.read()))
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
    p.add_argument("--mode", choices=MODES)
    p.add_argument("--profile", choices=PROFILES)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--family")
    p.add_argument("--hidden", type=int)
    p.add_argument("--n-train", dest="n_train", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--meta-lr", dest="meta_lr", type=float)
    p.add_argument("--segment", type=int)
    p.add_argument("--ladder", type=_parse_int_list)
    p.add_argument("--n-period", dest="n_period", type=int)
    p.add_argument("--t-period", dest="t_period", type=int)
    p.add_argument("--r", type=float)
    p.add_argument("--teacher-lr", dest="teacher_lr", type=float)
    p.add_argument("--anneal-epochs", dest="anneal_epochs", type=int)
    p.add_argument("--n-eval", dest="n_eval", type=int)
    p.add_argument("--eval-seeds", dest="eval_seeds", type=_parse_int_list)
    p.add_argument("--log-every", dest="log_every", type=int)
    p.add_argument("--checkpoint")
    p.add_argument("--optimizer")
    p.add_argument("--name", help="report label for eval runs")
    p.add_argument("--dataset-root", dest="dataset_root")


def _config_from_args(args) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config", "reports", "table_out")}
    return build_config(file_values, flag_values)


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
