import argparse
import hashlib
import json
import struct
from dataclasses import fields

import numpy as np
import pytest

import idxwrite
from l2okit import experiments
from l2okit.cli import _add_config_flags, _config_from_args, main
from l2okit.config import (ConfigError, PAPER_LADDER, RunConfig, build_config,
                           config_hash, parse_config_file, serialize_config)
from l2okit.model import init_l2o, save_checkpoint


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "mode = cl-il\n"
        "seed = 7\n"
        "meta_lr = 0.002   # inline comment\n"
        "ladder = 20,40,100\n"
        "\n")
    values = parse_config_file(path)
    assert values == {"mode": "cl-il", "seed": 7, "meta_lr": 0.002,
                      "ladder": (20, 40, 100)}


def test_parse_rejects_unknown_key_with_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match=r":2: unknown key 'bogus'"):
        parse_config_file(path)


def test_parse_rejects_bad_value_with_line_number(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = banana\n")
    with pytest.raises(ConfigError, match=r":1: bad value 'banana'"):
        parse_config_file(path)


def test_parse_rejects_missing_equals(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_file(path)


def test_flags_override_file_values():
    cfg = build_config({"seed": 1, "mode": "vanilla"},
                       {"seed": 9, "epochs": None})
    assert cfg.seed == 9
    assert cfg.mode == "vanilla"
    assert cfg.epochs is None


def test_build_rejects_invalid_values():
    with pytest.raises(ConfigError, match="n_period must be >= 1"):
        build_config({"n_period": 0})
    with pytest.raises(ConfigError, match="mode must be one of"):
        build_config({"mode": "nope"})
    with pytest.raises(ConfigError, match="r must be in"):
        build_config({"r": 1.5})
    with pytest.raises(ConfigError, match="ladder must be non-empty"):
        build_config({"ladder": ()})


def test_profile_defaults():
    desk = build_config({"mode": "cl"})
    paper = build_config({"mode": "cl", "profile": "paper"})
    assert desk.resolved_ladder() == (20, 40, 100, 200)
    assert paper.resolved_ladder() == PAPER_LADDER
    assert paper.curriculum().t_period == 100
    assert paper.curriculum().n_period == 3
    assert desk.curriculum().t_period == 25
    assert desk.resolved_n_train() == 20
    assert paper.resolved_n_train() == 100
    aug = build_config({"mode": "aug"})
    assert aug.resolved_n_train() == 100
    assert aug.resolved_epochs() == 500
    assert desk.resolved_n_eval() == 2000


def test_serialize_roundtrip(tmp_path):
    cfg = build_config({"mode": "il", "seed": 3, "ladder": (10, 30),
                        "meta_lr": 0.0005})
    path = tmp_path / "cfg.txt"
    path.write_text(serialize_config(cfg))
    back = build_config(parse_config_file(path))
    assert back == cfg
    assert config_hash(back) == config_hash(cfg)


# every field away from its default, and valid together
NON_DEFAULT = RunConfig(
    mode="cl-il", profile="paper", seed=7, out="elsewhere",
    family="logistic_blobs", hidden=12, preprocess_p=5.0, out_scale=0.02,
    n_train=30, epochs=9, meta_lr=0.002, segment=10, n_val_instances=3,
    divergence_penalty=1e5, ladder=(10, 30), n_period=2, t_period=4, r=0.5,
    teacher_lr=0.05, anneal_epochs=7, si_start_prob=0.25, dim=6, features=3,
    mlp_hidden=4, n_points=64, batch_size=16, init_std=0.05,
    dataset_root="data", n_eval=40, eval_seeds=(3, 4), log_every=5,
    checkpoint="ck.l2o", optimizer="adam", name="label")


def test_every_config_key_is_a_flag(tmp_path, capsys):
    assert all(getattr(NON_DEFAULT, f.name) != f.default for f in fields(RunConfig))
    lines = serialize_config(NON_DEFAULT).splitlines() + [f"out = {NON_DEFAULT.out}"]
    argv = []
    for line in lines:
        key, value = line.split(" = ")
        argv += [f"--{key.replace('_', '-')}", value]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    parser = argparse.ArgumentParser()
    _add_config_flags(parser)
    assert build_config(parse_config_file(path)) == NON_DEFAULT
    assert _config_from_args(parser.parse_args(argv)) == NON_DEFAULT
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    help_text = capsys.readouterr().out
    for f in fields(RunConfig):
        assert f"--{f.name.replace('_', '-')} " in help_text, f.name


def test_config_hash_sensitivity():
    a = build_config({"seed": 1})
    b = build_config({"seed": 2})
    assert config_hash(a) != config_hash(b)


TRAIN_ARGS = ["--mode", "vanilla", "--family", "quadratic", "--epochs", "4",
              "--n-train", "6", "--seed", "5"]


def run_train(out_dir, extra=()):
    rc = main(["train", *TRAIN_ARGS, *extra, "--out", str(out_dir)])
    assert rc == 0


def test_train_writes_expected_artifacts(tmp_path, capsys):
    out = tmp_path / "run1"
    run_train(out)
    for name in ("config.txt", "checkpoint.l2o", "epochs.csv", "manifest.json"):
        assert (out / name).exists()
    header = (out / "epochs.csv").read_text().splitlines()[0]
    assert header == "epoch,kind,loss,horizon"


def test_train_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_train(a)
    run_train(b)
    assert (a / "checkpoint.l2o").read_bytes() == (b / "checkpoint.l2o").read_bytes()
    assert (a / "epochs.csv").read_bytes() == (b / "epochs.csv").read_bytes()


def test_manifest_does_not_depend_on_the_output_directory(tmp_path):
    a, b = tmp_path / "a", tmp_path / "elsewhere" / "b"
    run_train(a)
    run_train(b)
    assert sha256(a / "manifest.json") == sha256(b / "manifest.json")
    assert (a / "config.txt").read_bytes() == (b / "config.txt").read_bytes()


def test_manifest_hashes_match_artifacts(tmp_path):
    out = tmp_path / "run"
    run_train(out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert set(manifest["artifacts"]) == {"config.txt", "checkpoint.l2o",
                                          "epochs.csv", "events.csv"}
    for name, digest in manifest["artifacts"].items():
        assert digest == sha256(out / name)
    assert (out / "events.csv").read_text() == "kind,where,detail\n"


def test_forced_divergence_is_written_to_events(tmp_path):
    # every episode imitates a teacher whose first step blows the quadratic up
    out = tmp_path / "diverge"
    rc = main(["train", "--mode", "il", "--family", "quadratic", "--epochs", "2",
               "--n-train", "4", "--r", "1.0", "--teacher-lr", "1e160",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    rows = (out / "events.csv").read_text().splitlines()
    assert rows[0] == "kind,where,detail"
    fields = [row.split(",") for row in rows[1:]]
    assert [f[:2] for f in fields] == [["teacher-divergence", "0"],
                                      ["teacher-divergence", "1"]]
    assert all(f[2] in ("sgd", "adam", "adagrad", "rmsprop") for f in fields)


def test_curriculum_train_writes_trace(tmp_path):
    out = tmp_path / "cl"
    rc = main(["train", "--mode", "cl", "--family", "quadratic",
               "--ladder", "4,8", "--n-period", "1", "--t-period", "2",
               "--epochs", "40", "--seed", "1", "--out", str(out)])
    assert rc == 0
    assert (out / "trace.csv").exists()
    info = json.loads((out / "curriculum.json").read_text())
    assert info["stopped_by"] in ("stop", "exhausted", "budget")
    assert info["train_iterations"] > 0


@pytest.mark.parametrize("mode, base, artifacts", [
    ("cl-il", "cl", ("checkpoint.l2o", "epochs.csv", "trace.csv",
                     "curriculum.json", "events.csv")),
    ("il", "vanilla", ("checkpoint.l2o", "epochs.csv", "events.csv")),
])
def test_imitation_mode_at_r_zero_writes_base_mode_bytes(tmp_path, mode, base,
                                                         artifacts):
    # at r = 0 no episode imitates a teacher, so the imitation mode must
    # run exactly the epochs of its base mode
    common = ["train", "--family", "quadratic", "--seed", "4", "--epochs", "30",
              "--ladder", "4,8,16", "--n-period", "1", "--t-period", "4"]
    a, b = tmp_path / mode, tmp_path / base
    assert main([*common, "--mode", mode, "--r", "0", "--out", str(a)]) == 0
    assert main([*common, "--mode", base, "--out", str(b)]) == 0
    for name in artifacts:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def _training_started(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("flags, config_line, message", [
    (["--mode", "self-improving", "--anneal-epochs", "0"], "",
     "anneal_epochs must be >= 1"),
    (["--mode", "self-improving"], "si_start_prob = 0.5\n",
     "si_start_prob must be in"),
    (["--mode", "cl", "--ladder", "4,8"], "n_val_instances = 0\n",
     "n_val_instances must be >= 1"),
    (["--epochs", "0"], "", "epochs must be >= 1"),
    (["--epochs", "-5"], "", "epochs must be >= 1"),
    (["--mode", "cl"], "ladder =\n", "ladder must be non-empty"),
    (["--meta-lr", "0"], "", "meta_lr must be > 0"),
    (["--r", "1.5"], "", "r must be in [0, 1]"),
    (["--meta-lr", "nan"], "", "meta_lr must be finite, got nan"),
    (["--out-scale", "inf"], "", "out_scale must be finite, got inf"),
    (["--preprocess-p", "0"], "", "preprocess_p must be > 0"),
    (["--mode", "cl", "--n-train", "0"], "", "n_train must be >= 1"),
    (["--mode", "self-improving", "--si-start-prob", "-0.1"], "",
     "si_start_prob must be in"),
    (["--mode", "self-improving", "--si-start-prob", "0.34"], "",   # 3 * 0.34 > 1
     "si_start_prob must be in"),
], ids=["anneal-epochs-0", "si-start-prob-0.5", "n-val-instances-0",
        "epochs-0", "epochs-negative", "ladder-empty", "meta-lr-0", "r-1.5",
        "meta-lr-nan", "out-scale-inf", "preprocess-p-0", "n-train-0",
        "si-start-prob-negative", "si-start-prob-0.34"])
def test_invalid_training_settings_exit_1_before_any_epoch(tmp_path, capsys,
                                                           monkeypatch, flags,
                                                           config_line, message):
    monkeypatch.setattr(experiments, "train_fixed", _training_started)
    monkeypatch.setattr(experiments, "train_curriculum", _training_started)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line)
    out = tmp_path / "run"
    rc = main(["train", "--config", str(cfg), "--family", "quadratic", *flags,
               "--out", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("family, config_line, message", [
    ("quadratic", "dim = 0", "optimizee dim must be >= 1"),
    ("logistic_blobs", "features = 0", "optimizee features must be >= 1"),
    ("tiny_mlp", "mlp_hidden = 0", "optimizee hidden must be >= 1"),
    ("tiny_mlp", "n_points = 0", "optimizee n_points must be >= 1"),
], ids=["dim-0", "features-0", "mlp-hidden-0", "n-points-0"])
@pytest.mark.parametrize("command", ["train", "eval"])
def test_optimizee_sizes_below_1_exit_1(tmp_path, capsys, monkeypatch, command,
                                        family, config_line, message):
    monkeypatch.setattr(experiments, "train_fixed", _training_started)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_line + "\n")
    out = tmp_path / "run"
    rc = main([command, "--config", str(cfg), "--family", family, "--optimizer",
               "adam", "--n-eval", "5", "--eval-seeds", "0", "--out", str(out)])
    assert rc == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_eval_requires_checkpoint(tmp_path, capsys):
    rc = main(["eval", "--family", "quadratic", "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "checkpoint required" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("cut", [4, 30, 60])  # header, wx1's shape, wx1's data
def test_eval_rejects_truncated_checkpoint(tmp_path, capsys, cut):
    ckpt, out = tmp_path / "cut.l2o", tmp_path / "e"
    save_checkpoint(init_l2o(0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:cut])
    rc = main(["eval", "--family", "quadratic", "--checkpoint", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert f"error: {ckpt}: truncated checkpoint" in capsys.readouterr().err
    assert not out.exists()


# each patch is (offset, format, values): hidden follows the 4-byte magic,
# then preprocess_p (offset 12) and out_scale (offset 20); wx1's two dims
# follow the 28-byte header and wx1's ndim
@pytest.mark.parametrize("patches", [
    [(36, "<qq", (2 ** 31, 2 ** 31))],
    [(36, "<qq", (-3, 80))],
    [(4, "<q", (7,))],
    [(4, "<q", (2 ** 60,)), (36, "<qq", (2, 2 ** 62))],
    [(12, "<d", (0.0,))],
    [(12, "<d", (float("nan"),))],
    [(12, "<d", (float("inf"),))],
    [(20, "<d", (float("nan"),))],
], ids=["wx1-dims-overflow", "wx1-dims-negative", "hidden-7", "hidden-2^60",
        "preprocess-p-0", "preprocess-p-nan", "preprocess-p-inf", "out-scale-nan"])
def test_eval_rejects_checkpoint_header_that_does_not_fit_hidden(tmp_path, capsys,
                                                                 patches):
    ckpt, out = tmp_path / "bad.l2o", tmp_path / "e"
    save_checkpoint(init_l2o(0), ckpt)
    data = bytearray(ckpt.read_bytes())
    for offset, fmt, values in patches:
        struct.pack_into(fmt, data, offset, *values)
    ckpt.write_bytes(bytes(data))
    rc = main(["eval", "--family", "quadratic", "--checkpoint", str(ckpt),
               "--out", str(out)])
    assert rc == 1
    assert f"error: {ckpt}: " in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_mnist_images_shorter_than_their_header(tmp_path, capsys):
    images, out = tmp_path / "train-images-idx3-ubyte", tmp_path / "e"
    images.write_bytes(struct.pack(">II", 0x00000803, 300))
    rc = main(["eval", "--family", "mnist_mlp", "--dataset-root", str(tmp_path),
               "--optimizer", "adam", "--n-eval", "5", "--eval-seeds", "0",
               "--out", str(out)])
    assert rc == 1
    assert f"error: {images}: truncated image header" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shape,match", [
    ((0, 4, 4), "no images"),
    ((5, 0, 0), "images of 0 x 0 pixels"),
], ids=["no-images", "0x0-pixels"])
def test_eval_rejects_mnist_images_without_pixels(tmp_path, capsys, shape, match):
    images, out = tmp_path / "train-images-idx3-ubyte", tmp_path / "e"
    idxwrite.write_idx_images(images, np.zeros(shape, dtype=np.uint8))
    idxwrite.write_idx_labels(tmp_path / "train-labels-idx1-ubyte",
                              np.zeros(shape[0], dtype=np.uint8))
    rc = main(["eval", "--family", "mnist_mlp", "--dataset-root", str(tmp_path),
               "--optimizer", "adam", "--n-eval", "5", "--eval-seeds", "0",
               "--out", str(out)])
    assert rc == 1
    assert f"error: {images}: {match}\n" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_empty_ladder(tmp_path, capsys):
    out = tmp_path / "e"
    rc = main(["eval", "--family", "quadratic", "--optimizer", "adam",
               "--ladder", "", "--out", str(out)])
    assert rc == 1
    assert "error: ladder must be non-empty" in capsys.readouterr().err
    assert not out.exists()


def test_eval_and_compare_roundtrip(tmp_path, capsys):
    ea, eb = tmp_path / "adam", tmp_path / "sgd"
    common = ["eval", "--family", "quadratic", "--n-eval", "30",
              "--eval-seeds", "0,1,2", "--log-every", "10"]
    assert main([*common, "--optimizer", "adam", "--out", str(ea)]) == 0
    assert main([*common, "--optimizer", "sgd", "--out", str(eb)]) == 0
    for d in (ea, eb):
        for name in ("curves.csv", "summary.csv", "report.json", "manifest.json"):
            assert (d / name).exists()
    table = tmp_path / "cmp.csv"
    rc = main(["compare", str(ea / "report.json"), str(eb / "report.json"),
               "--table-out", str(table)])
    assert rc == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "optimizer,median_final,divergence_rate,log_auc"
    assert lines[-1].startswith("winner,")


@pytest.mark.parametrize("case", ["run-manifest", "json-list", "extra-key",
                                  "string-median", "bool-rate", "not-json"])
def test_compare_rejects_json_that_is_not_an_eval_report(tmp_path, capsys, case):
    run = tmp_path / "adam"
    assert main(["eval", "--family", "quadratic", "--optimizer", "adam",
                 "--n-eval", "10", "--eval-seeds", "0", "--out", str(run)]) == 0
    bad = tmp_path / "bad.json"
    if case == "run-manifest":
        bad = run / "manifest.json"
    elif case == "json-list":
        bad.write_text("[1]")
    elif case == "not-json":
        bad.write_text("not json")
    else:
        report = json.loads((run / "report.json").read_text())
        change = {"extra-key": {"extra": 1}, "string-median": {"final_median": "abc"},
                  "bool-rate": {"divergence_rate": True}}[case]
        bad.write_text(json.dumps({**report, **change}))
    capsys.readouterr()
    table = tmp_path / "cmp.csv"
    rc = main(["compare", str(run / "report.json"), str(bad),
               "--table-out", str(table)])
    assert rc == 1
    assert f"error: {bad} is not an eval report" in capsys.readouterr().err
    assert not table.exists()


def test_eval_trained_checkpoint(tmp_path):
    out = tmp_path / "train"
    run_train(out)
    ev = tmp_path / "eval"
    rc = main(["eval", "--family", "quadratic", "--checkpoint",
               str(out / "checkpoint.l2o"), "--n-eval", "20",
               "--eval-seeds", "0,1", "--out", str(ev)])
    assert rc == 0
    assert json.loads((ev / "report.json").read_text())["optimizer_name"] == "l2o"


def test_gradcheck_command_passes(capsys):
    assert main(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "below 1e-4" in out and "loss_nodes:" in out
