import hashlib
import json

import pytest

from l2okit.cli import main
from l2okit.config import (ConfigError, PAPER_LADDER, RunConfig, build_config,
                           config_hash, parse_config_file, serialize_config)


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


def test_eval_requires_checkpoint(tmp_path, capsys):
    rc = main(["eval", "--family", "quadratic", "--out", str(tmp_path / "e")])
    assert rc == 1
    assert "checkpoint required" in capsys.readouterr().err


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
