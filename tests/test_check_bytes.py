"""scripts/check_bytes.py's comparison of two output trees."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bytes.py"
_spec = importlib.util.spec_from_file_location("check_bytes", SCRIPT)
check_bytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bytes)


def write_tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_differing_files_names_changed_and_one_sided_files(tmp_path):
    same = {"train-cl/checkpoint.l2o": b"\x00\x01", "eval-adam.stdout": b"ok\n"}
    a = write_tree(tmp_path / "a", {**same, "train-cl/epochs.csv": b"1,2\n",
                                    "only-a/report.json": b"{}"})
    b = write_tree(tmp_path / "b", {**same, "train-cl/epochs.csv": b"1,3\n",
                                    "only-b.stdout": b""})
    assert check_bytes.differing_files(a, b) == [
        "only-a/report.json", "only-b.stdout", "train-cl/epochs.csv"]
    assert check_bytes.differing_files(b, a) == check_bytes.differing_files(a, b)


def test_identical_trees_differ_in_nothing(tmp_path):
    files = {"x/y/z.csv": b"a,b\n", "empty.stdout": b""}
    a = write_tree(tmp_path / "a", files)
    b = write_tree(tmp_path / "b", files)
    assert check_bytes.differing_files(a, b) == []


def test_commands_byte_check_gradcheck_stdout_without_out(tmp_path):
    runs = check_bytes.commands(tmp_path)
    assert runs["gradcheck"] == ["gradcheck"]
    for name, args in runs.items():
        if name != "gradcheck":
            assert args[0] in ("train", "eval")
            assert args[-2:] == ["--out", str(tmp_path / name)]
