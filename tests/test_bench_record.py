import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def _tree(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("z = 3\n")
    return tmp_path


def test_record_keeps_the_benchmark_lines(tmp_path, monkeypatch, capsys):
    # the facts line and the result line of the run, and the line counts
    monkeypatch.setattr(bench_record, "ROOT", _tree(tmp_path))
    facts = {"cpus": 2, "src_lines": 2}
    result = {"correct": True, "attempted": 5, "failed": 0, "metrics": {}}
    stdout = "\n".join([json.dumps({"facts": facts}), "check-all-n3  seed=1", json.dumps(result)])
    calls = []

    def run(cmd, **kwargs):
        calls.append((cmd, kwargs["cwd"]))
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, "", "")
        return subprocess.CompletedProcess(cmd, 0, stdout + "\n", "")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.main(["--label", "pr0"]) == 0
    assert calls[0][0][1:] == ["perfbench/run.py", "--workload", "all", "--trace", "0"]
    assert calls[0][1] == tmp_path
    record = json.loads((tmp_path / "BENCH_pr0.json").read_text())
    assert record["facts"] == facts and record["result"] == result
    assert (record["src_lines"], record["tests_lines"]) == (2, 1)
    assert record["tree_clean"] is True
    assert record["cpus"] >= 1 and record["python"] and record["numpy"]
    assert "wrote BENCH_pr0.json" in capsys.readouterr().out


@pytest.mark.parametrize("status, clean", [((0, ""), True), ((0, " M src/a.py\n"), False),
                                           ((128, ""), None)])
def test_record_says_whether_src_and_tests_match_the_commit(status, clean, tmp_path,
                                                           monkeypatch):
    # an edited src/ or tests/ is not the tree facts.commit names; outside
    # a git checkout nothing is known
    monkeypatch.setattr(bench_record, "ROOT", _tree(tmp_path))
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    stdout = "\n".join([json.dumps({"facts": {"commit": "abc"}}), json.dumps(result)])
    git = []

    def run(cmd, **kwargs):
        if cmd[0] != "git":
            return subprocess.CompletedProcess(cmd, 0, stdout + "\n", "")
        git.append(cmd)
        return subprocess.CompletedProcess(cmd, status[0], status[1], "")

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.main(["--label", "x"]) == 0
    assert git == [["git", "status", "--porcelain", "--", "src", "tests"]]
    assert json.loads((tmp_path / "BENCH_x.json").read_text())["tree_clean"] is clean


def test_record_names_the_directory_it_ran_from(tmp_path, monkeypatch):
    # setup_s moves with the directory a tree sits in, so two records of
    # one tree say where each ran
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
    stdout = "\n".join([json.dumps({"facts": {}}), json.dumps(result)])
    monkeypatch.setattr(bench_record.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 0, stdout + "\n", ""))
    roots = []
    for name in ("a", "b"):
        root = tmp_path / name
        root.mkdir()
        monkeypatch.setattr(bench_record, "ROOT", _tree(root))
        monkeypatch.chdir(root / "src")
        assert bench_record.main(["--label", "x"]) == 0
        roots.append(json.loads((root / "BENCH_x.json").read_text())["root"])
    assert roots == [str((tmp_path / name).resolve()) for name in ("a", "b")]
    assert all(Path(r).is_absolute() for r in roots)


@pytest.mark.parametrize("label", ["", "a b", "../x", "a/b"])
def test_bad_label_exits_2_without_running(label, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", _tree(tmp_path))
    monkeypatch.setattr(bench_record.subprocess, "run", None)
    assert bench_record.main(["--label", label]) == 2
    assert not list(tmp_path.glob("BENCH_*"))


def test_run_without_result_exits_2_and_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_record, "ROOT", _tree(tmp_path))
    monkeypatch.setattr(bench_record.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 1, "", "Traceback\n"))
    assert bench_record.main(["--label", "x"]) == 2
    assert not list(tmp_path.glob("BENCH_*"))
