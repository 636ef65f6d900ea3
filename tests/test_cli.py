import itertools
import json

import pytest

from loopsum import cli
from loopsum.cli import main
from loopsum.groundstate import Groundstate, psi_symbolic
from loopsum.report import CheckReport


def test_verify_sumrule_symbolic_n2(capsys):
    assert main(["verify-sumrule", "2", "--mode", "symbolic"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_verify_sumrule_random_points(capsys):
    code = main([
        "verify-sumrule", "3", "--mode", "random-points", "--points", "4",
        "--seed", "5", "--json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert report["parameters"] == {
        "n": 3, "mode": "random-points", "points": 4, "seed": 5,
    }
    assert len(report["checks"][0]["cases"]) == 4


def test_reports_deterministic_for_seed(capsys):
    args = ["verify-sumrule", "2", "--mode", "random-points", "--points", "3",
            "--seed", "11", "--json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert json.loads(first)["checks"] == json.loads(second)["checks"]


def test_plain_reports_identical_bytes(capsys, monkeypatch):
    # a clock whose steps grow gives every check a different time in each
    # run: the plain report must not show them, --json keeps them
    ticks = itertools.count()
    monkeypatch.setattr(cli.time, "perf_counter", lambda: next(ticks) ** 2 / 1000)
    runs = []
    for _ in range(2):
        assert main(["asm-tables", "2"]) == 0
        runs.append(capsys.readouterr().out.encode())
    assert runs[0] == runs[1]
    assert "result: PASS" in runs[0].decode()
    assert main(["asm-tables", "2", "--json"]) == 0
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert sorted(timings) == ["asm-count(n=2)", "dwbc-oracle(n=2)"]
    assert all(v > 0 for v in timings.values())


def test_components_writes_json_and_prints_ones(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["components", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "3" in printed
    data = json.loads(out.read_text())
    assert data["n"] == 2
    assert len(data["components"]) == 2
    exps = [t["exp"] for t in data["components"][0]["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), tuple(e)))


def test_components_json_is_the_groundstate_document(tmp_path, capsys):
    out = tmp_path / "g2.json"
    assert main(["components", "2", "--json", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert Groundstate.from_json(json.loads(printed)) == psi_symbolic(2)
    assert json.loads(printed) == json.loads(out.read_text())


def test_components_bad_out_exits_2_before_the_build(tmp_path, capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("symbolic build started")

    monkeypatch.setattr(cli, "psi_symbolic", no_build)
    for out in (tmp_path / "missing" / "g2.json", tmp_path):
        assert main(["components", "2", "--out", str(out)]) == 2, out
        assert capsys.readouterr().err.startswith("error: "), out


def test_components_failed_build_leaves_no_probe_file(tmp_path, monkeypatch):
    def failed_build(*args, **kwargs):
        raise RuntimeError("symbolic build failed")

    monkeypatch.setattr(cli, "psi_symbolic", failed_build)
    out = tmp_path / "g2.json"
    with pytest.raises(RuntimeError):
        main(["components", "2", "--out", str(out)])
    assert not out.exists()
    # a file that was there before the probe is kept as it was
    out.write_text("kept")
    with pytest.raises(RuntimeError):
        main(["components", "2", "--out", str(out)])
    assert out.read_text() == "kept"


def test_check_all_n2(capsys):
    assert main(["check-all", "2", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "golden-match" in out


def test_asm_tables(capsys):
    assert main(["asm-tables", "3"]) == 0
    out = capsys.readouterr().out
    assert "A_3 = 7" in out
    assert "[2, 3, 2]" in out


def test_asm_tables_csv(capsys):
    assert main(["asm-tables", "2", "--csv"]) == 0
    out = capsys.readouterr().out
    assert "1,1,0" in out and "2,0,1" in out


def test_asm_tables_csv_and_json_exit_2(capsys):
    # one output format per run: the pair is a usage error, not a silent choice
    assert main(["asm-tables", "3", "--csv", "--json"]) == 2
    assert main(["asm-tables", "3", "--json", "--csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_cap_errors_exit_2(capsys):
    capped = {
        ("verify-sumrule", "9", "--mode", "symbolic"): "symbolic mode capped at n = 4",
        ("verify-sumrule", "5", "--mode", "symbolic"): "symbolic mode capped at n = 4",
        ("verify-sumrule", "9", "--mode", "random-points"):
            "random-points mode capped at n = 7",
        ("components", "7"): "components capped at n = 4",
        ("check-all", "5"): "check-all capped at n = 4",
        ("asm-tables", "6"): "asm-tables capped at n = 5",
    }
    for args, message in capped.items():
        assert main(list(args)) == 2, args
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", args
    assert main(["check-all", "0"]) == 2
    assert "must be at least 1, got 0" in capsys.readouterr().err


def test_usage_error_exit_2():
    assert main(["no-such-command"]) == 2


def test_no_points_or_workers_exit_2(capsys):
    # a run with no cases proves nothing; it must not print PASS
    for flags in (["--points", "0"], ["--points", "-4"], ["--threads", "0"]):
        args = ["verify-sumrule", "5", "--mode", "random-points"] + flags
        assert main(args) == 2, flags
    assert "PASS" not in capsys.readouterr().out


def test_caseless_report_does_not_pass():
    report = CheckReport("empty")
    assert not report.passed
    report.add(True)
    assert report.passed


def test_check_all_n1(capsys):
    assert main(["check-all", "1", "--threads", "1"]) == 0
    assert "result: PASS" in capsys.readouterr().out
