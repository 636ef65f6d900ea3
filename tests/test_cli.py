import itertools
import json
import os
import stat
import subprocess
import sys
import threading
from types import SimpleNamespace

import pytest

from loopsum import cli
from loopsum.cli import main
from loopsum.cyclo import ZERO
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


@pytest.mark.parametrize("n", (2, 6, 7))
def test_random_points_certify_the_first_two(n, capsys, monkeypatch):
    # stream points 0 and 1 carry the spin certificate at every n up to
    # the cap, n = 7 included; the solve is stubbed, so no certificate runs
    flags = []

    def solve(size, zs, spin_certificate=False):
        flags.append((size, len(zs), spin_certificate))
        return SimpleNamespace(values=(ZERO,))

    monkeypatch.setattr(cli, "psi_point", solve)
    monkeypatch.setattr(cli, "z_partition_function", lambda size, zs: ZERO)
    assert main(["verify-sumrule", str(n), "--mode", "random-points", "--points", "3"]) == 0
    assert flags == [(n, 2 * n, True), (n, 2 * n, True), (n, 2 * n, False)]
    assert "result: PASS" in capsys.readouterr().out


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


def test_components_failed_write_leaves_no_file(tmp_path, monkeypatch):
    # a failure after the build, as to_json running out of memory at n = 5
    def no_memory(self):
        raise MemoryError

    monkeypatch.setattr(Groundstate, "to_json", no_memory)
    out = tmp_path / "g2.json"
    with pytest.raises(MemoryError):
        main(["components", "2", "--out", str(out)])
    assert list(tmp_path.iterdir()) == []
    # a file that was there before is kept byte for byte
    out.write_bytes(b"kept\n")
    with pytest.raises(MemoryError):
        main(["components", "2", "--out", str(out)])
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"kept\n"


def test_components_writes_through_a_symlink(tmp_path, capsys):
    # the link stays a link, and its target gets the document: first a
    # dangling link, then one whose target exists
    real = tmp_path / "real.json"
    link = tmp_path / "link.json"
    link.symlink_to(real.name)
    for _ in range(2):
        assert main(["components", "2", "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == real.name
        assert json.loads(real.read_text()) == psi_symbolic(2).to_json()
        assert sorted(tmp_path.iterdir()) == [link, real]
        real.write_text("old")


def test_components_writes_a_fifo_in_place(tmp_path, capsys):
    # a file that is not a regular file is written, never replaced
    fifo = tmp_path / "g2.fifo"
    os.mkfifo(fifo)
    read = []
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    assert main(["components", "2", "--out", str(fifo)]) == 0
    reader.join(60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert [json.loads(text) for text in read] == [psi_symbolic(2).to_json()]
    assert list(tmp_path.iterdir()) == [fifo]


def test_components_empty_out_exits_2(capsys, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("symbolic build started")

    monkeypatch.setattr(cli, "psi_symbolic", no_build)
    assert main(["components", "2", "--out", ""]) == 2
    assert "--out" in capsys.readouterr().err


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


def _loopsum(args, stdout, buffered):
    """The CLI in a new interpreter, as a script runs it, its stdout
    block-buffered as by default or written through (PYTHONUNBUFFERED)."""
    import loopsum

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(loopsum.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "loopsum.cli", *args], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=env)


def _assert_output_failure(proc, reason):
    # one stderr line, no traceback, and an exit code that is no verdict
    err = proc.stderr.read()
    assert proc.wait(120) == 3
    assert err.splitlines() == [f"error: output failed: {reason}"], err
    assert "Traceback" not in err


@pytest.mark.parametrize("buffered", (True, False))
def test_closed_stdout_pipe_is_not_a_verdict(buffered):
    # about 130 kB of report, twice a pipe's usual buffer, so the write
    # cannot finish before the reader closes after a few bytes
    proc = _loopsum(["verify-sumrule", "1", "--mode", "random-points", "--points", "1000",
                     "--json"], subprocess.PIPE, buffered)
    assert proc.stdout.read(16).startswith("{")
    proc.stdout.close()
    _assert_output_failure(proc, "Broken pipe")
    # a short report into a pipe whose reader is gone from the start
    read, write = os.pipe()
    os.close(read)
    proc = _loopsum(["check-all", "1"], write, buffered)
    os.close(write)
    _assert_output_failure(proc, "Broken pipe")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", (True, False))
def test_full_device_is_not_a_verdict(buffered):
    with open("/dev/full", "w") as full:
        _assert_output_failure(_loopsum(["check-all", "2"], full, buffered),
                               "No space left on device")
    proc = _loopsum(["components", "2", "--out", "/dev/full"], subprocess.DEVNULL, buffered)
    _assert_output_failure(proc, "No space left on device")
