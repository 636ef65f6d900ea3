"""Record one benchmark run as ``BENCH_<label>.json`` at the repository root.

Runs ``perfbench/run.py --workload all --trace 0`` as it stands, in a
fresh interpreter, and stores its facts line and its result line next to
the line counts of ``src/`` and ``tests/``, whether those two trees match
the commit the facts name (``tree_clean``: ``git status --porcelain`` is
empty for them; null outside a git checkout), the absolute directory it
ran from (``root``: the same tree reads a different ``setup_s`` from a
different directory), the CPU count, and the Python and numpy versions of
the interpreter that ran it:

    python3 tools/bench_record.py --label baseline

The file is written only when the benchmark ran to its result line; the
exit code is the benchmark's (1 when a workload gave a wrong result), or
2 for a bad label or a run without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["perfbench/run.py", "--workload", "all", "--trace", "0"]


def line_count(top: Path) -> int:
    return sum(p.read_bytes().count(b"\n") for p in sorted(top.rglob("*.py")))


def tree_clean(root: Path) -> bool | None:
    got = subprocess.run(["git", "status", "--porcelain", "--", "src", "tests"],
                         cwd=root, capture_output=True, text=True)
    return None if got.returncode else not got.stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        print(f"error: label {args.label!r} is not letters, digits, '_', '.' or '-'",
              file=sys.stderr)
        return 2
    run = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, capture_output=True, text=True)
    lines = run.stdout.splitlines()
    try:
        facts = json.loads(lines[0])["facts"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        sys.stderr.write(run.stderr)
        print(f"error: the benchmark exited {run.returncode} without a result line",
              file=sys.stderr)
        return 2
    import numpy

    record = {
        "label": args.label,
        "command": ["python3", *COMMAND],
        "exit_code": run.returncode,
        "src_lines": line_count(ROOT / "src"),
        "tests_lines": line_count(ROOT / "tests"),
        "tree_clean": tree_clean(ROOT),
        "root": str(ROOT.resolve()),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "facts": facts,
        "result": result,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.name}: correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
