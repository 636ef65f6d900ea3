"""loopsum benchmark: fixed workloads, end-to-end times, per-layer trace.

Each repetition runs in a fresh interpreter (``rep.py``), so no program
cache carries over from one repetition to the next.  With ``--trace 0``
repetitions run until ``--seconds`` have passed and the end-to-end metrics
are medians over them; with ``--trace 1`` one untraced and one traced
repetition run on the same seed and the per-layer metrics come from the
traced one.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Run one workload, or every workload with ``--workload all``:

    python3 perfbench/run.py --workload sumrule-points-n6 --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12 --trace 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: set-up is sampled at least this often per run; its median is reported
MIN_SETUPS = 5
#: a run ends well inside the 180 s a single run may take
DEADLINE_S = 170.0
#: the reference kernel's time (rep.kernel_samples) at the speed all
#: times are reported at, close to its time on a 2-vCPU VM with Python 3.11
#: when that host runs fast.  The host's speed drifts by up to 1.8x over
#: minutes; scaling each repetition by REF_S / (kernel time measured in that
#: repetition) cancels the drift, while a change in the program's own speed
#: shows in full.  For a pooled workload's timed phase the kernel runs in one
#: process per worker at once.
REF_S = 0.05

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "op_ms_p50": ("ms", "lower"),
    "op_ms_p75": ("ms", "lower"),
}
PER_LAYER = {
    **LAYER_METRICS,
    "pool.workers": ("count", "higher"),
    "pool.cpu_s": ("s", "lower"),
    "pool.cpu_util": ("ratio", "higher"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
}


def machine_facts() -> dict:
    import numpy

    srcs = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in srcs:
        data = p.read_bytes()
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def spawn(workload: str, seed: int, rep: int, threads: int, deadline: float,
          trace_out=None, setup_only=False):
    """Repetition ``rep`` in a fresh interpreter; its JSON result, or None."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--rep", str(rep), "--threads", str(threads)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # a session of its own, so that a timeout also ends the pool workers
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(time.monotonic())],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"repetition of {workload} (seed {seed}) timed out", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0 or not out.strip():
        print(f"repetition of {workload} (seed {seed}) exited with"
              f" code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def summarise(reps: list, lost: int) -> dict:
    """correct / attempted / failed over repetitions; a repetition that
    crashed or timed out counts as one failed operation, and a run with no
    operations is not correct."""
    attempted = sum(r["attempted"] for r in reps) + lost
    failed = sum(r["failed"] for r in reps) + lost
    return {
        "correct": attempted > 0 and failed == 0 and all(r["correct"] for r in reps),
        "attempted": attempted,
        "failed": failed,
    }


def run_timed(name: str, seed: int, seconds: float, workers: int) -> tuple:
    wl = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps, lost, last = [], 0, 0.0
    while len(reps) + lost < wl.min_reps or time.monotonic() - start < seconds:
        if time.monotonic() + 1.5 * last > deadline:
            break
        t0 = time.monotonic()
        rep = spawn(name, seed, len(reps) + lost, workers, deadline)
        last = time.monotonic() - t0
        if rep is None:
            lost += 1
            break
        reps.append(rep)
    # set-up is scaled by the kernel timed right after it
    setups = [r["setup_s"] * REF_S / r["ref_setup_s"] for r in reps]
    while reps and len(setups) < MIN_SETUPS and time.monotonic() < deadline - 10:
        got = spawn(name, seed, 0, workers, deadline, setup_only=True)
        if got is None:
            lost += 1
            break
        setups.append(got["setup_s"] * REF_S / got["ref_setup_s"])
    result = summarise(reps, lost)
    if not reps:
        return result, {}, {}
    speed = [REF_S / r["ref_s"] for r in reps]
    op_ms = [s * f * 1000.0 for r, f in zip(reps, speed) for s in r["op_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] * f for r, f in zip(reps, speed)),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p75": (statistics.quantiles(op_ms, n=4, method="inclusive")[-1]
                      if len(op_ms) > 1 else op_ms[0]),
    }
    counts = {"reps": len(reps), "setups": len(setups), "ops_timed": len(op_ms),
              "raw_wall_s": statistics.median(r["wall_s"] for r in reps),
              "speed_factor": statistics.median(speed)}
    return result, values, counts


def run_traced(name: str, seed: int, workers: int) -> tuple:
    """One untraced repetition (pool use, reference verdicts) and one traced
    repetition on one thread, so that every span stays in this process."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    plain = spawn(name, seed, 0, workers, deadline)
    traced = spawn(name, seed, 0, 1, deadline, trace_out=OUT / f"trace-{name}-{seed}.json")
    reps = [r for r in (plain, traced) if r is not None]
    result = summarise(reps, 2 - len(reps))
    if len(reps) < 2:
        return result, {}, {}
    if (plain["verdicts"], plain["digests"]) != (traced["verdicts"], traced["digests"]):
        print("traced and untraced repetitions disagree", file=sys.stderr)
        result["correct"] = False
    values = dict(traced["layers"])
    values.update({
        "pool.workers": workers,
        "pool.cpu_s": plain["children_cpu_s"],
        "pool.cpu_util": (plain["cpu_s"] + plain["children_cpu_s"])
        / (plain["wall_s"] * workers),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
    })
    return result, values, {"spans_file": str(OUT / f"trace-{name}-{seed}.json")}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workers: int):
    if trace:
        result, values, counts = run_traced(name, seed, workers)
        spec = PER_LAYER
    else:
        result, values, counts = run_timed(name, seed, seconds, workers)
        spec = END_TO_END
    if values and set(values) != set(spec):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(spec))} not as declared")
    metrics = {k: {"value": values[k], "unit": spec[k][0]} for k in spec if k in values}
    print(f"{name}  seed={seed}  trace={int(trace)}  {json.dumps(counts)}")
    for k, m in metrics.items():
        print(f"  {k:42s} {m['value']:>16.6f} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']}"
          f" failed={result['failed']}")
    return {**result, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="loopsum benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "loopsum" / "__init__.py").is_file():
        print(f"error: no loopsum sources under {SRC}", file=sys.stderr)
        return 2
    workers = len(os.sched_getaffinity(0))
    facts = machine_facts()
    facts.update(workers=workers, seed=args.seed, seconds=args.seconds,
                 trace=args.trace)
    print(json.dumps({"facts": facts}))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), workers)
               for n in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
