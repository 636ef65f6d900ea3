"""One repetition of a workload, in the fresh interpreter ``run.py`` starts.

Checks that every program cache is cold, sets up (imports the package and
warms the size-n tile table), runs the workload body, and prints one JSON
line with set-up time, wall time, peak RSS, CPU use, every verdict, and the
median time of a reference kernel right after set-up (``ref_setup_s``) and
over its timings before and after the timed phase (``ref_s``).
With ``--trace-out`` the program's public functions are wrapped first and
the spans are written to that file at the end.

    python3 perfbench/rep.py --workload check-all-n3 --seed 1 --rep 0 --threads 2
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

from workloads import WORKLOADS, Tally, cold_cache_faults

#: kernel timings per pool process, before and after a pooled timed phase
POOLED_SAMPLES = 9


def _kernel_once() -> float:
    """One timing of a fixed kernel that does not touch loopsum: Fraction
    and big-integer arithmetic, list and dict work and int64 numpy row
    updates, the kinds of work the program spends its time on."""
    import numpy as np

    t0 = time.perf_counter()
    acc, x = Fraction(0), Fraction(3, 7)
    for k in range(1, 6000):
        acc = acc * x + Fraction(k, k + 1)
        if k % 40 == 0:
            acc = Fraction(acc.numerator % 10**30, acc.denominator % 10**30 + 1)
    big = 3**400
    rows = [[(big * i + j) % 1000003 for j in range(120)] for i in range(240)]
    table: dict = {}
    for row in rows:
        for v in row:
            table[v & 1023] = table.get(v & 1023, 0) + v
    mat = np.array(rows[:132], dtype=np.int64)
    for k in range(150):
        mat = (mat - np.outer(mat[:, k % 120], mat[k % 132])) % 1000003
    return time.perf_counter() - t0


def _kernel_in_child(barrier, results, count: int) -> None:
    barrier.wait()
    results.put([_kernel_once() for _ in range(count)])


def kernel_samples(procs: int, count: int) -> list:
    """``count`` timings of the kernel in each of ``procs`` processes.

    With one process the kernel runs here, on the CPU the repetition runs
    on.  With more it runs in that many forked processes at once, the way a
    pool keeps every CPU busy; on an idle host each timing is then the same
    as in one process.  numpy is imported before any timing starts."""
    if procs == 1:
        return [_kernel_once() for _ in range(count)]
    ctx = multiprocessing.get_context("fork")
    barrier, results = ctx.Barrier(procs), ctx.SimpleQueue()
    kids = [ctx.Process(target=_kernel_in_child, args=(barrier, results, count))
            for _ in range(procs)]
    for kid in kids:
        kid.start()
    times = [t for _ in kids for t in results.get()]
    for kid in kids:
        kid.join()
    return times


def _rusage():
    """Peak RSS (MB) of this process or any waited-for child, and the CPU
    seconds so far of this process and of its children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (max(me.ru_maxrss, kids.ru_maxrss) / 1024.0,
            me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0,
                        help="index of this repetition within its run")
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    spawned = args.spawned_at if args.spawned_at is not None else time.monotonic()

    import loopsum.cli  # noqa: F401  (imports every module the CLI uses)
    from loopsum import tmatrix

    faults = cold_cache_faults()
    if faults:
        print(f"caches filled before the repetition: {faults}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer().install()
    t_warm = time.perf_counter()
    tmatrix.transfer_link_pairs(wl.n, [1] * (2 * wl.n), 1)
    setup_s = time.monotonic() - spawned
    ref_setup = kernel_samples(1, 3)
    out = {"setup_s": setup_s, "ref_setup_s": statistics.median(ref_setup)}
    if not args.setup_only:
        # the kernel in as many processes as the timed phase keeps busy; a
        # pooled phase runs once per run, so its speed gets more samples
        procs = args.threads if wl.pooled else 1
        before = ref_setup if procs == 1 else kernel_samples(procs, POOLED_SAMPLES)
        tally = Tally()
        _, cpu0, kids0 = _rusage()
        t0 = time.perf_counter()
        try:
            wl.body(args.seed, args.rep, args.threads, tally)
        except Exception:  # a crash is one failed operation, with its traceback
            traceback.print_exc()
            tally.add("crash", False)
        t1 = time.perf_counter()
        peak, cpu1, kids1 = _rusage()
        after = kernel_samples(procs, len(before) // procs)
        out.update({
            "wall_s": t1 - t0,
            "peak_rss_mb": peak,
            "cpu_s": cpu1 - cpu0,
            "children_cpu_s": kids1 - kids0,
            "op_s": tally.op_s,
            "verdicts": tally.verdicts,
            "digests": tally.digests,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "correct": tally.correct,
            "ref_s": statistics.median(before + after),
        })
        if tracer is not None:
            tracer.uninstall()
            out["layers"] = tracer.metrics(t1 - t_warm)
            tracer.dump(args.trace_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
