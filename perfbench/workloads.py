"""The benchmark's workloads: each one makes the program's own calls and
checks every output exactly.

A workload body runs inside one fresh interpreter (one repetition) and
records each operation in a ``Tally``: its verdict and, for the
operations a user waits on one at a time, its duration.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

#: the CLI's default ``--seed``; the recorded point digest is for this seed
DEFAULT_SEED = 20061123

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())

#: repetition k of a run with seed s uses seed s + k * SEED_STRIDE, so
#: repetition 0 draws exactly what the CLI draws for ``--seed s``
SEED_STRIDE = 7919
#: random points per repetition of sumrule-points-n6.  The repetitions of a
#: run continue one seeded stream, the one ``verify-sumrule 6 --mode
#: random-points`` draws, and only its first two points carry the spin
#: certificate, as in the CLI: repetition 0 checks stream points 0-7,
#: repetition 1 points 8-15, and so on.
POINTS_PER_REP = 8
#: seeded off-grid points checked against the rebuilt Schur polynomial
SPOT_POINTS = 4


def digest(obj) -> str:
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Tally:
    """Operations of one repetition: what was checked and how long it took."""

    verdicts: list = field(default_factory=list)  # [name, passed]
    op_s: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def add(self, name: str, passed: bool, seconds: Optional[float] = None) -> None:
        self.verdicts.append([name, bool(passed)])
        if seconds is not None:
            self.op_s.append(seconds)

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.verdicts if not ok)

    @property
    def correct(self) -> bool:
        """A repetition with no operations proves nothing and does not pass."""
        return self.attempted > 0 and self.failed == 0


def _sample_distinct(rng: random.Random, count: int) -> list:
    # the same draw cmd_verify_sumrule and cmd_check_all make
    return rng.sample(range(1, 60), count)


def _sum(values):
    from loopsum.cyclo import CycloNum

    acc = CycloNum(0, 0)
    for v in values:
        acc = acc + v
    return acc


def schur_symbolic_n4(seed: int, rep: int, threads: int, tally: Tally) -> None:
    """s_{Y_4} rebuilt on the 4^7 grid, then the sum rule at seeded points.

    The timed operation is the build; the spot points are checked but not
    timed, because their few seconds would measure machine noise, not the
    symbolic pipeline."""
    from loopsum import groundstate, schur

    t0 = perf_counter()
    poly = schur.schur_symbolic(4, threads=threads)
    build_s = perf_counter() - t0
    tally.digests["schur_symbolic_4"] = digest(poly.to_json())
    tally.add("schur-symbolic-digest",
              tally.digests["schur_symbolic_4"] == EXPECTED["schur_symbolic_4"], build_s)
    rng = random.Random(seed + SEED_STRIDE * rep)
    for _ in range(SPOT_POINTS):
        zs = _sample_distinct(rng, 8)
        w = _sum(groundstate.psi_point(4, zs).values)
        tally.add(f"spot{zs}", w == poly.eval(zs) == schur.z_partition_function(4, zs))


def sumrule_points_n6(seed: int, rep: int, threads: int, tally: Tally,
                      points: int = POINTS_PER_REP) -> None:
    """The random-point sum rule at n = 6, point by point as the CLI runs it:
    points ``rep * points`` to ``(rep + 1) * points - 1`` of its stream."""
    from loopsum import groundstate, schur

    rng = random.Random(seed)
    first = rep * points
    for _ in range(first):
        _sample_distinct(rng, 12)
    values = []
    for k in range(first, first + points):
        zs = _sample_distinct(rng, 12)
        t0 = perf_counter()
        pv = groundstate.psi_point(6, zs, spin_certificate=k < 2)
        ok = _sum(pv.values) == schur.z_partition_function(6, zs)
        tally.add(f"point{zs}", ok, perf_counter() - t0)
        values.append([zs, str(pv.t), [str(v) for v in pv.values]])
    tally.digests["points_n6"] = digest(values)
    if seed == DEFAULT_SEED and rep == 0 and points == POINTS_PER_REP:
        tally.add("points-digest", tally.digests["points_n6"] == EXPECTED["points_n6"])


def check_all_n3(seed: int, rep: int, threads: int, tally: Tally) -> None:
    """``loopsum check-all 3``: every check passes with at least one case."""
    from loopsum import cli

    times = []
    run = cli.RunReport.run

    def timed_run(self, factory):
        t0 = perf_counter()
        try:
            return run(self, factory)
        finally:
            times.append(perf_counter() - t0)

    cli.RunReport.run = timed_run
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = cli.main(["check-all", "3", "--seed", str(seed + SEED_STRIDE * rep),
                             "--threads", str(threads), "--json"])
    finally:
        cli.RunReport.run = run
    report = json.loads(out.getvalue())
    for chk, secs in zip(report["checks"], times):
        tally.add(chk["check"], chk["pass"] and len(chk["cases"]) > 0, secs)
    names = [chk["check"] for chk in report["checks"]]
    tally.digests["check_all_3_names"] = digest(names)
    tally.add("check-names", names == EXPECTED["check_all_3_names"])
    tally.add("exit-code", code == 0)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # the size whose tile table set-up warms
    #: fewest repetitions in a timed run; on sumrule-points-n6 five give 40
    #: points, 10 of them above the 75th percentile, the 2 certified ones
    #: among those
    min_reps: int
    body: Callable[[int, int, int, Tally], None]
    #: the timed work runs in pool workers on every CPU, so its times are
    #: scaled by the reference kernel run in that many processes at once
    pooled: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("schur-symbolic-n4", 4, 1, schur_symbolic_n4, pooled=True),
        Workload("sumrule-points-n6", 6, 5, sumrule_points_n6),
        Workload("check-all-n3", 3, 6, check_all_n3),
    )
}


def cold_cache_faults() -> list:
    """Names of program caches that already hold entries.

    A repetition must never be served from a cache an earlier one filled;
    every repetition starts a fresh interpreter and checks this first.
    """
    import sys

    faults = []
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("loopsum"):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, "cache_info") and obj.cache_info().currsize:
                faults.append(f"{modname}.{name}")
            elif isinstance(obj, dict) and "CACHE" in name and obj:
                faults.append(f"{modname}.{name}")
    return faults
