"""Command-line front end: verification runs with machine-readable reports.

Exit codes: 0 all checks passed, 1 a verification failed (the report
carries the counterexample), 2 usage or size-cap errors.  All randomness
is seeded point sampling: for a given seed the verdicts and cases of a
report are deterministic, and so is plain output byte for byte; only the
``timings`` of --json output are not.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from .asm import (
    SizeCapError,
    asm_product_formula,
    check_dwbc_oracle,
    enumerate_asm,
    refined_counts,
    refined_generating_check,
)
from .cyclo import ZERO
from .golden import golden_groundstate
from .groundstate import (
    check_cyclic_reflection,
    check_exchange,
    check_factorization,
    check_monomial_property,
    check_normalization_chain,
    check_recursion_adjacent,
    check_recursion_general,
    check_t_independence,
    psi_point,
    psi_symbolic,
    within_degree_bounds,
)
from .report import CheckReport
from .schur import (
    aba_residual,
    check_f_identity,
    check_tq,
    check_z_recursion,
    schur_symbolic,
    z_partition_function,
)
from .tmatrix import (
    check_arch_insertion,
    check_interlacing,
    check_transfer_commutation,
    check_unitarity,
    check_yang_baxter,
)

SYMBOLIC_CAP = 4
SYMBOLIC_CAP_LONG = 5
RANDOM_POINTS_CAP = 7
ASM_CAP = 5


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def run(self, report_factory):
        t0 = time.perf_counter()
        report = report_factory()
        self.checks.append(report.to_dict())
        self.timings[report.check] = round(time.perf_counter() - t0, 3)
        return report

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": self.parameters,
            "checks": self.checks,
            "pass": self.passed,
            "timings": self.timings,
        }


def _sample_distinct(rng: random.Random, count: int, lo: int = 1, hi: int = 60):
    return rng.sample(range(lo, hi), count)


def _print_report(rep: RunReport, as_json: bool) -> None:
    if as_json:
        print(json.dumps(rep.to_dict(), indent=2))
        return
    for chk in rep.checks:
        mark = "PASS" if chk["pass"] else "FAIL"
        print(f"[{mark}] {chk['check']}  ({len(chk['cases'])} cases)")
        if not chk["pass"]:
            for case in chk["cases"]:
                if not case["pass"]:
                    print(f"       counterexample: {case}")
    print("result:", "PASS" if rep.passed else "FAIL")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_verify_sumrule(args) -> int:
    n = args.n
    rep = RunReport(
        "verify-sumrule",
        {"n": n, "mode": args.mode, "points": args.points, "seed": args.seed},
    )
    if args.mode == "symbolic":
        cap = SYMBOLIC_CAP_LONG if args.allow_long else SYMBOLIC_CAP
        if n > cap:
            raise SizeCapError(f"symbolic mode capped at n = {cap}")

        def symbolic():
            report = CheckReport(f"sum-rule-symbolic(n={n})")
            w = psi_symbolic(n).sum_components()
            report.add(w == schur_symbolic(n), kind="polynomial-identity")
            return report

        rep.run(symbolic)
    else:
        if n > RANDOM_POINTS_CAP:
            raise SizeCapError(f"random-points mode capped at n = {RANDOM_POINTS_CAP}")
        rng = random.Random(args.seed)

        def random_points():
            report = CheckReport(f"sum-rule-points(n={n})")
            for k in range(args.points):
                zs = _sample_distinct(rng, 2 * n)
                pv = psi_point(n, zs, spin_certificate=(k < 2 and n <= 6))
                w = sum(pv.values, ZERO)
                z = z_partition_function(n, zs)
                report.add(w == z, point=zs, w=str(w))
            return report

        rep.run(random_points)
    _print_report(rep, args.json)
    return 0 if rep.passed else 1


def cmd_components(args) -> int:
    n = args.n
    cap = SYMBOLIC_CAP_LONG if args.allow_long else SYMBOLIC_CAP
    if n > cap:
        raise SizeCapError(f"components capped at n = {cap}")
    # a file the probe creates is removed again if the build fails
    created = bool(args.out) and not os.path.exists(args.out)
    if args.out:
        # fail before the build, which takes minutes at n = 5;
        # append mode tests the same open without truncating an existing file
        try:
            with open(args.out, "a"):
                pass
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
    try:
        g = psi_symbolic(n)
    except BaseException:
        if created:
            os.remove(args.out)
        raise
    doc = g.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh)
    if args.json:
        print(json.dumps(doc))
        return 0
    if args.out:
        print(f"wrote {args.out}")
    ones = g.values_at([1] * (2 * n))
    print("components at z = (1, ..., 1):")
    for pat, val in zip(g.patterns, ones):
        print(f"  {pat.to_chords_json()}  ->  {val}")
    return 0


def cmd_check_all(args) -> int:
    n = args.n
    if n > SYMBOLIC_CAP:
        raise SizeCapError(f"check-all capped at n = {SYMBOLIC_CAP}")
    rng = random.Random(args.seed)
    rep = RunReport("check-all", {"n": n, "seed": args.seed})
    states = [psi_symbolic(k) for k in range(1, n + 1)]
    g = states[-1]

    if n <= 3:
        def golden():
            report = CheckReport(f"golden-match(n={n})")
            gg = golden_groundstate(n)
            for pat, a, b in zip(g.patterns, g.components, gg.components):
                report.add(a == b, pattern=pat.to_chords_json())
            return report

        rep.run(golden)

    def degrees():
        report = CheckReport(f"degrees(n={n})")
        for pat, comp in zip(g.patterns, g.components):
            report.add(within_degree_bounds(comp, n), pattern=pat.to_chords_json())
        return report

    rep.run(degrees)
    if n >= 2:
        for i in range(1, 2 * n):
            rep.run(lambda i=i: check_recursion_adjacent(g, states[-2], i))
        rep.run(lambda: check_recursion_general(
            g, states[-2], 1, 3 if n == 2 else 4))
    for i in range(1, 2 * n + 1):
        rep.run(lambda i=i: check_exchange(g, i))
    # at n = 1 there is no in-sequence pair and no smaller state to reach
    if n >= 2:
        rep.run(lambda: check_factorization(g))
    rep.run(lambda: check_cyclic_reflection(g))
    rep.run(lambda: check_monomial_property(g))
    if n >= 2:
        rep.run(lambda: check_normalization_chain(states))
    rep.run(lambda: check_t_independence(n, _sample_distinct(rng, 2 * n)))

    def sumrule():
        report = CheckReport(f"sum-rule-symbolic(n={n})")
        report.add(g.sum_components() == schur_symbolic(n))
        return report

    rep.run(sumrule)

    if n >= 2:
        for i in (1, 2 * n - 1):
            rep.run(lambda i=i: check_z_recursion(
                n, i, _sample_distinct(rng, 2 * n - 1)))
        rep.run(lambda: check_f_identity(n, _sample_distinct(rng, 2 * n)))
        rep.run(lambda: check_tq(n, _sample_distinct(rng, 2 * n)))
    rep.run(lambda: check_dwbc_oracle(n, _sample_distinct(rng, 2 * n, 1, 25)))
    rep.run(lambda: refined_generating_check(n, rng.randint(1, 9), rng.randint(1, 9)))
    if 2 <= n <= 3:
        rep.run(lambda: check_yang_baxter(n, *_sample_distinct(rng, 3)))
        rep.run(lambda: check_unitarity(n, *_sample_distinct(rng, 2)))
        rep.run(lambda: check_interlacing(
            n, rng.randint(2, 20), _sample_distinct(rng, 2 * n), 1))
        rep.run(lambda: check_arch_insertion(
            n, rng.randint(2, 20), _sample_distinct(rng, 2 * n - 2), 1,
            rng.randint(2, 20)))
        rep.run(lambda: check_transfer_commutation(
            n, _sample_distinct(rng, 2 * n), rng.randint(2, 20),
            rng.randint(21, 40)))

        def aba():
            report = CheckReport(f"aba-residual(n={min(n, 2)})")
            out = aba_residual(min(n, 2), _sample_distinct(rng, 2 * min(n, 2)))
            report.add(
                out["residual"] < 1e-9
                and out["eigenvalue_error"] < 1e-9
                and out["subspace_angle"] < 1e-9,
                **out,
            )
            return report

        rep.run(aba)

    _print_report(rep, args.json)
    return 0 if rep.passed else 1


def cmd_asm_tables(args) -> int:
    n = args.n
    if n > ASM_CAP:
        raise SizeCapError(f"asm-tables capped at n = {ASM_CAP}")
    formula = asm_product_formula(n)
    table = refined_counts(n)
    enumerated = len(enumerate_asm(n))
    total = sum(sum(r) for r in table)
    rep = RunReport("asm-tables", {"n": n})

    def counting():
        report = CheckReport(f"asm-count(n={n})")
        report.add(enumerated == formula, enumerated=enumerated, formula=formula)
        report.add(total == formula, refined_total=total)
        return report

    rep.run(counting)
    if n <= 3:
        rng = random.Random(0)
        rep.run(lambda: check_dwbc_oracle(n, rng.sample(range(1, 20), 2 * n)))

    if args.csv:
        print("j\\k," + ",".join(str(k) for k in range(1, n + 1)))
        for j, row in enumerate(table, start=1):
            print(f"{j}," + ",".join(str(x) for x in row))
    elif args.json:
        out = rep.to_dict()
        out["a_n"] = formula
        out["refined"] = table
        print(json.dumps(out, indent=2))
        return 0 if rep.passed else 1
    else:
        print(f"A_{n} = {formula} (enumeration: {enumerated})")
        print("doubly refined counts (rows: top position j; cols: bottom"
              " position k from the right):")
        for row in table:
            print("  " + " ".join(f"{x:4d}" for x in row))
        print("top-row marginals:", [sum(r) for r in table])
    if not args.csv:
        _print_report(rep, False)
    return 0 if rep.passed else 1


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopsum",
        description="Exact loop-model groundstates with Schur/ASM/six-vertex "
        "cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, threads=True):
        """Adds n, --json and --threads; returns the group of mutually
        exclusive output formats that --json opens."""
        p.add_argument("n", type=_positive, help="half-size (2n boundary points)")
        formats = p.add_mutually_exclusive_group()
        formats.add_argument("--json", action="store_true", help="JSON report")
        if threads:
            p.add_argument("--threads", type=_positive, default=None,
                           help="accepted for compatibility with the benchmark "
                           "harness; has no effect")
        return formats

    p = sub.add_parser("verify-sumrule", help="sum of components vs Schur")
    common(p)
    p.add_argument("--mode", choices=["symbolic", "random-points"],
                   default="symbolic")
    p.add_argument("--points", type=_positive, default=100)
    p.add_argument("--seed", type=int, default=20061123)
    p.add_argument("--allow-long", action="store_true",
                   help="unlock the long-running n = 5 symbolic build")
    p.set_defaults(func=cmd_verify_sumrule)

    p = sub.add_parser("components", help="dump exact components as JSON")
    common(p)
    p.add_argument("--out", type=str, default=None)
    p.add_argument("--allow-long", action="store_true")
    p.set_defaults(func=cmd_components)

    p = sub.add_parser("check-all", help="run the full verification suite")
    common(p)
    p.add_argument("--seed", type=int, default=20061123)
    p.set_defaults(func=cmd_check_all)

    p = sub.add_parser("asm-tables", help="ASM counts and refined tables")
    common(p, threads=False).add_argument("--csv", action="store_true",
                                          help="CSV refined table")
    p.set_defaults(func=cmd_asm_tables)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
