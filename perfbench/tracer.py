"""Span tracer for the benchmark's traced run.

Wraps the program's public functions where each consuming module holds
them: every module attribute of ``loopsum.*`` that is the original
function object is replaced by one timing wrapper, so calls made inside
the defining module and calls through an importer's name are both seen.
A ``Class.method`` target is wrapped on its class.
Spans stay in memory and are written out once, at the end of the run.
Nothing in the program itself changes.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

#: (defining module, function name, metric prefix)
TARGETS = (
    ("loopsum.tmatrix", "_tile_table", "tmatrix.tile_table"),
    ("loopsum.tmatrix", "transfer_link_pairs", "tmatrix.transfer_link_pairs"),
    ("loopsum.tmatrix", "verify_spin_eigenvector", "tmatrix.verify_spin_eigenvector"),
    ("loopsum.tmatrix", "transfer_link", "tmatrix.transfer_link"),
    ("loopsum.modular", "nullspace_mod_np", "modular.nullspace_mod_np"),
    ("loopsum.modular", "rational_reconstruct", "modular.rational_reconstruct"),
    ("loopsum.modular", "crt_pair", "modular.crt_pair"),
    ("loopsum.groundstate", "psi_point", "groundstate.psi_point"),
    ("loopsum.groundstate", "psi_symbolic", "groundstate.psi_symbolic"),
    ("loopsum.solver", "nullspace", "solver.nullspace"),
    ("loopsum.solver", "det", "solver.det"),
    ("loopsum.mpoly", "interpolate_grid", "mpoly.interpolate_grid"),
    ("loopsum.mpoly", "MPoly.eval", "mpoly.eval"),
    ("loopsum.schur", "z_partition_function", "schur.z_partition_function"),
    ("loopsum.schur", "schur_symbolic", "schur.schur_symbolic"),
    ("loopsum.asm", "check_dwbc_oracle", "asm.check_dwbc_oracle"),
    ("loopsum.asm", "refined_generating_check", "asm.refined_generating_check"),
)

#: every ``check_*`` function defined in these modules shares one prefix
CHECK_GROUPS = (
    ("loopsum.groundstate", "groundstate.checks"),
    ("loopsum.schur", "schur.checks"),
    ("loopsum.tmatrix", "tmatrix.checks"),
)

#: per-layer metrics this module reports: name -> (unit, better)
LAYER_METRICS = {
    "tmatrix.tile_table_s": ("s", "lower"),
    "tmatrix.transfer_link_pairs.calls": ("count", "lower"),
    "tmatrix.transfer_link_pairs.self_s": ("s", "lower"),
    "tmatrix.verify_spin_eigenvector.calls": ("count", "lower"),
    "tmatrix.verify_spin_eigenvector.self_s": ("s", "lower"),
    "tmatrix.transfer_link.calls": ("count", "lower"),
    "tmatrix.transfer_link.self_s": ("s", "lower"),
    "tmatrix.checks.self_s": ("s", "lower"),
    "modular.nullspace_mod_np.calls": ("count", "lower"),
    "modular.nullspace_mod_np.self_s": ("s", "lower"),
    "modular.points": ("count", "lower"),
    "modular.eliminations_per_point": ("1/point", "lower"),
    "modular.rational_reconstruct.calls": ("count", "lower"),
    "modular.rational_reconstruct.self_s": ("s", "lower"),
    "modular.rational_reconstruct.fail_frac": ("ratio", "lower"),
    "modular.crt_pair.calls": ("count", "lower"),
    "modular.crt_pair.self_s": ("s", "lower"),
    "groundstate.psi_point.calls": ("count", "lower"),
    "groundstate.psi_point.self_s": ("s", "lower"),
    "groundstate.psi_point.t_retries": ("count", "lower"),
    "groundstate.psi_symbolic.calls": ("count", "lower"),
    "groundstate.psi_symbolic.self_s": ("s", "lower"),
    "groundstate.checks.self_s": ("s", "lower"),
    "solver.nullspace.calls": ("count", "lower"),
    "solver.nullspace.self_s": ("s", "lower"),
    "solver.det.calls": ("count", "lower"),
    "solver.det.self_s": ("s", "lower"),
    "mpoly.interpolate_grid.calls": ("count", "lower"),
    "mpoly.interpolate_grid.self_s": ("s", "lower"),
    "mpoly.eval.calls": ("count", "lower"),
    "mpoly.eval.self_s": ("s", "lower"),
    "schur.z_partition_function.calls": ("count", "lower"),
    "schur.z_partition_function.self_s": ("s", "lower"),
    "schur.schur_symbolic.self_s": ("s", "lower"),
    "schur.checks.self_s": ("s", "lower"),
    "asm.check_dwbc_oracle.self_s": ("s", "lower"),
    "asm.refined_generating_check.self_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


class Tracer:
    """Records one span per wrapped call: prefix, parent span, start, end."""

    def __init__(self):
        self.spans: list[list] = []  # [prefix, parent index, start, end]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.t_retries = 0
        self.reconstruct_fails = 0

    # -- installation -----------------------------------------------------

    def install(self) -> "Tracer":
        targets = list(TARGETS)
        for modname, prefix in CHECK_GROUPS:
            mod = sys.modules[modname]
            targets += [
                (modname, name, prefix)
                for name, obj in vars(mod).items()
                if name.startswith("check_") and getattr(obj, "__module__", "") == modname
            ]
        for modname, name, prefix in targets:
            cls, _, meth = name.rpartition(".")
            if cls:
                owner = getattr(sys.modules[modname], cls)
                orig = vars(owner)[meth]
                self._restore.append((owner, meth, orig))
                setattr(owner, meth, self._wrap(orig, prefix, None))
                continue
            orig = getattr(sys.modules[modname], name)
            wrapper = self._wrap(orig, prefix, self._on_result(prefix))
            for mod in [m for k, m in sys.modules.items() if k.startswith("loopsum")]:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _on_result(self, prefix):
        if prefix == "groundstate.psi_point":
            def seen(pv):
                if pv.t != 1:
                    self.t_retries += 1
            return seen
        if prefix == "modular.rational_reconstruct":
            def seen(frac):
                if frac is None:
                    self.reconstruct_fails += 1
            return seen
        return None

    def _wrap(self, fn, prefix, on_result):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [prefix, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", prefix)
        return wrapper

    # -- analysis ---------------------------------------------------------

    def metrics(self, window_s: float) -> dict:
        """Per-layer numbers over every span; ``window_s`` is the traced
        wall time (set-up and timed phase) that the root spans cover."""
        spans = self.spans
        child = [0.0] * len(spans)
        roots = 0.0
        for prefix, parent, start, end in spans:
            if parent < 0:
                roots += end - start
            else:
                child[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for k, (prefix, parent, start, end) in enumerate(spans):
            calls[prefix] = calls.get(prefix, 0) + 1
            self_s[prefix] = self_s.get(prefix, 0.0) + (end - start) - child[k]

        # modular points: psi_point spans with elimination descendants
        elim = 0
        points = set()
        for prefix, parent, _, _ in spans:
            if prefix != "modular.nullspace_mod_np":
                continue
            while parent >= 0 and spans[parent][0] != "groundstate.psi_point":
                parent = spans[parent][1]
            if parent >= 0:
                elim += 1
                points.add(parent)

        out = {}
        for name in LAYER_METRICS:
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = calls.get(prefix, 0)
            elif field == "self_s":
                out[name] = self_s.get(prefix, 0.0)
        rr_calls = calls.get("modular.rational_reconstruct", 0)
        out.update({
            "tmatrix.tile_table_s": self_s.get("tmatrix.tile_table", 0.0),
            "modular.points": len(points),
            "modular.eliminations_per_point": elim / len(points) if points else 0.0,
            "modular.rational_reconstruct.fail_frac":
                self.reconstruct_fails / rr_calls if rr_calls else 0.0,
            "groundstate.psi_point.t_retries": self.t_retries,
            "trace.spans": len(spans),
            "trace.overhead_s": len(spans) * _span_cost(),
            "trace.unattributed_s": window_s - roots,
        })
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "columns": ["name", "parent", "start", "end"],
                "spans": [[index[p], parent, start, end]
                          for p, parent, start, end in self.spans],
            }, fh)


def _span_cost(calls: int = 20000) -> float:
    """Seconds one span adds, from timing a wrapped no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "probe", None)
    t0 = perf_counter()
    for _ in range(calls):
        noop()
    t1 = perf_counter()
    for _ in range(calls):
        wrapped()
    t2 = perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)
