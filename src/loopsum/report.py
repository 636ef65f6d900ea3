"""Machine-readable results for verification checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CheckReport:
    """Outcome of one named check over a list of cases.

    Every case is a dict carrying its parameters, a boolean under "pass",
    and, when failing, whatever counterexample payload the check supplies.
    """

    check: str
    cases: list[dict] = field(default_factory=list)

    def add(self, passed: bool, **params) -> bool:
        self.cases.append({"pass": bool(passed), **params})
        return passed

    @property
    def passed(self) -> bool:
        """A check with no cases proves nothing, so it does not pass."""
        return bool(self.cases) and all(c["pass"] for c in self.cases)

    def to_dict(self) -> dict:
        return {"check": self.check, "cases": self.cases, "pass": self.passed}
