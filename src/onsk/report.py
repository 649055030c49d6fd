"""Pass/fail bookkeeping shared by the verification routines.

Reports are plain records; onsk.cli renders them in every output format."""

from __future__ import annotations

from .linalg import first_entry


def residual(op) -> str:
    """The failure witness of an operator expected to vanish: its first
    nonzero entry as "residual at (r,c): v", or "" when op is zero."""
    w = first_entry(op)
    return "" if w is None else f"residual at ({w[0]},{w[1]}): {w[2]}"


class CheckResult:
    """Outcome of one named identity check."""

    __slots__ = ("name", "status", "detail")

    def __init__(self, name: str, ok: bool, detail: str = "") -> None:
        self.name = name
        self.status = "pass" if ok else "fail"
        self.detail = detail

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def __repr__(self) -> str:
        return f"CheckResult({self.name!r}, {self.status!r})"


class Report:
    """Ordered collection of check results."""

    def __init__(self) -> None:
        self.checks: list[CheckResult] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append(CheckResult(name, bool(ok), detail))
        return bool(ok)

    def add_zero(self, name: str, op) -> bool:
        """Pass when the operator op vanishes; a failure names its first residual."""
        detail = residual(op)
        return self.add(name, not detail, detail)

    def extend(self, other: "Report") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]
