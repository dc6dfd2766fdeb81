"""Validation reports: violations are data, not exceptions."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Violation:
    """A single broken invariant, tagged with a short rule name."""

    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """The violations one check found, in the order found; ``ok`` when
    there are none.  Build through :func:`report`."""

    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, exc_type: type[Exception], context: str) -> None:
        """Raise ``exc_type`` listing all violations, after ``context``,
        unless the report is clean."""
        if self.violations:
            lines = "; ".join(str(v) for v in self.violations)
            raise exc_type(f"{context}: {lines}")

    def __add__(self, other: "ValidationReport") -> "ValidationReport":
        if not other.violations:
            return self
        return ValidationReport(self.violations + other.violations)


CLEAN = ValidationReport()


def report(violations: list[Violation]) -> ValidationReport:
    """A report of ``violations``: the one shared :data:`CLEAN` when there
    are none, so that a clean check builds nothing."""
    return ValidationReport(tuple(violations)) if violations else CLEAN
