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
        return ValidationReport(self.violations + other.violations)
