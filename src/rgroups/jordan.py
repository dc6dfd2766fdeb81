"""Jordan-block data for discrete series of classical groups.

A discrete series sigma of G_m is represented purely by its set of
Jordan blocks (rho, a): self-dual cuspidal symbols paired with segment
lengths.  The blocks determine the parameter of sigma (each block
contributes rho (x) S_a once) and drive the reducibility predicate for
parabolic induction from GL x G_m.  For U(m) the blocks are
conjugate-self-dual symbols, and the parity condition is the sign
condition lambda (-1)^(a+1) = (-1)^(m+1), which is again "same type as
the dual group" (see :mod:`rgroups.params`).
"""

from __future__ import annotations

from .params import _O_EVEN, _UNITARY, CuspidalSymbol, Family, GroupSpec, Summand
from .validation import ValidationReport, Value, Violation, report, slot_setters


class JordanData(Value):
    """The set Jord(sigma) defining a discrete series sigma of ``group``.

    Blocks are stored sorted and deduplicated, so the set semantics are
    structural.  Construction is permissive; :func:`validate_jordan`
    reports broken invariants as data.
    """

    __match_args__ = ("group", "blocks")
    __slots__ = (*__match_args__, "_report")
    # The report of `validate_jordan`, outside the value (see `Value`).
    _report: ValidationReport | None

    def __init__(self, group: GroupSpec, blocks: tuple[Summand, ...]) -> None:
        _set_jordan_group(self, group)
        # the set, which hashes each Summand, only when two sorted keys are equal
        ordered = sorted(blocks, key=Summand.sort_key)
        for prev, block in zip(ordered, ordered[1:]):
            if block.a == prev.a and block.rho.label == prev.rho.label:
                ordered = sorted(set(blocks), key=Summand.sort_key)
                break
        _set_jordan_blocks(self, tuple(ordered))
        _set_jordan_report(self, None)

    def total_dimension(self) -> int:
        total = 0
        for b in self.blocks:
            total += b.dim
        return total


_set_jordan_group, _set_jordan_blocks, _set_jordan_report = slot_setters(JordanData)


def _symbol_violations(rho: CuspidalSymbol, family: Family, subject: str) -> list[Violation]:
    """The per-symbol rules that ``rho``, used as ``subject``, breaks in
    ``family``: its duality vocabulary, then a usable sign.  Each caller
    runs it only on a failed check, so a passing symbol formats nothing."""
    violations = []
    if rho.conjugate != (family is _UNITARY):
        message = f"{subject} has the wrong duality vocabulary for family {family.value!r}"
        violations.append(Violation("vocabulary", message))
    if not rho.lambda_matches:
        message = f"{subject} has even dimension and no sign-agreement hypothesis"
        violations.append(Violation("sign-hypothesis", message))
    return violations


def validate_jordan(sigma: JordanData) -> ValidationReport:
    """Report every violated Jordan-data invariant.

    Checks per block: the symbol is conjugate exactly for U(m) (see
    ``CuspidalSymbol.conjugate``), it is self-dual, its sign is usable (see
    ``CuspidalSymbol.lambda_matches``) and rho (x) S_a matches the dual
    group's type.  Globally: per-symbol segment lengths share one parity,
    the dimensions fill the dual group, and the even orthogonal family
    excludes rank 1 (O(2, F) has no discrete series).  U(m) words the
    rules in conjugate duality and reports a mixed parity only through
    the J-1 line it always comes with.  Run once and kept on ``sigma``.
    """
    if sigma._report is not None:
        return sigma._report
    violations: list[Violation] = []
    group = sigma.group
    unitary = group.family is _UNITARY
    conj = "conjugate-" if unitary else ""

    if group.family is _O_EVEN and group.rank == 1:
        violations.append(
            Violation(
                "no-discrete-series",
                "O(2, F) has no square integrable representations",
            )
        )

    for block in sigma.blocks:
        rho = block.rho
        if rho.conjugate != unitary or not rho.lambda_matches:
            # a block reports only the first rule its symbol breaks
            subject = f"block {block.describe()}"
            violations.append(_symbol_violations(rho, group.family, subject)[0])
            continue
        if not rho.self_dual:
            violations.append(
                Violation(
                    f"{conj}self-dual",
                    f"block {block.describe()} uses a non-{conj}self-dual symbol",
                )
            )
            continue
        if block.duality is not group.dual_type:
            if unitary:
                reason = f"fails the sign condition for {group.describe()}"
            else:
                reason = f"is not of the same type as the dual group of {group.describe()}"
            violations.append(Violation("J-1", f"block {block.describe()} {reason}"))

    if not unitary:
        # The blocks are sorted by (label, a): a label's blocks are adjacent,
        # and its parity is mixed exactly when two adjacent ones differ.
        blocks, flagged = sigma.blocks, None
        for prev, block in zip(blocks, blocks[1:]):
            label = block.rho.label
            if (block.a - prev.a) % 2 and label == prev.rho.label and label != flagged:
                flagged = label
                violations.append(
                    Violation("J-1", f"mixed parity in the blocks attached to {label!r}")
                )

    total = sigma.total_dimension()
    if total != group.dual_dimension:
        target = group.describe() if unitary else f"dual group of {group.describe()}"
        violations.append(
            Violation(
                "dimension",
                f"blocks fill dimension {total}, {target} needs {group.dual_dimension}",
            )
        )
    _set_jordan_report(sigma, report(violations))
    return sigma._report
