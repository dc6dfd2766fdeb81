"""Formal algebra of discrete L-parameters for classical groups.

A parameter is modelled as a finite multiset of irreducible summands
rho (x) S_a, where rho is an opaque cuspidal symbol carrying a dimension
and a duality type, and S_a is the a-dimensional irreducible algebraic
representation of SL(2, C).  Nothing analytic is computed here: duality
types and dual pairings are declared attributes of the symbols, and every
operation is pure bookkeeping over them.

The unitary group U(n) of a quadratic extension E/F uses the same
algebra.  A conjugate-self-dual symbol of sign lambda plays the role of
an orthogonal (lambda = +1) or symplectic (lambda = -1) symbol, twisting
by S_a flips the sign for a even exactly as :func:`tensor_type` does, and
the dual type of U(n) is the sign (-1)^(n-1).  The centralizer buckets
are the same, with no determinant condition.
"""

from __future__ import annotations

from enum import Enum
from operator import lt
from typing import Iterable

from .errors import InconsistentSymbol, InvalidParameter, UnpairedDual
from .validation import ValidationReport, Value, Violation, report, slot_setters


class Family(Enum):
    """Classical group families over a p-adic field F."""

    __hash__ = object.__hash__  # see ``_NOT_SELF_DUAL``
    SYMPLECTIC = "sp"           # Sp(2n, F), dual group SO(2n+1, C)
    ODD_ORTHOGONAL = "so-odd"   # SO(2n+1, F), dual group Sp(2n, C)
    EVEN_ORTHOGONAL = "o-even"  # O(2n, F), dual group O(2n, C)
    UNITARY = "unitary"         # U(n) w.r.t. E/F, dual group GL(n, C)


class DualityType(Enum):
    """Whether an irreducible summand preserves a symmetric form
    (orthogonal), an alternating form (symplectic), or no form at all.
    The two self-dual variants are mutually exclusive."""

    __hash__ = object.__hash__  # see ``_NOT_SELF_DUAL``
    NOT_SELF_DUAL = "not-self-dual"
    ORTHOGONAL = "orthogonal"
    SYMPLECTIC = "symplectic"


# Two rules for the package's enums, stated here once.  Members hash by
# identity (``__hash__ = object.__hash__``), which agrees with their ``==``,
# so tables and caches key on the members, not through the Python-level
# ``Enum.__hash__``.  Paths that run per summand read members through module
# globals like these: up to Python 3.11 a ``DualityType.X`` read goes through
# the metaclass's ``__getattr__`` hook, about ten times a global read.
_NOT_SELF_DUAL = DualityType.NOT_SELF_DUAL
_ORTHOGONAL = DualityType.ORTHOGONAL
_SYMPLECTIC = DualityType.SYMPLECTIC
_SP_FAMILY, _O_EVEN, _UNITARY = Family.SYMPLECTIC, Family.EVEN_ORTHOGONAL, Family.UNITARY


# Per family: the group's name, the dual type for even and for odd rank,
# and the dimensions m * rank + offset of the dual group's standard
# representation and of the group's own.
_FAMILY_TABLE = {
    Family.SYMPLECTIC: ("Sp({m}, F)", (_ORTHOGONAL, _ORTHOGONAL), 2, 1, 0),
    Family.ODD_ORTHOGONAL: ("SO({m}, F)", (_SYMPLECTIC, _SYMPLECTIC), 2, 0, 1),
    Family.EVEN_ORTHOGONAL: ("O({m}, F)", (_ORTHOGONAL, _ORTHOGONAL), 2, 0, 0),
    Family.UNITARY: ("U({m})", (_SYMPLECTIC, _ORTHOGONAL), 1, 0, 0),
}


class GroupSpec(Value):
    """A group G in one of the four families, identified by its rank.

    Rank 0 is the trivial group; it occurs as the residual factor of a
    pure-GL Levi subgroup and is otherwise uninteresting.

    Derived at construction, outside ``==``, ``hash`` and ``repr``:
    ``dual_dimension``, the dimension of the standard representation of
    the dual group; ``dual_type``, its duality type, which for U(n) is the
    sign (-1)^(n-1): orthogonal for n odd, symplectic for n even.
    """

    __match_args__ = ("family", "rank")
    __slots__ = (*__match_args__, "dual_type", "dual_dimension")
    dual_type: DualityType
    dual_dimension: int

    def __init__(self, family: Family, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        _, types, m, offset, _ = _FAMILY_TABLE[family]
        _set_group_family(self, family)
        _set_group_rank(self, rank)
        _set_group_dual_type(self, types[rank % 2])
        _set_group_dual_dimension(self, m * rank + offset)

    def describe(self) -> str:
        name, _, m, _, offset = _FAMILY_TABLE[self.family]
        return name.format(m=m * self.rank + offset)


(_set_group_family, _set_group_rank, _set_group_dual_type,
 _set_group_dual_dimension) = slot_setters(GroupSpec)


def tensor_type(rho_type: DualityType, a: int) -> DualityType:
    """Duality type of rho (x) S_a given the type of rho.

    S_a preserves a symmetric bilinear form for a odd and an alternating
    one for a even.  Tensoring multiplies form symmetries: like types give
    orthogonal, unlike types give symplectic.  Non-self-dual stays
    non-self-dual.
    """
    if a < 1:
        raise ValueError(f"a must be a positive integer, got {a}")
    if a % 2 or rho_type is _NOT_SELF_DUAL:
        return rho_type
    return _SYMPLECTIC if rho_type is _ORTHOGONAL else _ORTHOGONAL


class CuspidalSymbol(Value):
    """A formal irreducible cuspidal datum of some GL(dim, F).

    Labels are opaque and compared as plain strings.  The duality type and
    the dual pairing are declared, never computed: the pole criteria that
    would determine them for an actual representation are analytic and out
    of scope for a symbolic calculator.

    ``conjugate`` marks a datum of GL(dim, E) in the unitary vocabulary:
    conjugate duality, with a conjugate-self-dual symbol of sign lambda
    stored as ORTHOGONAL (lambda = +1) or SYMPLECTIC (lambda = -1), in any
    dimension.  The sign serves both the representation and the parameter
    side.  The two agree automatically in odd dimension; in even dimension
    ``lambda_matches=False`` records that their agreement is not assumed,
    and validation then rejects every block or delta on the symbol.
    """

    __slots__ = __match_args__ = (
        "label", "dim", "duality", "dual_label", "conjugate", "lambda_matches"
    )

    def __init__(
        self, label: str, dim: int, duality: DualityType, dual_label: str | None = None,
        conjugate: bool = False, lambda_matches: bool = True,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be positive, got {dim}")
        if duality is _SYMPLECTIC and dim % 2 and not conjugate:
            raise ValueError(f"symplectic symbol {label!r} must have even dimension")
        if not lambda_matches:
            if dim % 2:
                raise ValueError("the two signs agree automatically in odd dimension")
            if not conjugate or duality is _NOT_SELF_DUAL:
                raise ValueError("only a conjugate-self-dual symbol has a sign to match")
        if duality is _NOT_SELF_DUAL:
            if dual_label is None:
                raise ValueError(f"non-self-dual symbol {label!r} needs a dual_label")
            if dual_label == label:
                raise ValueError(f"symbol {label!r} cannot be its own dual")
        elif dual_label is not None:
            raise ValueError(f"self-dual symbol {label!r} must not carry a dual_label")
        _set_symbol_label(self, label)
        _set_symbol_dim(self, dim)
        _set_symbol_duality(self, duality)
        _set_symbol_dual_label(self, dual_label)
        _set_symbol_conjugate(self, conjugate)
        _set_symbol_lambda_matches(self, lambda_matches)

    @property
    def self_dual(self) -> bool:
        return self.duality is not _NOT_SELF_DUAL

    def dual_partner(self) -> "CuspidalSymbol":
        """The symbol of the dual representation (non-self-dual case only)."""
        if self.dual_label is None:
            raise ValueError(f"{self.label!r} is self-dual")
        return CuspidalSymbol(
            self.dual_label, self.dim, _NOT_SELF_DUAL, self.label, self.conjugate
        )


(_set_symbol_label, _set_symbol_dim, _set_symbol_duality, _set_symbol_dual_label,
 _set_symbol_conjugate, _set_symbol_lambda_matches) = slot_setters(CuspidalSymbol)


class Summand(Value):
    """An irreducible summand rho (x) S_a.

    ``dim`` and ``duality`` are derived at construction and take no part
    in ``==``, ``hash`` or ``repr``.
    """

    __match_args__ = ("rho", "a")
    __slots__ = (*__match_args__, "dim", "duality")
    dim: int
    duality: DualityType

    def __init__(self, rho: CuspidalSymbol, a: int) -> None:
        # tensor_type rejects a < 1 with this class's message.
        _set_summand_duality(self, tensor_type(rho.duality, a))
        _set_summand_rho(self, rho)
        _set_summand_a(self, a)
        _set_summand_dim(self, rho.dim * a)

    @property
    def self_dual(self) -> bool:
        return self.duality is not _NOT_SELF_DUAL

    def sort_key(self) -> tuple[str, int]:
        return (self.rho.label, self.a)

    def dual_partner(self) -> "Summand":
        return Summand(self.rho.dual_partner(), self.a)

    def describe(self) -> str:
        return f"{self.rho.label}(x)S_{self.a}"


_set_summand_rho, _set_summand_a, _set_summand_dim, _set_summand_duality = slot_setters(Summand)


class ParameterEntry(Value):
    """One canonical entry: a summand with its multiplicity.

    A non-self-dual entry stands for the whole dual pair at this
    multiplicity, stored once under the lexicographically smaller label.
    """

    __slots__ = __match_args__ = ("summand", "multiplicity")

    def __init__(self, summand: Summand, multiplicity: int) -> None:
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be positive, got {multiplicity}")
        _set_entry_summand(self, summand)
        _set_entry_multiplicity(self, multiplicity)


_set_entry_summand, _set_entry_multiplicity = slot_setters(ParameterEntry)


class Parameter(Value):
    """A parameter in canonical form.

    Entries are sorted by (label, a), summands are pairwise distinct, and
    each dual pair appears once under its representative.  Build through
    :func:`canonicalize`.
    """

    __match_args__ = ("entries",)
    __slots__ = (*__match_args__, "_checked")
    # The last group and its checking pass (see `checked`), outside the
    # value (see `Value`).
    _checked: tuple[GroupSpec, _Checked] | None

    def __init__(self, entries: tuple[ParameterEntry, ...]) -> None:
        keys = [(e.summand.rho.label, e.summand.a) for e in entries]
        if not all(map(lt, keys, keys[1:])):
            raise ValueError("entries must be sorted and pairwise distinct")
        for e in entries:
            rho = e.summand.rho  # a dual pair's symbol is the one with a dual_label
            if rho.dual_label is not None and rho.label > rho.dual_label:
                raise ValueError(
                    f"dual pair {e.summand.describe()} is not stored under its"
                    " lexicographic representative"
                )
        _set_parameter_entries(self, entries)
        _set_parameter_checked(self, None)

    def expanded_entries(self) -> list[tuple[Summand, int]]:
        """Raw (summand, multiplicity) list with dual pairs expanded,
        sorted by (label, a)."""
        out: list[tuple[Summand, int]] = []
        for e in self.entries:
            out.append((e.summand, e.multiplicity))
            if e.summand.duality is _NOT_SELF_DUAL:
                out.append((e.summand.dual_partner(), e.multiplicity))
        return sorted(out, key=lambda item: item[0].sort_key())

    def describe(self) -> str:
        parts = []
        for e in self.entries:
            piece = f"{e.multiplicity}*{e.summand.describe()}"
            if e.summand.duality is _NOT_SELF_DUAL:
                piece += f" (+) {e.multiplicity}*{e.summand.rho.dual_label}(x)S_{e.summand.a}"
            parts.append(piece)
        return " (+) ".join(parts) if parts else "0"


_set_parameter_entries, _set_parameter_checked = slot_setters(Parameter)
_new = object.__new__


def canonicalize(entries: Iterable[tuple[Summand, int]]) -> Parameter:
    """Merge a raw summand list into canonical form.

    Multiplicities of equal summands add; every non-self-dual summand must
    be matched by its dual partner at equal multiplicity, and the pair is
    kept once under the smaller label.  Idempotent and
    dimension-preserving.  A label must be declared with one symbol, and
    the members of a dual pair must be each other's ``dual_partner()``.
    """
    merged: dict[tuple[str, int], list] = {}  # (label, a) -> [summand, multiplicity]
    symbols: dict[str, CuspidalSymbol] = {}
    clash = None  # raised after the pass: per-entry errors rank first
    for summand, mult in entries:
        if mult < 1:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        rho = summand.rho
        key = (rho.label, summand.a)
        slot = merged.get(key)
        if slot is None:
            merged[key] = [summand, mult]
            seen = symbols.setdefault(rho.label, rho)
            if clash is None and seen is not rho and seen != rho:
                clash = rho.label
        elif slot[0] is summand or slot[0] == summand:
            slot[1] += mult
        else:
            raise InconsistentSymbol(f"label {rho.label!r} declared with conflicting attributes")
    if clash is not None:
        raise InconsistentSymbol(f"label {clash!r} declared with conflicting attributes")
    for sym in symbols.values():
        partner = None if sym.dual_label is None else symbols.get(sym.dual_label)
        if partner is not None and (
            partner.dual_label != sym.label
            or partner.dim != sym.dim
            or partner.conjugate != sym.conjugate
        ):
            raise InconsistentSymbol(
                f"dual pairing between {sym.label!r} and {sym.dual_label!r}"
                " is not a dimension-preserving involution"
            )

    # The merge has proved what the constructors would check again: every
    # multiplicity is positive (checked per raw entry, and sums of positives
    # stay positive), the keys are sorted and distinct (sorted dict keys),
    # and each dual pair is kept under its smaller label (the
    # ``dual_key < key`` skip).  So the entries and the result are built
    # without their ``__init__``; it still checks every direct construction,
    # unpickling and copy.
    canonical: list[ParameterEntry] = []
    for key in sorted(merged):  # sorting the keys beats sorting the items
        summand, mult = merged[key]
        if summand.duality is _NOT_SELF_DUAL:
            dual_key = (summand.rho.dual_label, summand.a)
            partner = merged.get(dual_key)
            if partner is None:
                raise UnpairedDual(
                    f"{summand.describe()} has no dual partner"
                    f" {summand.rho.dual_label!r} in the parameter"
                )
            if dual_key < key:
                continue  # kept under its representative, visited first
            if partner[1] != mult:
                raise UnpairedDual(
                    f"{summand.describe()} appears {mult} times but its"
                    f" dual appears {partner[1]} times"
                )
        entry = _new(ParameterEntry)
        _set_entry_summand(entry, summand)
        _set_entry_multiplicity(entry, mult)
        canonical.append(entry)
    psi = _new(Parameter)
    _set_parameter_entries(psi, tuple(canonical))
    _set_parameter_checked(psi, None)
    return psi


class Classification(Value):
    """Partition of canonical entries into the four centralizer buckets.

    The rank of the parameter's R-group is the size of the last bucket:
    self-dual summands of the same type as the dual group occurring with
    even multiplicity.
    """

    __slots__ = __match_args__ = (
        "dual_pairs", "opposite_type", "same_type_odd_mult", "same_type_even_mult"
    )

    def __init__(
        self, dual_pairs: tuple[ParameterEntry, ...], opposite_type: tuple[ParameterEntry, ...],
        same_type_odd_mult: tuple[ParameterEntry, ...],
        same_type_even_mult: tuple[ParameterEntry, ...],
    ) -> None:
        _set_dual_pairs(self, dual_pairs)
        _set_opposite_type(self, opposite_type)
        _set_same_type_odd_mult(self, same_type_odd_mult)
        _set_same_type_even_mult(self, same_type_even_mult)

    @property
    def d(self) -> int:
        return len(self.same_type_even_mult)

    @property
    def buckets(self) -> tuple[tuple[ParameterEntry, ...], ...]:
        return (
            self.dual_pairs,
            self.opposite_type,
            self.same_type_odd_mult,
            self.same_type_even_mult,
        )


(_set_dual_pairs, _set_opposite_type, _set_same_type_odd_mult,
 _set_same_type_even_mult) = slot_setters(Classification)


_Checked = tuple[ValidationReport, Classification]


def _check_entries(psi: Parameter, group: GroupSpec) -> _Checked:
    """The checking pass: one loop that fills the buckets and collects violations."""
    dual_type = group.dual_type
    violations: list[Violation] = []
    pairs, opposite, same_odd, same_even = [], [], [], []
    total = 0
    for entry in psi.entries:
        summand, mult = entry.summand, entry.multiplicity
        duality = summand.duality
        if duality is _NOT_SELF_DUAL:
            total += 2 * mult * summand.dim
            pairs.append(entry)
            continue
        total += mult * summand.dim
        if duality is not dual_type:
            opposite.append(entry)
            if mult % 2:
                violations.append(
                    Violation(
                        "odd-multiplicity",
                        f"{summand.describe()} has type opposite to the"
                        f" dual group but odd multiplicity {mult}",
                    )
                )
        elif mult % 2:
            same_odd.append(entry)
        else:
            same_even.append(entry)
    if total != group.dual_dimension:
        violations.insert(
            0,
            Violation(
                "dimension",
                f"parameter has dimension {total}, dual group of"
                f" {group.describe()} needs {group.dual_dimension}",
            ),
        )
    buckets = Classification(tuple(pairs), tuple(opposite), tuple(same_odd), tuple(same_even))
    return report(violations), buckets


def checked(psi: Parameter, group: GroupSpec) -> _Checked:
    """The checking pass of ``psi`` against ``group``, kept on ``psi`` for
    the last group: the callers of one parameter pass one group value, as
    the same object or an equal one, so nothing is hashed."""
    kept = psi._checked
    if kept is not None and (kept[0] is group or kept[0] == group):
        return kept[1]
    result = _check_entries(psi, group)
    _set_parameter_checked(psi, (group, result))
    return result


def validate_parameter(psi: Parameter, group: GroupSpec) -> ValidationReport:
    """Check a canonical parameter against a target dual group.

    Violations are reported as data; an empty report means valid.  A
    self-dual summand whose type differs from the dual group's must occur
    with even multiplicity, and the total dimension must fill the dual
    group exactly.
    """
    return checked(psi, group)[0]


def classify(psi: Parameter, group: GroupSpec) -> Classification:
    """Partition a valid parameter's entries into the four buckets."""
    report, buckets = checked(psi, group)
    report.require(InvalidParameter, "classify")
    return buckets
