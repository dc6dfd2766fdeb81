"""Centralizers of parameter images and the closed-form R-group rank.

The centralizer of a valid parameter's image inside the dual group is a
product of classical factors, one per canonical entry: GL for dual pairs,
Sp for opposite-type summands, O (or SO after resolving the determinant
condition) for same-type summands.  The R-group is elementary abelian of
rank equal to the number of even-size full orthogonal factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InvalidParameter, UnresolvedConstraint
from .params import Family, GroupSpec, Parameter, classify, validate_parameter


class FactorKind(Enum):
    GENERAL_LINEAR = "GL"
    SYMPLECTIC = "Sp"
    FULL_ORTHOGONAL = "O"
    SPECIAL_ORTHOGONAL = "SO"


@dataclass(frozen=True)
class Factor:
    """One classical factor of a centralizer.

    ``size`` is the rank of the matrix group; ``source_dim`` is the
    dimension of the summand the factor centralizes, which is what the
    determinant condition raises each factor's determinant to.
    """

    kind: FactorKind
    size: int
    source_dim: int

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"factor size must be positive, got {self.size}")
        if self.source_dim < 1:
            raise ValueError(
                f"source_dim must be positive, got {self.source_dim}"
            )
        if self.kind is FactorKind.SYMPLECTIC and self.size % 2:
            raise ValueError("symplectic factors need even size")

    def describe(self) -> str:
        return f"{self.kind.value}({self.size})"


@dataclass(frozen=True)
class CentralizerDescriptor:
    """A product of classical factors plus an optional determinant condition.

    ``det_constraint`` lists (factor index, exponent) pairs for the live
    condition "product of det(g_i)^exponent equals 1"; factors whose
    source dimension is even never constrain and are dropped, so every
    retained exponent is 1.  ``None`` means the ambient family imposes no
    condition at all (even orthogonal and unitary targets); an empty tuple
    means the condition exists but is vacuous or already resolved.
    Descriptors produced by :func:`centralizer` always come fully
    resolved; :func:`unresolved_centralizer` keeps the condition live.
    """

    factors: tuple[Factor, ...]
    det_constraint: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        for idx, exponent in self.det_constraint or ():
            if not 0 <= idx < len(self.factors):
                raise ValueError(f"constraint index {idx} out of range")
            factor = self.factors[idx]
            if factor.kind is not FactorKind.FULL_ORTHOGONAL:
                raise ValueError(
                    "determinant constraints apply only to full orthogonal"
                    f" factors, not {factor.describe()}"
                )
            if exponent != 1 or factor.source_dim % 2 == 0:
                raise ValueError(
                    "constraint exponents equal source_dim mod 2; even"
                    " source dimensions are dropped"
                )

    @property
    def has_live_constraint(self) -> bool:
        return bool(self.det_constraint)

    def describe(self) -> str:
        body = " x ".join(f.describe() for f in self.factors) or "1"
        if self.has_live_constraint:
            idxs = ",".join(str(i) for i, _ in self.det_constraint)
            body += f"  [det condition on factors {idxs}]"
        return body


@dataclass(frozen=True)
class ElementaryTwoGroup:
    """(Z/2)^rank; rank 0 is the trivial group."""

    rank: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be non-negative, got {self.rank}")

    @property
    def order(self) -> int:
        return 1 << self.rank

    def __str__(self) -> str:
        return "1" if self.rank == 0 else f"Z2^{self.rank}"


def constrained_indices(desc: CentralizerDescriptor) -> tuple[int, ...]:
    return tuple(idx for idx, _ in desc.det_constraint or ())


def _centralizer_factors(psi: Parameter, group: GroupSpec) -> list[Factor]:
    """One factor per canonical entry of a valid parameter, in
    classification order: a dual pair of multiplicity m centralizes to
    GL(m); an opposite-type summand of multiplicity m (necessarily even)
    to Sp(m); a same-type summand of multiplicity m to O(m)."""
    validate_parameter(psi, group).require(InvalidParameter, "centralizer")
    buckets = classify(psi, group)
    factors: list[Factor] = []
    for entry in buckets.dual_pairs:
        factors.append(
            Factor(FactorKind.GENERAL_LINEAR, entry.multiplicity, entry.summand.dim)
        )
    for entry in buckets.opposite_type:
        factors.append(
            Factor(FactorKind.SYMPLECTIC, entry.multiplicity, entry.summand.dim)
        )
    for entry in buckets.same_type_odd_mult + buckets.same_type_even_mult:
        factors.append(
            Factor(FactorKind.FULL_ORTHOGONAL, entry.multiplicity, entry.summand.dim)
        )
    return factors


def _odd_source_orthogonal(factors: list[Factor]) -> list[int]:
    """Indices of the factors the determinant condition constrains."""
    return [
        i
        for i, f in enumerate(factors)
        if f.kind is FactorKind.FULL_ORTHOGONAL and f.source_dim % 2
    ]


def centralizer(psi: Parameter, group: GroupSpec) -> CentralizerDescriptor:
    """Centralizer descriptor of a valid parameter, constraint resolved.

    The factors are those of :func:`unresolved_centralizer`.  For
    symplectic and odd orthogonal targets the factors are cut by the
    condition that the product of determinants, each raised to its
    summand's dimension, is 1.  Odd orthogonal targets make the condition
    vacuous (every same-type summand has even dimension).  For a
    symplectic target the total dimension is odd, so some same-type factor
    has odd size and odd source dimension; fixing the determinant of one
    such factor solves the condition and turns that factor into SO,
    leaving every other factor free.
    """
    factors = _centralizer_factors(psi, group)
    if group.family is Family.EVEN_ORTHOGONAL:
        return CentralizerDescriptor(tuple(factors), None)

    constrained = _odd_source_orthogonal(factors)
    if constrained:
        demotable = [i for i in constrained if factors[i].size % 2]
        if not demotable:
            raise UnresolvedConstraint(
                "no odd-size factor with odd source dimension can absorb the"
                " determinant condition"
            )
        i = demotable[0]
        factors[i] = Factor(
            FactorKind.SPECIAL_ORTHOGONAL, factors[i].size, factors[i].source_dim
        )
    return CentralizerDescriptor(tuple(factors), ())


def unresolved_centralizer(
    psi: Parameter, group: GroupSpec
) -> CentralizerDescriptor:
    """Centralizer descriptor of a valid parameter, constraint left live.

    The same factors as :func:`centralizer`, with no factor demoted to SO:
    for symplectic and odd orthogonal targets every O factor of odd source
    dimension is listed in a live ``det_constraint``, which the
    brute-force quotient then enumerates.  Even orthogonal targets impose
    no condition.
    """
    factors = _centralizer_factors(psi, group)
    if group.family is Family.EVEN_ORTHOGONAL:
        return CentralizerDescriptor(tuple(factors), None)
    live = tuple((i, 1) for i in _odd_source_orthogonal(factors))
    return CentralizerDescriptor(tuple(factors), live)


def arthur_r_group(psi: Parameter, group: GroupSpec) -> ElementaryTwoGroup:
    """Closed-form R-group of a valid parameter.

    The rank is the number of same-type even-multiplicity entries: GL and
    Sp factors are connected, odd-size orthogonal factors contribute
    nothing (their reflection component centralizes the torus), and each
    even-size full orthogonal factor contributes one Z/2.
    """
    buckets = classify(psi, group)
    return ElementaryTwoGroup(buckets.d)


def descriptor_rank(desc: CentralizerDescriptor) -> ElementaryTwoGroup:
    """R-group rank read off a resolved descriptor.

    Counts even-size full orthogonal factors.  Defined only when no live
    determinant constraint remains.
    """
    if desc.has_live_constraint:
        raise ValueError(
            "descriptor rank is defined for resolved descriptors only;"
            " use the brute-force quotient for live constraints"
        )
    rank = sum(
        1
        for f in desc.factors
        if f.kind is FactorKind.FULL_ORTHOGONAL and f.size % 2 == 0
    )
    return ElementaryTwoGroup(rank)


def component_group(desc: CentralizerDescriptor) -> ElementaryTwoGroup:
    """Component group of the descriptor, for diagnostics.

    Each full orthogonal factor has two components; GL, Sp and SO factors
    are connected.  A live determinant condition ties the component signs
    of the constrained factors together and cuts the sign group by one.
    """
    full_count = sum(
        1 for f in desc.factors if f.kind is FactorKind.FULL_ORTHOGONAL
    )
    binds = 1 if desc.has_live_constraint else 0
    return ElementaryTwoGroup(full_count - binds)
