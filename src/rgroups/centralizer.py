"""Centralizers of parameter images and the closed-form R-group rank.

The centralizer of a valid parameter's image inside the dual group is a
product of classical factors, one per canonical entry: GL for dual pairs,
Sp for opposite-type summands, O (or SO after resolving the determinant
condition) for same-type summands.  The R-group is elementary abelian of
rank equal to the number of even-size full orthogonal factors.

For U(n) the dual group is GL(n, C) and the parameter is read over the
quadratic extension: the factors follow the summands in (label, a)
order, each member of a conjugate-dual pair gives its own GL factor, and
there is no determinant condition.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache

from .errors import InvalidParameter, UnresolvedConstraint
from .params import _NOT_SELF_DUAL, _O_EVEN, _UNITARY, GroupSpec, Parameter, checked
from .validation import Value, slot_setters


class FactorKind(Enum):
    __hash__ = object.__hash__  # see ``params._NOT_SELF_DUAL``
    GENERAL_LINEAR = "GL"
    SYMPLECTIC = "Sp"
    FULL_ORTHOGONAL = "O"
    SPECIAL_ORTHOGONAL = "SO"


# Module globals for the per-factor paths (see ``params._NOT_SELF_DUAL``).
_GL = FactorKind.GENERAL_LINEAR
_SP = FactorKind.SYMPLECTIC
_O = FactorKind.FULL_ORTHOGONAL
_SO = FactorKind.SPECIAL_ORTHOGONAL


class Factor(Value):
    """One classical factor of a centralizer.

    ``size`` is the rank of the matrix group; ``source_dim`` is the
    dimension of the summand the factor centralizes, which is what the
    determinant condition raises each factor's determinant to.
    """

    __slots__ = __match_args__ = ("kind", "size", "source_dim")

    def __init__(self, kind: FactorKind, size: int, source_dim: int) -> None:
        if size < 1:
            raise ValueError(f"factor size must be positive, got {size}")
        if source_dim < 1:
            raise ValueError(f"source_dim must be positive, got {source_dim}")
        if kind is _SP and size % 2:
            raise ValueError("symplectic factors need even size")
        _set_factor_kind(self, kind)
        _set_factor_size(self, size)
        _set_factor_source_dim(self, source_dim)

    def describe(self) -> str:
        return f"{self.kind.value}({self.size})"


_set_factor_kind, _set_factor_size, _set_factor_source_dim = slot_setters(Factor)


class CentralizerDescriptor(Value):
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

    __slots__ = __match_args__ = ("factors", "det_constraint")

    def __init__(
        self, factors: tuple[Factor, ...],
        det_constraint: tuple[tuple[int, int], ...] | None = None,
    ) -> None:
        for idx, exponent in det_constraint or ():
            if not 0 <= idx < len(factors):
                raise ValueError(f"constraint index {idx} out of range")
            factor = factors[idx]
            if factor.kind is not _O:
                raise ValueError(
                    "determinant constraints apply only to full orthogonal"
                    f" factors, not {factor.describe()}"
                )
            if exponent != 1 or factor.source_dim % 2 == 0:
                raise ValueError(
                    "constraint exponents equal source_dim mod 2; even"
                    " source dimensions are dropped"
                )
        _set_descriptor_factors(self, factors)
        _set_descriptor_det_constraint(self, det_constraint)

    @property
    def has_live_constraint(self) -> bool:
        return bool(self.det_constraint)

    def describe(self) -> str:
        body = " x ".join(f.describe() for f in self.factors) or "1"
        if self.has_live_constraint:
            idxs = ",".join(str(i) for i, _ in self.det_constraint)
            body += f"  [det condition on factors {idxs}]"
        return body


_set_descriptor_factors, _set_descriptor_det_constraint = slot_setters(CentralizerDescriptor)


class ElementaryTwoGroup(Value):
    """(Z/2)^rank; rank 0 is the trivial group."""

    __slots__ = __match_args__ = ("rank",)

    def __init__(self, rank: int) -> None:
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        _set_two_group_rank(self, rank)


(_set_two_group_rank,) = slot_setters(ElementaryTwoGroup)


# The value objects fixed by a shape, built and checked once per shape.  A
# bad shape raises on every call, since ``lru_cache`` keeps no exception;
# nothing is cached per parameter or per descriptor.
_factor = lru_cache(maxsize=None)(Factor)
rank_group = lru_cache(maxsize=None)(ElementaryTwoGroup)  # one (Z/2)^rank per rank


_BUCKET_KINDS = (_GL, _SP, _O, _O)


def _centralizer_factors(
    psi: Parameter, group: GroupSpec, caller: str
) -> tuple[list[Factor], list[int] | None]:
    """The factors of a valid parameter's centralizer, and the indices of
    those the determinant condition constrains: the O factors of odd
    source dimension, or ``None`` for even orthogonal and unitary targets.

    One factor per canonical entry, in classification order: a dual pair
    of multiplicity m gives GL(m), an opposite-type summand Sp(m) (m is
    even) and a same-type summand O(m).  For U(n), one factor per summand
    in (label, a) order, both members of a conjugate-dual pair included.
    """
    report, buckets = checked(psi, group)
    report.require(InvalidParameter, caller)
    if group.family is _UNITARY:
        kinds = {_NOT_SELF_DUAL: _GL, group.dual_type: _O}
        return [
            _factor(kinds.get(s.duality, _SP), m, s.dim)
            for s, m in psi.expanded_entries()
        ], None
    factors = [
        _factor(kind, entry.multiplicity, entry.summand.dim)
        for kind, bucket in zip(_BUCKET_KINDS, buckets.buckets)
        for entry in bucket
    ]
    if group.family is _O_EVEN:
        return factors, None
    return factors, [
        i for i, f in enumerate(factors) if f.kind is _O and f.source_dim % 2
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
    factors, live = _centralizer_factors(psi, group, "centralizer")
    demotable = [i for i in live or () if factors[i].size % 2]
    if live and not demotable:
        raise UnresolvedConstraint(
            "no odd-size factor with odd source dimension can absorb the"
            " determinant condition"
        )
    if demotable:
        i = demotable[0]
        factors[i] = _factor(_SO, factors[i].size, factors[i].source_dim)
    return CentralizerDescriptor(tuple(factors), None if live is None else ())


def unresolved_centralizer(
    psi: Parameter, group: GroupSpec
) -> CentralizerDescriptor:
    """Centralizer descriptor of a valid parameter, constraint left live.

    The same factors as :func:`centralizer`, with no factor demoted to SO:
    for symplectic and odd orthogonal targets every O factor of odd source
    dimension is listed in a live ``det_constraint``, which the
    brute-force quotient then enumerates.  Even orthogonal and unitary
    targets impose no condition.
    """
    factors, live = _centralizer_factors(psi, group, "unresolved_centralizer")
    constraint = None if live is None else tuple((i, 1) for i in live)
    return CentralizerDescriptor(tuple(factors), constraint)


def arthur_r_group(psi: Parameter, group: GroupSpec) -> ElementaryTwoGroup:
    """Closed-form R-group of a valid parameter.

    The rank is the number of same-type even-multiplicity entries: GL and
    Sp factors are connected, odd-size orthogonal factors contribute
    nothing (their reflection component centralizes the torus), and each
    even-size full orthogonal factor contributes one Z/2.
    """
    report, buckets = checked(psi, group)
    report.require(InvalidParameter, "arthur_r_group")
    return rank_group(buckets.d)

