"""Brute-force Weyl groups of centralizer descriptors.

Independent verification path for the closed-form R-group rank: realize
the Weyl group W = N(T)/Z(T) of each classical factor concretely as a
group of signed permutations, assemble the whole-descriptor W under the
determinant condition, and compute the quotient by the identity-component
Weyl group.

What is enumerated.  The determinant condition reads only the factors
listed in ``det_constraint`` (the live factors).  Every other factor
splits off as a direct factor of W and contributes its own rank; its
checks (W0 inside W, every element squaring into W0) run once per
(kind, size, element cap) and are cached beside the factor's Weyl
groups.  Only the product of the live factors' Weyl groups is enumerated
element by element, so a descriptor without live factors enumerates
nothing.  The torus-degree bound applies to the whole descriptor; the
element cap applies to each factor's Weyl group and to the live product.
Nothing is cached per descriptor.

Conventions.  A signed permutation of degree k is a pair
(perm, signs) with perm a tuple giving i -> perm[i] and signs in
{+1, -1}^k; it acts on basis vectors by e_i -> signs[i] * e_{perm[i]}.
The maximal torus of every factor is the standard diagonal one; all
maximal tori are conjugate, so nothing is lost by fixing it.

Weyl groups of the factors, with k letters per factor:

* GL(m): the symmetric group on m letters (no sign flips); connected.
* Sp(2k): all signed permutations of k letters; connected.
* O(2k+1): all signed permutations of k letters, and the identity
  component SO(2k+1) has the same Weyl group.  Every Weyl element has
  torus-normalizer lifts of both determinants because -1 is central.
* O(2k): all signed permutations of k letters; the identity component
  SO(2k) gives the even-sign subgroup.  A lift's determinant is the
  product of the element's signs.
* SO(m): the identity-component rows above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from math import prod

from .centralizer import (
    CentralizerDescriptor,
    ElementaryTwoGroup,
    Factor,
    FactorKind,
    constrained_indices,
)
from .errors import BoundExceeded, NonElementaryQuotient

Perm = tuple[int, ...]
Signs = tuple[int, ...]
SignedPerm = tuple[Perm, Signs]

DEFAULT_ELEMENT_CAP = 1_000_000
DEFAULT_TORUS_BOUND = 10


def identity_element(degree: int) -> SignedPerm:
    return (tuple(range(degree)), (1,) * degree)


def compose(g: SignedPerm, h: SignedPerm) -> SignedPerm:
    """g after h: (g.h)(e_i) = h_signs[i] * g_signs[h[i]] * e_{g[h[i]]}."""
    gp, gs = g
    hp, hs = h
    perm = tuple(gp[hp[i]] for i in range(len(gp)))
    signs = tuple(hs[i] * gs[hp[i]] for i in range(len(gp)))
    return (perm, signs)


def invert(g: SignedPerm) -> SignedPerm:
    gp, gs = g
    inv = [0] * len(gp)
    for i, j in enumerate(gp):
        inv[j] = i
    return (tuple(inv), tuple(gs[inv[j]] for j in range(len(gp))))


def sign_product(g: SignedPerm) -> int:
    return prod(g[1], start=1)


@dataclass(frozen=True)
class SignedPermGroup:
    """A finite group of signed permutations of fixed degree.

    ``even_signs_only`` records that the group was generated inside the
    even-sign-count subgroup (the SO(2k) Weyl group).
    """

    degree: int
    elements: frozenset[SignedPerm]
    even_signs_only: bool = False

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: SignedPerm) -> bool:
        return g in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def is_subgroup_of(self, other: "SignedPermGroup") -> bool:
        return self.elements <= other.elements

    def is_closed(self) -> bool:
        els = self.elements
        if identity_element(self.degree) not in els:
            return False
        return all(
            compose(g, h) in els for g in els for h in els
        ) and all(invert(g) in els for g in els)


def close_under_composition(
    degree: int,
    generators: list[SignedPerm],
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> frozenset[SignedPerm]:
    """Breadth-first closure of the generators. Inverses come for free in
    a finite group, so right-multiplication by generators suffices."""
    elements = {identity_element(degree)}
    frontier = list(elements)
    while frontier:
        new: list[SignedPerm] = []
        for g in frontier:
            for gen in generators:
                gh = compose(g, gen)
                if gh not in elements:
                    elements.add(gh)
                    if len(elements) > element_cap:
                        raise BoundExceeded(
                            f"group closure exceeded {element_cap} elements"
                        )
                    new.append(gh)
        frontier = new
    return frozenset(elements)


def _transpositions(degree: int) -> list[SignedPerm]:
    gens = []
    plus = (1,) * degree
    for i in range(degree - 1):
        perm = list(range(degree))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        gens.append((tuple(perm), plus))
    return gens


def _flip(degree: int, position: int) -> SignedPerm:
    signs = [1] * degree
    signs[position] = -1
    return (tuple(range(degree)), tuple(signs))


def symmetric_group(degree: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> SignedPermGroup:
    elements = close_under_composition(degree, _transpositions(degree), element_cap)
    return SignedPermGroup(degree, elements)


def hyperoctahedral_group(degree: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> SignedPermGroup:
    gens = _transpositions(degree)
    if degree >= 1:
        gens.append(_flip(degree, degree - 1))
    elements = close_under_composition(degree, gens, element_cap)
    return SignedPermGroup(degree, elements)


def even_sign_group(degree: int, element_cap: int = DEFAULT_ELEMENT_CAP) -> SignedPermGroup:
    """Signed permutations with an even number of sign flips."""
    gens = _transpositions(degree)
    if degree >= 2:
        double = [1] * degree
        double[0] = double[1] = -1
        gens.append((tuple(range(degree)), tuple(double)))
    elements = close_under_composition(degree, gens, element_cap)
    return SignedPermGroup(degree, elements, even_signs_only=True)


def torus_degree(factor: Factor) -> int:
    """Rank of the factor's standard maximal torus, in signed-perm letters."""
    if factor.kind is FactorKind.GENERAL_LINEAR:
        return factor.size
    return factor.size // 2


@lru_cache(maxsize=None)
def _weyl_of_factor_cached(
    kind: FactorKind, size: int, element_cap: int
) -> tuple[SignedPermGroup, SignedPermGroup]:
    k = torus_degree(Factor(kind, size, 1))
    if kind is FactorKind.GENERAL_LINEAR:
        full = symmetric_group(k, element_cap)
        return full, full
    if kind is FactorKind.SYMPLECTIC:
        full = hyperoctahedral_group(k, element_cap)
        return full, full
    if kind is FactorKind.FULL_ORTHOGONAL:
        full = hyperoctahedral_group(k, element_cap)
        if size % 2:
            return full, full
        return full, even_sign_group(k, element_cap)
    if kind is FactorKind.SPECIAL_ORTHOGONAL:
        if size % 2:
            full = hyperoctahedral_group(k, element_cap)
            return full, full
        full = even_sign_group(k, element_cap)
        return full, full
    raise ValueError(f"unknown factor kind {kind}")


def weyl_of_factor(
    kind: FactorKind, size: int, element_cap: int = DEFAULT_ELEMENT_CAP
) -> tuple[SignedPermGroup, SignedPermGroup]:
    """(W, W0) of one factor: the full Weyl group and the Weyl group of
    the factor's identity component, both as explicit signed-permutation
    groups on ``torus_degree`` letters."""
    if size < 1:
        raise ValueError(f"factor size must be positive, got {size}")
    return _weyl_of_factor_cached(kind, size, element_cap)


@dataclass(frozen=True)
class _FactorQuotient:
    """One factor's W, in a fixed order, with what the quotient needs of W0."""

    elements: tuple[SignedPerm, ...]
    w0: frozenset[SignedPerm]
    squares_into_w0: bool


@lru_cache(maxsize=None)
def _factor_quotient(kind: FactorKind, size: int, element_cap: int) -> _FactorQuotient:
    """The per-factor checks, which depend only on (kind, size): W0 must lie
    in W, and whether every element of W squares into W0 is recorded."""
    full, ident = weyl_of_factor(kind, size, element_cap)
    if not ident.is_subgroup_of(full):
        raise NonElementaryQuotient(
            "identity-component Weyl group is not contained in W"
        )
    squares = all(compose(g, g) in ident.elements for g in full.elements)
    return _FactorQuotient(tuple(sorted(full.elements)), ident.elements, squares)


def _det_class(factor: Factor, element: SignedPerm) -> tuple[int, ...]:
    """Determinants achievable by torus-normalizer lifts of the element.

    Only meaningful for factors under the determinant condition.  Full
    odd orthogonal groups achieve both signs (central -1); full even
    orthogonal groups force the product of the element's sign flips;
    connected factors only ever reach determinant 1.
    """
    if factor.kind is FactorKind.FULL_ORTHOGONAL:
        if factor.size % 2:
            return (1, -1)
        return (sign_product(element),)
    return (1,)


def _liftable(live: list[Factor], element: tuple[SignedPerm, ...]) -> bool:
    """Whether a tuple of Weyl elements of the live factors lifts into the
    constrained group.

    The condition is that some choice of lift determinants multiplies to
    1 over the constrained factors; a factor with both signs available
    absorbs any imbalance.
    """
    forced = 1
    for factor, coord in zip(live, element):
        classes = _det_class(factor, coord)
        if len(classes) == 2:
            return True
        forced *= classes[0]
    return forced == 1


def _quotient_rank(w_order: int, w0_order: int) -> int:
    if w_order % w0_order:
        raise NonElementaryQuotient(
            f"|W| = {w_order} is not divisible by |W0| = {w0_order}"
        )
    index = w_order // w0_order
    rank = index.bit_length() - 1
    if 1 << rank != index:
        raise NonElementaryQuotient(f"quotient order {index} is not a power of 2")
    return rank


def weyl_quotient(
    desc: CentralizerDescriptor,
    max_torus_degree: int = DEFAULT_TORUS_BOUND,
    element_cap: int = DEFAULT_ELEMENT_CAP,
) -> ElementaryTwoGroup:
    """Rank of W/W0 for a descriptor, by finite enumeration.

    W is the subgroup of the product of per-factor Weyl groups whose
    elements admit lifts compatible with the determinant condition; W0 is
    the product of identity-component Weyl groups.  The quotient is
    checked to be elementary abelian of exponent 2: every element must
    square into W0 (exponent 2 forces commutativity), and the index must
    be a power of 2.

    The condition reads only the coordinates of the live factors (those
    in ``det_constraint``), so W is the direct product of the free
    factors' Weyl groups and the liftable part of the live factors'
    product.  Each free factor contributes its own rank from checks made
    once per (kind, size, element_cap).  Only the product of the live
    factors' Weyl groups is enumerated, element by element; without live
    factors it is the one-element empty product.

    Bounds: the descriptor's torus degree (sum of size // 2 over all
    factors) may not exceed ``max_torus_degree``; ``element_cap`` bounds
    each factor's Weyl group and the size of the enumerated live product.
    Either overflow raises :class:`BoundExceeded`.
    """
    factors = desc.factors
    if sum(f.size // 2 for f in factors) > max_torus_degree:
        raise BoundExceeded(
            f"total torus degree exceeds the bound {max_torus_degree}"
        )
    live_indices = constrained_indices(desc)
    rank = 0
    live: list[Factor] = []
    live_quotients: list[_FactorQuotient] = []
    for i, factor in enumerate(factors):
        quotient = _factor_quotient(factor.kind, factor.size, element_cap)
        if i in live_indices:
            live.append(factor)
            live_quotients.append(quotient)
            continue
        if not quotient.squares_into_w0:
            raise NonElementaryQuotient("an element fails to square into W0")
        rank += _quotient_rank(len(quotient.elements), len(quotient.w0))

    total = prod(len(q.elements) for q in live_quotients)
    if total > element_cap:
        raise BoundExceeded(
            f"constrained descriptor needs {total} candidate elements,"
            f" above the cap {element_cap}"
        )
    w_order = 0
    for element in iter_product(*(q.elements for q in live_quotients)):
        if not _liftable(live, element):
            continue
        for coord, quotient in zip(element, live_quotients):
            if compose(coord, coord) not in quotient.w0:
                raise NonElementaryQuotient("an element fails to square into W0")
        w_order += 1
    # W0 consists of connected-component elements, whose lifts all have
    # determinant 1, so W0 is automatically inside W.
    w0_order = prod(len(q.w0) for q in live_quotients)
    return ElementaryTwoGroup(rank + _quotient_rank(w_order, w0_order))
