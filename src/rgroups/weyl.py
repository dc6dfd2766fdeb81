"""Brute-force Weyl groups of centralizer descriptors.

Independent verification path for the closed-form R-group rank: realize
the Weyl group W = N(T)/Z(T) of each classical factor concretely as a
group of signed permutations, assemble the whole-descriptor W under the
determinant condition, and compute the quotient by the identity-component
Weyl group.

What is enumerated.  The determinant condition reads only the factors
listed in ``det_constraint`` (the live factors).  Every other factor
splits off as a direct factor of W and contributes its own rank.  One
enumeration serves both: it walks a product of factor Weyl groups, keeps
the elements that satisfy the condition (all of them when no factor is
live) and runs the one check, that every element squares into W0 and
the index is a power of 2.  A free factor runs it on its own W once per
factor shape (kind, size), and the rank is cached; the live factors run
it on the product of their Weyl groups on every call.

The one size bound is an element cap: each factor's W, the sum over the
free factors and the product over the live factors must stay within it.
Orders are known in closed form and cached per shape, so the checks run
before any group is built.  Nothing is cached per descriptor.

Conventions.  A signed permutation of degree k is a pair
(perm, signs) with perm a tuple giving i -> perm[i] and signs in
{+1, -1}^k; it acts on basis vectors by e_i -> signs[i] * e_{perm[i]}.
The maximal torus of every factor is the standard diagonal one; all
maximal tori are conjugate, so nothing is lost by fixing it.

Weyl groups of the factors, with k letters per factor.  GL(m) has the
symmetric group on m letters and Sp(2k) every signed permutation of k
letters; both are connected, so W0 = W.  For O(m), with k = m // 2, W is
every signed permutation of k letters, and one rule, :func:`_lift_dets`,
gives the determinants that an element's torus-normalizer lifts reach.
W0 of O(m), and W of SO(m), are the elements with a lift of
determinant 1.  W0 lies in W by construction, and the same rule decides
which tuples of live elements satisfy the determinant condition.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product as iter_product
from math import factorial, prod

from .centralizer import (
    CentralizerDescriptor,
    ElementaryTwoGroup,
    Factor,
    FactorKind,
    rank_group,
)
from .errors import BoundExceeded, NonElementaryQuotient
from .validation import Value, slot_setters

Perm = tuple[int, ...]
Signs = tuple[int, ...]
SignedPerm = tuple[Perm, Signs]

ELEMENT_CAP = 1_000_000


def compose(g: SignedPerm, h: SignedPerm) -> SignedPerm:
    """g after h: (g.h)(e_i) = h_signs[i] * g_signs[h[i]] * e_{g[h[i]]}."""
    gp, gs = g
    hp, hs = h
    perm = tuple(gp[hp[i]] for i in range(len(gp)))
    signs = tuple(hs[i] * gs[hp[i]] for i in range(len(gp)))
    return (perm, signs)


def sign_product(g: SignedPerm) -> int:
    return prod(g[1], start=1)


class SignedPermGroup(Value):
    """A finite group of signed permutations, all of one degree."""

    __slots__ = __match_args__ = ("elements",)

    def __init__(self, elements: frozenset[SignedPerm]) -> None:
        _set_perm_elements(self, elements)

    @property
    def order(self) -> int:
        return len(self.elements)


(_set_perm_elements,) = slot_setters(SignedPermGroup)


def _signed_permutations(degree: int, signed: bool) -> SignedPermGroup:
    """Every permutation of ``degree`` letters paired with every sign
    vector, or with none flipped unless ``signed``."""
    signs = list(iter_product((1, -1) if signed else (1,), repeat=degree))
    elements = frozenset(
        (perm, s) for perm in permutations(range(degree)) for s in signs
    )
    return SignedPermGroup(elements)


def torus_degree(factor: Factor) -> int:
    """Rank of the factor's standard maximal torus, in signed-perm letters."""
    if factor.kind is FactorKind.GENERAL_LINEAR:
        return factor.size
    return factor.size // 2


def _lift_dets(size: int, element: SignedPerm) -> tuple[int, ...]:
    """Determinants of the torus-normalizer lifts of a Weyl element of
    O(size).

    Take the hyperbolic basis e_1..e_k, f_1..f_k of the symmetric form,
    plus e_0 when the size is odd; the torus scales e_i by t_i and f_i by
    t_i^-1.  The monomial lift of (perm, signs) sends e_i and f_i to
    e_perm[i] and f_perm[i], swapped when signs[i] = -1.  The permutation
    moves the e's and the f's alike, so its parity cancels; each flip
    swaps e_i and f_i, so it contributes -1.  Lifts differ by elements of
    Z(T): the torus, of determinant 1, and for odd size e_0 -> -e_0, so
    an odd size reaches both determinants.
    """
    if size % 2:
        return (1, -1)
    return (sign_product(element),)


@lru_cache(maxsize=None)
def _weyl_order(kind: FactorKind, size: int, element_cap: int) -> int:
    """|W| of a factor shape from its closed form, refused above the cap.
    W on k letters has at least k! >= 2**(k-1) elements, so more letters
    than the cap has bits are refused before the order is computed."""
    degree = torus_degree(Factor(kind, size, 1))
    if degree > element_cap.bit_length():
        raise BoundExceeded(
            f"Weyl group on {degree} letters is above the cap {element_cap}"
        )
    order = factorial(degree)
    if kind is not FactorKind.GENERAL_LINEAR:
        order <<= degree
    if kind is FactorKind.SPECIAL_ORTHOGONAL and size % 2 == 0:
        order //= 2
    if order > element_cap:
        raise BoundExceeded(
            f"Weyl group of order {order} is above the cap {element_cap}"
        )
    return order


def _weyl_groups(kind: FactorKind, size: int) -> tuple[SignedPermGroup, SignedPermGroup]:
    degree = torus_degree(Factor(kind, size, 1))
    full = _signed_permutations(degree, kind is not FactorKind.GENERAL_LINEAR)
    if kind in (FactorKind.GENERAL_LINEAR, FactorKind.SYMPLECTIC):
        return full, full
    ident = SignedPermGroup(
        frozenset(g for g in full.elements if 1 in _lift_dets(size, g)),
    )
    if kind is FactorKind.SPECIAL_ORTHOGONAL:
        return ident, ident
    return full, ident


def weyl_of_factor(kind: FactorKind, size: int) -> tuple[SignedPermGroup, SignedPermGroup]:
    """(W, W0) of one factor: the full Weyl group and that of the factor's
    identity component, as signed-permutation groups on ``torus_degree``
    letters, built once :data:`ELEMENT_CAP` has admitted W's order.  Only the
    oracle's per-shape groups and free ranks are cached."""
    _weyl_order(kind, size, ELEMENT_CAP)
    return _weyl_groups(kind, size)


_factor_weyl = lru_cache(maxsize=None)(_weyl_groups)  # (W, W0) of an admitted shape


@lru_cache(maxsize=None)
def _free_rank(kind: FactorKind, size: int) -> int:
    """Rank of W/W0 for a shape used as a free factor.  A failed check
    raises, and ``lru_cache`` keeps no exception, so it raises again on
    every call."""
    return _enumerated_rank([_factor_weyl(kind, size)], [])


def _liftable(live: list[Factor], element: tuple[SignedPerm, ...]) -> bool:
    """Whether a tuple of Weyl elements of the live factors lifts into the
    constrained group.

    The condition is that some choice of lift determinants multiplies to
    1 over the constrained factors, all full orthogonal; a factor with
    both signs available absorbs any imbalance.  With no live factors
    every element lifts.
    """
    forced = 1
    for factor, coord in zip(live, element):
        dets = _lift_dets(factor.size, coord)
        if len(dets) == 2:
            return True
        forced *= dets[0]
    return forced == 1


def _enumerated_rank(
    groups: list[tuple[SignedPermGroup, SignedPermGroup]], live: list[Factor]
) -> int:
    """Rank of W/W0, where W is the part of the product of the (W, W0)
    ``groups`` that :func:`_liftable` admits for the ``live`` factors
    (the whole product when there are none) and W0 the product of the
    W0s.  Every element of W must square into W0, coordinate by
    coordinate, and the index must be a power of 2."""
    w0_sets = [ident.elements for _, ident in groups]
    w_order = 0
    for element in iter_product(*(full.elements for full, _ in groups)):
        if not _liftable(live, element):
            continue
        for coord, w0 in zip(element, w0_sets):
            if compose(coord, coord) not in w0:
                raise NonElementaryQuotient("an element fails to square into W0")
        w_order += 1
    # Every element of W0 has a lift of determinant 1, so W0 lies in W.
    w0_order = prod(len(w0) for w0 in w0_sets)
    if w_order % w0_order:
        raise NonElementaryQuotient(
            f"|W| = {w_order} is not divisible by |W0| = {w0_order}"
        )
    index = w_order // w0_order
    rank = index.bit_length() - 1
    if 1 << rank != index:
        raise NonElementaryQuotient(f"quotient order {index} is not a power of 2")
    return rank


def _free_bound(free_total: int) -> BoundExceeded:
    return BoundExceeded(
        f"free factors hold {free_total} Weyl elements, above the cap {ELEMENT_CAP}"
    )


def weyl_quotient(desc: CentralizerDescriptor) -> ElementaryTwoGroup:
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
    product.  Both go through :func:`_enumerated_rank`: each free factor
    once per factor shape, its rank cached, and the live product on every
    call.  A descriptor with no live factor, as is every one from
    :func:`~rgroups.centralizer.centralizer`, is one sum of cached ranks.

    Bound: the fixed :data:`ELEMENT_CAP`, read per call, counts Weyl
    elements.  Each factor's W, the sum of the free factors' orders and the
    product of the live factors' orders must stay within it, checked from
    closed-form orders before any group is built; an overflow raises
    :class:`BoundExceeded`.
    """
    factors = desc.factors
    if not desc.det_constraint:  # every factor free, as from centralizer()
        free_total = rank = 0
        for f in factors:
            free_total += _weyl_order(f.kind, f.size, ELEMENT_CAP)
        if free_total > ELEMENT_CAP:
            raise _free_bound(free_total)
        for f in factors:
            rank += _free_rank(f.kind, f.size)
        return rank_group(rank)
    live_indices = {i for i, _ in desc.det_constraint}
    free: list[Factor] = []
    live: list[Factor] = []
    free_total, live_total = 0, 1
    for i, f in enumerate(factors):
        order = _weyl_order(f.kind, f.size, ELEMENT_CAP)
        if i in live_indices:
            live.append(f)
            live_total *= order
        else:
            free.append(f)
            free_total += order
    if free_total > ELEMENT_CAP:
        raise _free_bound(free_total)
    if live_total > ELEMENT_CAP:
        raise BoundExceeded(
            f"constrained descriptor needs {live_total} candidate elements,"
            f" above the cap {ELEMENT_CAP}"
        )
    rank = 0
    for f in free:
        rank += _free_rank(f.kind, f.size)
    if live:
        groups = [_factor_weyl(f.kind, f.size) for f in live]
        rank += _enumerated_rank(groups, live)
    return rank_group(rank)
