"""Tests for the signed-permutation realization of Weyl groups and the
brute-force quotient."""

import math
from itertools import product as iter_product

import pytest
from hypothesis import given, settings, strategies as st

from rgroups import (
    CentralizerDescriptor,
    Factor,
    FactorKind,
    Family,
    GroupSpec,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    weyl_of_factor,
    weyl_quotient,
)
from rgroups import weyl
from rgroups.centralizer import ElementaryTwoGroup, constrained_indices
from rgroups.errors import BoundExceeded, NonElementaryQuotient
from rgroups.weyl import (
    SignedPermGroup,
    compose,
    identity_element,
    invert,
    sign_product,
)

from helpers import orth, sympl

GL = FactorKind.GENERAL_LINEAR
SP = FactorKind.SYMPLECTIC
O = FactorKind.FULL_ORTHOGONAL
SO = FactorKind.SPECIAL_ORTHOGONAL


signed_perms = st.integers(1, 4).flatmap(
    lambda k: st.tuples(
        st.permutations(range(k)).map(tuple),
        st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k).map(tuple),
    )
)


@given(signed_perms)
def test_compose_invert_identity(g):
    k = len(g[0])
    e = identity_element(k)
    assert compose(g, e) == compose(e, g) == g
    assert compose(g, invert(g)) == compose(invert(g), g) == e


@given(signed_perms, signed_perms, signed_perms)
def test_compose_associative(g, h, k):
    degree = max(len(g[0]), len(h[0]), len(k[0]))

    def pad(x):
        perm, signs = x
        missing = degree - len(perm)
        return (
            perm + tuple(range(len(perm), degree)),
            signs + (1,) * missing,
        )

    g, h, k = pad(g), pad(h), pad(k)
    assert compose(compose(g, h), k) == compose(g, compose(h, k))


@pytest.mark.parametrize("m", range(1, 6))
def test_general_linear_weyl_orders(m):
    full, ident = weyl_of_factor(GL, m)
    assert full.order == math.factorial(m)
    assert full == ident
    assert all(all(s == 1 for s in g[1]) for g in full.elements)


@pytest.mark.parametrize("k", range(1, 5))
def test_even_orthogonal_weyl_orders(k):
    full, ident = weyl_of_factor(O, 2 * k)
    assert full.order == 2**k * math.factorial(k)
    assert full.order == 2 * ident.order
    assert ident.is_subgroup_of(full)
    assert all(sign_product(g) == 1 for g in ident.elements)


@pytest.mark.parametrize("k", range(1, 5))
def test_odd_orthogonal_weyl_orders(k):
    full, ident = weyl_of_factor(O, 2 * k + 1)
    assert full.order == 2**k * math.factorial(k)
    assert full == ident


@pytest.mark.parametrize("k", range(1, 5))
def test_symplectic_weyl_orders(k):
    full, ident = weyl_of_factor(SP, 2 * k)
    assert full.order == 2**k * math.factorial(k)
    assert full == ident


def test_special_orthogonal_weyl_groups():
    full, ident = weyl_of_factor(SO, 5)
    assert full.order == ident.order == 8
    full, ident = weyl_of_factor(SO, 6)
    assert full.order == ident.order == 2**3 * math.factorial(3) // 2
    assert full.even_signs_only


@pytest.mark.parametrize(
    "kind,size", [(GL, 3), (SP, 4), (O, 4), (O, 5), (SO, 4), (SO, 3)]
)
def test_factor_weyl_groups_are_closed(kind, size):
    full, ident = weyl_of_factor(kind, size)
    assert full.is_closed()
    assert ident.is_closed()


def test_weyl_of_factor_small_cases():
    full, ident = weyl_of_factor(O, 2)
    assert full.order == 2 and ident.order == 1
    full, ident = weyl_of_factor(O, 3)
    assert full.order == 2 and ident.order == 2
    full, ident = weyl_of_factor(GL, 1)
    assert full.order == 1
    full, ident = weyl_of_factor(SO, 2)
    assert full.order == ident.order == 1


def test_weyl_quotient_spot_values():
    # one same-type summand with multiplicity 2: rank 1
    desc = CentralizerDescriptor((Factor(O, 2, 2),), ())
    assert weyl_quotient(desc).rank == 1
    # a single symplectic factor: connected, rank 0
    assert weyl_quotient(CentralizerDescriptor((Factor(SP, 2, 2),), ())).rank == 0
    # live condition: O(3) with odd source dim absorbs it, O(2) stays free
    desc = CentralizerDescriptor(
        (Factor(O, 3, 1), Factor(O, 2, 2)), ((0, 1),)
    )
    assert weyl_quotient(desc).rank == 1


def test_weyl_quotient_live_constraint_couples_even_factors():
    # Two even-size constrained factors and no absorber: the sign products
    # are tied together, which still leaves quotient rank 1.
    desc = CentralizerDescriptor(
        (Factor(O, 2, 1), Factor(O, 2, 3)), ((0, 1), (1, 1))
    )
    assert weyl_quotient(desc).rank == 1
    # With an odd-size constrained absorber both factors stay free.
    desc = CentralizerDescriptor(
        (Factor(O, 2, 1), Factor(O, 2, 3), Factor(O, 3, 1)),
        ((0, 1), (1, 1), (2, 1)),
    )
    assert weyl_quotient(desc).rank == 2


def test_weyl_quotient_single_constrained_even_factor():
    # det g = 1 on O(2) cuts it down to SO(2): trivial quotient.
    desc = CentralizerDescriptor((Factor(O, 2, 1),), ((0, 1),))
    assert weyl_quotient(desc).rank == 0


def test_weyl_quotient_bounds():
    desc = CentralizerDescriptor((Factor(O, 30, 2),), None)
    with pytest.raises(BoundExceeded):
        weyl_quotient(desc)
    with pytest.raises(BoundExceeded):
        weyl_quotient(
            CentralizerDescriptor((Factor(O, 8, 2),), None), element_cap=100
        )
    # constrained path: the joint product can overflow the cap
    desc = CentralizerDescriptor(
        (Factor(O, 8, 1), Factor(O, 8, 1)), ((0, 1), (1, 1))
    )
    with pytest.raises(BoundExceeded):
        weyl_quotient(desc, element_cap=1000)


def test_oracle_matches_closed_form_on_resolved_descriptors():
    cases = [
        (Family.ODD_ORTHOGONAL, [(Summand(sympl("s", 2), 1), 4)], 4),
        (Family.SYMPLECTIC, [(Summand(orth("a", 3), 1), 3)], 4),
        (
            Family.SYMPLECTIC,
            [(Summand(orth("a", 1), 1), 3), (Summand(orth("b", 3), 1), 2)],
            4,
        ),
        (
            Family.EVEN_ORTHOGONAL,
            [(Summand(orth("a", 2), 1), 2), (Summand(sympl("b", 2), 1), 2)],
            4,
        ),
    ]
    for family, entries, rank in cases:
        psi = canonicalize(entries)
        G = GroupSpec(family, rank)
        desc = centralizer(psi, G)
        assert weyl_quotient(desc) == arthur_r_group(psi, G)


def test_signed_perm_group_requires_identity_for_closure():
    group = SignedPermGroup(1, frozenset({((0,), (-1,))}))
    assert not group.is_closed()


def _reference_quotient(desc):
    """The full-product enumeration: every factor's Weyl group enters the
    product whenever any factor is constrained."""
    factors = desc.factors
    pairs = [weyl_of_factor(f.kind, f.size) for f in factors]
    live = constrained_indices(desc)
    if not live:
        rank = 0
        for full, ident in pairs:
            assert ident.is_subgroup_of(full)
            for g in full.elements:
                assert compose(g, g) in ident.elements
            rank += (full.order // ident.order).bit_length() - 1
        return ElementaryTwoGroup(rank)

    def det_classes(factor, element):
        if factor.kind is O:
            return (1, -1) if factor.size % 2 else (sign_product(element),)
        return (1,)

    def liftable(element):
        forced = 1
        for i in live:
            classes = det_classes(factors[i], element[i])
            if len(classes) == 2:
                return True
            forced *= classes[0]
        return forced == 1

    w_elements = [
        element
        for element in iter_product(*(sorted(full.elements) for full, _ in pairs))
        if liftable(element)
    ]
    for element in w_elements:
        for coord, (_, ident) in zip(element, pairs):
            assert compose(coord, coord) in ident.elements
    w0_order = math.prod(ident.order for _, ident in pairs)
    assert len(w_elements) % w0_order == 0
    index = len(w_elements) // w0_order
    assert index & (index - 1) == 0
    return ElementaryTwoGroup(index.bit_length() - 1)


@st.composite
def descriptors(draw):
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from((GL, SP, O, SO)))
        size = draw(st.sampled_from((2, 4) if kind is SP else (1, 2, 3, 4)))
        factors.append(Factor(kind, size, draw(st.integers(1, 3))))
    candidates = [
        i for i, f in enumerate(factors) if f.kind is O and f.source_dim % 2
    ]
    live = [i for i in candidates if draw(st.booleans())]
    if live:
        constraint = tuple((i, 1) for i in live)
    else:
        constraint = draw(st.sampled_from((None, ())))
    return CentralizerDescriptor(tuple(factors), constraint)


@settings(max_examples=300, deadline=None)
@given(descriptors())
def test_weyl_quotient_matches_full_product_enumeration(desc):
    assert weyl_quotient(desc) == _reference_quotient(desc)


def test_element_cap_counts_the_live_product():
    # O(6) is free: its 48 elements fit the cap on their own, and only the
    # 8 x 8 live product is enumerated.  The full product (3,072 elements)
    # would exceed the cap.
    desc = CentralizerDescriptor(
        (Factor(O, 6, 2), Factor(O, 4, 1), Factor(O, 4, 3)), ((1, 1), (2, 1))
    )
    assert weyl_quotient(desc, element_cap=100).rank == 2
    # Every factor still fits a cap of 50, but the live product does not.
    with pytest.raises(BoundExceeded, match="needs 64 candidate elements"):
        weyl_quotient(desc, element_cap=50)


@pytest.fixture
def cyclic_weyl_group(monkeypatch):
    """Give O(5) the cyclic Weyl group of order 4 generated by
    e_0 -> e_1 -> -e_0, over a trivial W0: its index is a power of 2, but
    the quotient is not elementary abelian."""
    g = ((1, 0), (1, -1))
    elements = {identity_element(2), g}
    while len(elements) < 4:
        elements = {compose(x, g) for x in elements} | elements
    full = SignedPermGroup(2, frozenset(elements))
    trivial = SignedPermGroup(2, frozenset({identity_element(2)}))
    real = weyl.weyl_of_factor

    def patched(kind, size, element_cap=weyl.DEFAULT_ELEMENT_CAP):
        if (kind, size) == (O, 5):
            return full, trivial
        return real(kind, size, element_cap)

    monkeypatch.setattr(weyl, "weyl_of_factor", patched)
    weyl._factor_quotient.cache_clear()
    yield
    weyl._factor_quotient.cache_clear()


@pytest.mark.parametrize("constraint", [None, ((0, 1),)])
def test_weyl_quotient_rejects_elements_not_squaring_into_w0(
    cyclic_weyl_group, constraint
):
    # free (None) and live (a constrained odd-size factor lifts every element)
    desc = CentralizerDescriptor((Factor(O, 5, 1),), constraint)
    with pytest.raises(NonElementaryQuotient, match="square"):
        weyl_quotient(desc)
