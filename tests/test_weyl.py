"""Tests for the signed-permutation realization of Weyl groups and the
brute-force quotient."""

import math
import time
from fractions import Fraction
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
from rgroups.centralizer import ElementaryTwoGroup
from rgroups.errors import BoundExceeded, NonElementaryQuotient
from rgroups.weyl import SignedPermGroup, _lift_dets, compose, sign_product

from helpers import (
    exhaustive_valid_parameters,
    identity_element,
    invert,
    is_closed,
    orth,
    sympl,
)

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
    assert ident.elements <= full.elements
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
    assert all(sign_product(g) == 1 for g in full.elements)
    for m in range(1, 9):
        assert weyl_of_factor(SO, m)[0] == weyl_of_factor(O, m)[1]


def _determinant(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _monomial_lift(m, g, e0_sign):
    """The lift of g to O(m) in the basis e_1..e_k, f_1..f_k (then e_0 for
    odd m), as a matrix whose column j is the image of basis vector j: e_i
    and f_i go to e_perm[i] and f_perm[i], swapped when g flips i."""
    k = m // 2
    perm, signs = g
    lift = [[0] * m for _ in range(m)]
    for i in range(k):
        e, f = (perm[i], k + perm[i]) if signs[i] == 1 else (k + perm[i], perm[i])
        lift[e][i] = lift[f][k + i] = 1
    if m % 2:
        lift[2 * k][2 * k] = e0_sign
    return lift


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _torus_element(m, values):
    """diag(values, 1/values, then 1 for odd m) in the lift's basis."""
    diag = list(values) + [1 / v for v in values] + [1] * (m % 2)
    return [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("m", range(1, 8))
def test_lift_rule_matches_the_monomial_lifts(m):
    k = m // 2
    # the symmetric form pairs e_i with f_i; e_0 has length 1
    form = [[0] * m for _ in range(m)]
    for i in range(k):
        form[i][k + i] = form[k + i][i] = 1
    if m % 2:
        form[2 * k][2 * k] = 1
    t = [Fraction(p) for p in (2, 3, 5)[:k]]
    torus = _torus_element(m, t)
    for g in weyl_of_factor(O, m)[0].elements:
        perm, signs = g
        moved = [Fraction(1)] * k
        for i in range(k):
            moved[perm[i]] = t[i] ** signs[i]
        dets = set()
        for e0_sign in (1, -1) if m % 2 else (1,):
            lift = _monomial_lift(m, g, e0_sign)
            assert _matmul(_matmul(_transpose(lift), form), lift) == form
            # The lift normalizes the torus and acts on it as g.  It keeps
            # the form, whose matrix is its own inverse, so its inverse is
            # form . lift^T . form.
            inverse = _matmul(_matmul(form, _transpose(lift)), form)
            conj = _matmul(_matmul(lift, torus), inverse)
            assert conj == _torus_element(m, moved)
            dets.add(_determinant(lift))
        assert dets == set(_lift_dets(m, g)), (m, g)


@pytest.mark.parametrize(
    "kind,size", [(GL, 3), (SP, 4), (O, 4), (O, 5), (SO, 4), (SO, 3)]
)
def test_factor_weyl_groups_are_closed(kind, size):
    full, ident = weyl_of_factor(kind, size)
    assert is_closed(full)
    assert is_closed(ident)


def test_weyl_of_factor_small_cases():
    weyl._factor_weyl.cache_clear()
    full, ident = weyl_of_factor(O, 2)
    assert full.order == 2 and ident.order == 1
    full, ident = weyl_of_factor(O, 3)
    assert full.order == 2 and ident.order == 2
    full, ident = weyl_of_factor(GL, 1)
    assert full.order == 1
    full, ident = weyl_of_factor(SO, 2)
    assert full.order == ident.order == 1
    # the public builder leaves the oracle's per-shape cache untouched
    assert weyl._factor_weyl.cache_info().currsize == 0


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


def test_even_size_factors_decide_live_conditions_on_so_2n():
    """Every even orthogonal parameter of criterion 2's alphabet with at
    most 3 canonical entries, read into SO(2n, C): every O factor of odd
    source dimension enters a live determinant condition.  The oracle
    gives the rule of Goldberg (1994): the number of even-size O factors,
    less one when the condition is live and no live factor has odd size.
    Only there does the condition reject Weyl elements."""
    count = live_count = even_decided = 0
    for psi, group in exhaustive_valid_parameters(Family.EVEN_ORTHOGONAL, max_entries=3):
        factors = centralizer(psi, group).factors
        live = [i for i, f in enumerate(factors) if f.kind is O and f.source_dim % 2]
        desc = CentralizerDescriptor(factors, tuple((i, 1) for i in live))
        rank = sum(f.kind is O and f.size % 2 == 0 for f in factors)
        if live and all(factors[i].size % 2 == 0 for i in live):
            rank -= 1
            even_decided += 1
        assert weyl_quotient(desc).rank == rank, psi.describe()
        count += 1
        live_count += bool(live)
    assert (count, live_count, even_decided) == (11_478, 4_934, 4_115)


def test_weyl_quotient_bounds(monkeypatch):
    # Every bound's message says "above the cap", the phrase callers match
    # to tell a skipped oracle from a failure.
    desc = CentralizerDescriptor((Factor(O, 30, 2),), None)
    with pytest.raises(
        BoundExceeded,
        match="order 42849873690624000 is above the cap 1000000$",
    ):
        weyl_quotient(desc)
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 100)
    with pytest.raises(BoundExceeded, match="order 384 is above the cap 100$"):
        weyl_quotient(CentralizerDescriptor((Factor(O, 8, 2),), None))
    # constrained path: the joint product can overflow the cap
    desc = CentralizerDescriptor(
        (Factor(O, 8, 1), Factor(O, 8, 1)), ((0, 1), (1, 1))
    )
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 1000)
    with pytest.raises(BoundExceeded, match="147456 candidate elements, above the cap 1000$"):
        weyl_quotient(desc)


def test_weyl_of_factor_checks_the_cap_from_the_order(monkeypatch):
    for kind, size, order in (
        (O, 16, 2**8 * math.factorial(8)),
        (GL, 12, math.factorial(12)),
    ):
        with pytest.raises(BoundExceeded, match=f"order {order} is above the cap 1000000$"):
            weyl_of_factor(kind, size)
    # a group whose order equals the cap is built in full
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 384)
    assert weyl_of_factor(O, 8)[0].order == 384
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 383)
    with pytest.raises(BoundExceeded, match="order 384 is above the cap 383$"):
        weyl_of_factor(O, 8)
    # SO(8): only the even sign vectors, half the order of O(8)
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 191)
    with pytest.raises(BoundExceeded, match="order 192 is above the cap 191$"):
        weyl_of_factor(SO, 8)


def test_a_huge_factor_is_refused_at_a_cost_independent_of_its_size():
    start = time.perf_counter()
    with pytest.raises(BoundExceeded, match="on 5000 letters is above the cap 1000000$"):
        weyl_of_factor(GL, 5000)
    assert time.perf_counter() - start < 0.5


def test_free_factors_are_bounded_by_the_sum_of_their_orders(monkeypatch):
    # 154 free elements on 12 torus letters: answered.
    desc = CentralizerDescriptor(
        (
            Factor(GL, 2, 1),
            Factor(SP, 6, 1),
            Factor(SP, 4, 1),
            Factor(SP, 6, 1),
            Factor(O, 7, 1),
        ),
        (),
    )
    assert weyl_quotient(desc).rank == 0  # no even-size O factor
    # Sp(14) and O(14) each fit the cap with 645,120 elements, but together
    # the free factors hold 1,290,241: refused before any group is built.
    built = []
    real = weyl._signed_permutations

    def counted(degree, signed):
        built.append((degree, signed))
        return real(degree, signed)

    monkeypatch.setattr(weyl, "_signed_permutations", counted)
    weyl._factor_weyl.cache_clear()
    weyl._free_rank.cache_clear()
    desc = CentralizerDescriptor(
        (Factor(SP, 14, 1), Factor(SO, 1, 1), Factor(O, 14, 1)), ()
    )
    with pytest.raises(
        BoundExceeded,
        match="free factors hold 1290241 Weyl elements, above the cap 1000000$",
    ):
        weyl_quotient(desc)
    assert built == []


@pytest.mark.parametrize("constraint", [None, ()], ids=["none", "empty"])
def test_resolved_descriptors_keep_the_cap_checks_and_their_order(constraint):
    """A resolved descriptor (no live factor, as from ``centralizer()``)
    meets the checks of a live one, in the same order and words: a factor
    above the cap first, then the sum over the free factors."""
    sp14, o14 = Factor(SP, 14, 1), Factor(O, 14, 1)
    over_sum = "^free factors hold 1290240 Weyl elements, above the cap 1000000$"
    with pytest.raises(BoundExceeded, match=over_sum):
        weyl_quotient(CentralizerDescriptor((sp14, o14), constraint))
    with pytest.raises(BoundExceeded, match=over_sum):
        weyl_quotient(CentralizerDescriptor((sp14, o14, Factor(O, 1, 1)), ((2, 1),)))
    with pytest.raises(
        BoundExceeded, match="^Weyl group of order 3628800 is above the cap 1000000$"
    ):
        weyl_quotient(CentralizerDescriptor((sp14, o14, Factor(GL, 10, 1)), constraint))


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
    group = SignedPermGroup(frozenset({((0,), (-1,))}))
    assert not is_closed(group)


def _reference_quotient(desc):
    """The full-product enumeration: every factor's Weyl group enters the
    product whenever any factor is constrained."""
    factors = desc.factors
    pairs = [weyl_of_factor(f.kind, f.size) for f in factors]
    live = [i for i, _ in desc.det_constraint or ()]
    if not live:
        rank = 0
        for full, ident in pairs:
            assert ident.elements <= full.elements
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


def test_element_cap_counts_the_live_product(monkeypatch):
    # O(6) is free: its 48 elements fit the cap on their own, and only the
    # 8 x 8 live product is enumerated.  The full product (3,072 elements)
    # would exceed the cap.
    desc = CentralizerDescriptor(
        (Factor(O, 6, 2), Factor(O, 4, 1), Factor(O, 4, 3)), ((1, 1), (2, 1))
    )
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 100)
    assert weyl_quotient(desc).rank == 2
    # Every factor still fits a cap of 50, but the live product does not.
    monkeypatch.setattr(weyl, "ELEMENT_CAP", 50)
    with pytest.raises(BoundExceeded, match="needs 64 candidate elements"):
        weyl_quotient(desc)


@pytest.fixture
def cyclic_weyl_group(monkeypatch):
    """Give O(5) the cyclic Weyl group of order 4 generated by
    e_0 -> e_1 -> -e_0, over a trivial W0: its index is a power of 2, but
    the quotient is not elementary abelian."""
    g = ((1, 0), (1, -1))
    elements = {identity_element(2), g}
    while len(elements) < 4:
        elements = {compose(x, g) for x in elements} | elements
    full = SignedPermGroup(frozenset(elements))
    trivial = SignedPermGroup(frozenset({identity_element(2)}))
    real = weyl._factor_weyl

    def patched(kind, size):
        if (kind, size) == (O, 5):
            return full, trivial
        return real(kind, size)

    monkeypatch.setattr(weyl, "_factor_weyl", patched)
    weyl._free_rank.cache_clear()
    yield
    weyl._free_rank.cache_clear()


@pytest.mark.parametrize("constraint", [None, ((0, 1),)])
def test_weyl_quotient_rejects_elements_not_squaring_into_w0(
    cyclic_weyl_group, constraint
):
    # free (None) and live (a constrained odd-size factor lifts every element)
    desc = CentralizerDescriptor((Factor(O, 5, 1),), constraint)
    # a failed check is never cached: the second call raises as well
    for _ in range(2):
        with pytest.raises(NonElementaryQuotient, match="square"):
            weyl_quotient(desc)
