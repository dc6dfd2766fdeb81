"""Tests for the parameter algebra: duality arithmetic, canonical form,
validation and classification."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rgroups import (
    CuspidalSymbol,
    DualityType,
    Family,
    GroupSpec,
    Parameter,
    ParameterEntry,
    Summand,
    canonicalize,
    classify,
    tensor_type,
    validate_parameter,
)
from rgroups.errors import InconsistentSymbol, InvalidParameter, UnpairedDual

from helpers import (
    entry_dimension,
    exhaustive_valid_parameters,
    orth,
    pair,
    sympl,
    total_dimension,
)

ORTH = DualityType.ORTHOGONAL
SYMPL = DualityType.SYMPLECTIC
NSD = DualityType.NOT_SELF_DUAL


# ---------------------------------------------------------------------------
# Independent oracle for the duality arithmetic: explicit bilinear forms.
# A form is encoded by its Gram matrix (nested tuples of ints); a tensor
# product of forms has Gram matrix the Kronecker product, and the symmetry
# sign multiplies.
# ---------------------------------------------------------------------------


def transpose(m):
    return tuple(zip(*m))

def negate(m):
    return tuple(tuple(-x for x in row) for row in m)

def kron(a, b):
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows)

def form_symmetry(m):
    if transpose(m) == m:
        return ORTH
    if transpose(m) == negate(m):
        return SYMPL
    raise AssertionError("form is neither symmetric nor alternating")


SYM_FORM = ((1,),)
ALT_FORM = ((0, 1), (-1, 0))


def sl2_irrep_form(a):
    """Gram matrix of the invariant bilinear form on the a-dimensional
    irreducible SL(2) representation (degree a-1 binary forms): the signed
    antidiagonal of inverse binomial coefficients."""
    n = a - 1
    rows = []
    for i in range(a):
        row = [Fraction(0)] * a
        row[n - i] = Fraction((-1) ** i, math.comb(n, i))
        rows.append(tuple(row))
    return tuple(rows)


def sym_power_matrix(g, a):
    """Matrix of SL(2) acting on degree a-1 binary forms, integer-exact."""
    p, q, r, s = g
    cols = []
    for i in range(a):
        # expand (p*x + r*y)^(a-1-i) * (q*x + s*y)^i by convolution
        left = [1]
        for _ in range(a - 1 - i):
            nxt = [0] * (len(left) + 1)
            for j, c in enumerate(left):
                nxt[j] += c * p
                nxt[j + 1] += c * r
            left = nxt
        right = [1]
        for _ in range(i):
            nxt = [0] * (len(right) + 1)
            for j, c in enumerate(right):
                nxt[j] += c * q
                nxt[j + 1] += c * s
            right = nxt
        col = [0] * a
        for j, cl in enumerate(left):
            for k, cr in enumerate(right):
                col[j + k] += cl * cr
        cols.append(col)
    return tuple(zip(*cols))


def mat_mul(a, b):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a
    )


@pytest.mark.parametrize("a", range(1, 11))
def test_sl2_form_is_invariant_and_has_parity_symmetry(a):
    form = sl2_irrep_form(a)
    assert form_symmetry(form) is (ORTH if a % 2 else SYMPL)
    for g in ((1, 1, 0, 1), (1, 0, 1, 1), (2, 3, 1, 2)):  # det = 1
        t = sym_power_matrix(g, a)
        assert mat_mul(transpose(t), mat_mul(form, t)) == form


@pytest.mark.parametrize("rho_type", [ORTH, SYMPL])
@pytest.mark.parametrize("a", range(1, 11))
def test_tensor_type_matches_explicit_form_tensor(rho_type, a):
    rho_form = SYM_FORM if rho_type is ORTH else ALT_FORM
    expected = form_symmetry(kron(rho_form, sl2_irrep_form(a)))
    assert tensor_type(rho_type, a) is expected


def test_tensor_type_spot_values():
    assert tensor_type(SYMPL, 2) is ORTH
    assert tensor_type(ORTH, 1) is ORTH
    assert tensor_type(ORTH, 2) is SYMPL
    assert tensor_type(NSD, 7) is NSD


@given(st.sampled_from([ORTH, SYMPL, NSD]), st.integers(1, 50), st.integers(1, 50))
def test_tensor_type_depends_only_on_parity(t, a, b):
    assert tensor_type(t, 1) is t
    if a % 2 == b % 2:
        assert tensor_type(t, a) is tensor_type(t, b)


def test_tensor_type_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        tensor_type(ORTH, 0)


# ---------------------------------------------------------------------------
# Symbols and summands
# ---------------------------------------------------------------------------


def test_symplectic_symbol_needs_even_dimension():
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 3, SYMPL)


def test_dual_label_bookkeeping():
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, NSD)  # missing dual
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, NSD, "x")  # own dual
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, ORTH, "y")  # self-dual with partner
    sym = pair("x", 2)
    partner = sym.dual_partner()
    assert partner.dual_label == "x" and partner.dim == 2
    assert partner.dual_partner() == sym


def test_summand_dim_and_derived_type():
    s = Summand(sympl("r", 2), 3)
    assert s.dim == 6
    assert s.duality is SYMPL  # symplectic x odd stays symplectic
    assert Summand(sympl("r", 2), 2).duality is ORTH


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def test_canonicalize_merges_multiplicities():
    phi = Summand(orth("a"), 2)
    psi = canonicalize([(phi, 1), (phi, 2)])
    assert psi.entries == (ParameterEntry(phi, 3),)


def test_canonicalize_stores_dual_pair_once():
    s = Summand(pair("a", 2), 1)
    psi = canonicalize([(s, 2), (s.dual_partner(), 2)])
    assert len(psi.entries) == 1
    entry = psi.entries[0]
    assert entry.summand.duality is NSD and entry.multiplicity == 2
    assert entry.summand.rho.label == "a"  # lexicographic representative
    assert entry_dimension(entry) == 2 * 2 * 2


def test_canonicalize_picks_smaller_label_regardless_of_order():
    s = Summand(CuspidalSymbol("z", 1, NSD, "b"), 1)
    psi = canonicalize([(s, 1), (s.dual_partner(), 1)])
    assert psi.entries[0].summand.rho.label == "b"


def test_unpaired_dual_mismatched_multiplicity():
    s = Summand(pair("a"), 1)
    with pytest.raises(UnpairedDual):
        canonicalize([(s, 2), (s.dual_partner(), 1)])


def test_unpaired_dual_missing_partner():
    with pytest.raises(UnpairedDual):
        canonicalize([(Summand(pair("a"), 1), 2)])


def test_unpaired_dual_missing_representative():
    # Only the member under the larger label: it must not be dropped.
    late = Summand(pair("a").dual_partner(), 1)
    with pytest.raises(UnpairedDual, match=r"at\(x\)S_1 has no dual partner 'a'"):
        canonicalize([(late, 2)])
    with pytest.raises(UnpairedDual, match="no dual partner 'a'"):
        canonicalize([(Summand(orth("o"), 1), 1), (late, 1)])


def test_inconsistent_symbol_attributes():
    with pytest.raises(InconsistentSymbol):
        canonicalize(
            [(Summand(orth("a", 1), 1), 1), (Summand(orth("a", 3), 1), 1)]
        )


def test_inconsistent_dual_involution():
    bad_a = CuspidalSymbol("a", 1, NSD, "b")
    bad_b = CuspidalSymbol("b", 1, NSD, "c")  # does not point back at a
    with pytest.raises(InconsistentSymbol):
        canonicalize([(Summand(bad_a, 1), 1), (Summand(bad_b, 1), 1)])


def test_dual_pair_must_agree_on_conjugate():
    p = CuspidalSymbol("p", 1, NSD, "q")
    q = CuspidalSymbol("q", 1, NSD, "p", conjugate=True)
    assert p.dual_partner() != q
    raw = [(Summand(p, 1), 1), (Summand(q, 1), 1)]
    message = "dual pairing between 'p' and 'q' is not a dimension-preserving involution"
    with pytest.raises(InconsistentSymbol, match=message):
        canonicalize(raw)
    x = CuspidalSymbol("x", 1, ORTH, conjugate=True)
    with pytest.raises(InconsistentSymbol, match=message):
        canonicalize(raw + [(Summand(x, 1), 1)])


def test_canonicalize_idempotent_and_dimension_preserving():
    raw = [
        (Summand(orth("a"), 1), 2),
        (Summand(pair("b", 2), 3), 1),
        (Summand(pair("b", 2).dual_partner(), 3), 1),
        (Summand(orth("a"), 1), 1),
    ]
    psi = canonicalize(raw)
    assert canonicalize(psi.expanded_entries()) == psi
    raw_dim = sum(s.dim * m for s, m in raw)
    assert total_dimension(psi) == raw_dim


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), min_size=1, max_size=8))
def test_canonicalize_idempotent_on_random_input(picks):
    pool = [
        Summand(orth("a"), 1),
        Summand(orth("a"), 3),
        Summand(sympl("s", 2), 2),
        Summand(orth("b", 3), 1),
        Summand(pair("p", 2), 1),
        Summand(pair("q"), 2),
    ]
    raw = []
    for index, mult in picks:
        summand = pool[index]
        raw.append((summand, mult))
        if not summand.self_dual:
            raw.append((summand.dual_partner(), mult))
    psi = canonicalize(raw)
    assert canonicalize(psi.expanded_entries()) == psi
    assert total_dimension(psi) == sum(s.dim * m for s, m in raw)


def test_parameter_rejects_non_canonical_construction():
    a, b = Summand(orth("a"), 1), Summand(orth("b"), 1)
    with pytest.raises(ValueError):
        Parameter((ParameterEntry(b, 1), ParameterEntry(a, 1)))  # unsorted
    with pytest.raises(ValueError):
        Parameter((ParameterEntry(a, 1), ParameterEntry(a, 2)))  # duplicate
    s = Summand(CuspidalSymbol("z", 1, NSD, "b"), 1)
    with pytest.raises(ValueError):
        Parameter((ParameterEntry(s, 1),))  # wrong pair representative


def test_zero_multiplicity_rejected():
    with pytest.raises(ValueError):
        ParameterEntry(Summand(orth("a"), 1), 0)
    with pytest.raises(ValueError):
        canonicalize([(Summand(orth("a"), 1), 0)])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_symplectic_family_example():
    # 2 copies of a 2-dim symplectic symbol twisted by S_2 (dim 4 each,
    # orthogonal type) plus the trivial-like 1-dim summand: 8 + 1 = 9.
    G = GroupSpec(Family.SYMPLECTIC, 4)
    assert G.dual_dimension == 9
    psi = canonicalize(
        [(Summand(sympl("r", 2), 2), 2), (Summand(orth("t"), 1), 1)]
    )
    assert psi.entries[0].summand.duality is ORTH or psi.entries[1].summand.duality is ORTH
    assert validate_parameter(psi, G).ok


def test_validate_flags_opposite_type_odd_multiplicity():
    G = GroupSpec(Family.ODD_ORTHOGONAL, 3)  # dual dim 6
    psi = canonicalize([(Summand(orth("x", 2), 1), 3)])  # orthogonal vs Sp dual
    report = validate_parameter(psi, G)
    assert not report.ok
    assert any(v.rule == "odd-multiplicity" for v in report.violations)


def test_validate_flags_dimension_mismatch():
    G = GroupSpec(Family.EVEN_ORTHOGONAL, 2)  # dual dim 4
    psi = canonicalize([(Summand(orth("x", 3), 1), 1)])
    report = validate_parameter(psi, G)
    assert any(v.rule == "dimension" for v in report.violations)


def test_validate_unitary_family_by_rank_parity():
    # U(n) has dual type (-1)^(n-1): a conjugate-orthogonal summand is of
    # the same type for n odd, a conjugate-symplectic one for n even
    conj_orth = Summand(CuspidalSymbol("x", 1, ORTH, conjugate=True), 1)
    conj_sympl = Summand(CuspidalSymbol("y", 1, SYMPL, conjugate=True), 1)
    u1, u2 = GroupSpec(Family.UNITARY, 1), GroupSpec(Family.UNITARY, 2)
    assert validate_parameter(canonicalize([(conj_orth, 1)]), u1).ok
    assert validate_parameter(canonicalize([(conj_sympl, 2)]), u2).ok
    report = validate_parameter(canonicalize([(conj_sympl, 1)]), u1)
    assert [v.rule for v in report.violations] == ["odd-multiplicity"]


def test_group_spec_dual_data():
    assert GroupSpec(Family.SYMPLECTIC, 4).dual_dimension == 9
    assert GroupSpec(Family.ODD_ORTHOGONAL, 4).dual_dimension == 8
    assert GroupSpec(Family.EVEN_ORTHOGONAL, 4).dual_dimension == 8
    assert GroupSpec(Family.UNITARY, 4).dual_dimension == 4
    assert GroupSpec(Family.SYMPLECTIC, 1).dual_type is ORTH
    assert GroupSpec(Family.ODD_ORTHOGONAL, 1).dual_type is SYMPL
    assert GroupSpec(Family.EVEN_ORTHOGONAL, 1).dual_type is ORTH
    assert GroupSpec(Family.UNITARY, 1).dual_type is ORTH
    assert GroupSpec(Family.UNITARY, 2).dual_type is SYMPL
    assert GroupSpec(Family.UNITARY, 0).dual_type is SYMPL
    with pytest.raises(ValueError):
        GroupSpec(Family.SYMPLECTIC, -1)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_classify_single_dual_pair():
    s = Summand(pair("a", 2), 1)
    psi = canonicalize([(s, 2), (s.dual_partner(), 2)])
    G = GroupSpec(Family.EVEN_ORTHOGONAL, 4)
    buckets = classify(psi, G)
    assert len(buckets.dual_pairs) == 1
    assert buckets.opposite_type == buckets.same_type_odd_mult == ()
    assert buckets.same_type_even_mult == ()
    assert buckets.d == 0


def test_classify_same_type_even_multiplicity():
    psi = canonicalize([(Summand(sympl("s", 2), 1), 2)])
    G = GroupSpec(Family.ODD_ORTHOGONAL, 2)
    buckets = classify(psi, G)
    assert buckets.d == 1
    assert len(buckets.same_type_even_mult) == 1


def test_classify_mixed_same_type():
    psi = canonicalize(
        [(Summand(orth("a", 1), 1), 3), (Summand(orth("b", 3), 1), 2)]
    )
    G = GroupSpec(Family.SYMPLECTIC, 4)
    buckets = classify(psi, G)
    assert buckets.d == 1
    assert len(buckets.same_type_odd_mult) == 1


def test_classify_requires_valid_parameter():
    psi = canonicalize([(Summand(orth("a"), 1), 1)])
    with pytest.raises(InvalidParameter):
        classify(psi, GroupSpec(Family.EVEN_ORTHOGONAL, 5))


def test_classify_partitions_all_entries():
    for family in (Family.SYMPLECTIC, Family.ODD_ORTHOGONAL, Family.EVEN_ORTHOGONAL):
        seen = 0
        for psi, G in exhaustive_valid_parameters(family, max_entries=2, max_dim=3, max_mult=2):
            buckets = classify(psi, G)
            assert sum(map(len, buckets.buckets)) == len(psi.entries)
            assert buckets.d == len(buckets.same_type_even_mult)
            seen += 1
        assert seen > 0
