"""Tests for unitary groups on the shared classical path: sign arithmetic,
Jordan data, centralizers, the maximal-Levi two-sided check and the
two-sided check on every small Levi subgroup Res GL x ... x Res GL x U,
several delta factors and multiplicities included, under the delta rules
of the classical families.

The builders and the sign formulas are in ``helpers``: a
conjugate-self-dual symbol of sign lambda is a conjugate
``CuspidalSymbol`` of type ORTHOGONAL (lambda = +1) or SYMPLECTIC
(lambda = -1), and the expected signs are computed from the formulas
lambda (-1)^(a+1) and (-1)^(n+1), independently of ``tensor_type``.
"""

import json
import re
from collections import Counter
from itertools import combinations, combinations_with_replacement

import pytest

from rgroups import (
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    FactorKind,
    Family,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    knapp_stein_r_group,
    parameter_of_induced,
    unresolved_centralizer,
    validate_jordan,
    validate_parameter,
    verify_theorem,
    weyl_quotient,
)
from rgroups.errors import InvalidInducingData, InvalidParameter, ParseError
from rgroups.instances import Instance, parse_instance, serialize_instance
from rgroups.levi import validate_inducing

from helpers import (
    U,
    csd,
    filler_sigma,
    jordan_parity_ok,
    maximal_levi,
    ncsd,
    orth,
    parity_sign,
    sign_condition,
    sign_of,
    twisted_sign,
)

GL = FactorKind.GENERAL_LINEAR
SP = FactorKind.SYMPLECTIC
O = FactorKind.FULL_ORTHOGONAL


def induced_centralizer(delta: Summand, sigma: JordanData):
    pi = maximal_levi(delta, sigma)
    assert pi.ambient_group() == U(sigma.group.rank + 2 * delta.dim)
    return centralizer(parameter_of_induced(pi), pi.ambient_group())


# ---------------------------------------------------------------------------
# Sign arithmetic
# ---------------------------------------------------------------------------


def summand_sign(lam: int, a: int) -> int:
    return sign_of(Summand(csd("x", lam), a).duality)


def test_lambda_tensor_values():
    assert summand_sign(1, 1) == 1
    assert summand_sign(1, 2) == -1
    assert summand_sign(-1, 4) == 1
    for lam in (1, -1):
        for a in range(1, 11):
            assert summand_sign(lam, a) == parity_sign(a + 1) * lam


def test_lambda_tensor_parity_behaviour():
    for lam in (1, -1):
        for a in range(1, 11):
            twice = summand_sign(summand_sign(lam, a), a)
            assert twice == lam  # identity for a odd, double flip for a even
            if a % 2:
                assert summand_sign(lam, a) == lam
            else:
                assert summand_sign(lam, a) == -lam


def test_lambda_tensor_input_validation():
    doc = {
        "format_version": "1",
        "family": "unitary",
        "symbols": {"x": {"dim": 1, "duality": "conjugate-self-dual", "lambda": 0}},
        "sigma": {"rank": 1, "blocks": [["x", 1]]},
        "deltas": [],
    }
    with pytest.raises(ParseError, match="lambda"):
        parse_instance(json.dumps(doc))
    with pytest.raises(ValueError):
        Summand(csd("x", 1), 0)


def test_unitary_jordan_condition_table():
    for n in range(1, 7):
        lam_matching = parity_sign(n)
        assert jordan_parity_ok(csd("x", lam_matching), 2, U(n))
        assert not jordan_parity_ok(csd("x", lam_matching), 1, U(n))
        assert jordan_parity_ok(csd("x", parity_sign(n + 1)), 1, U(n))
        assert not jordan_parity_ok(csd("x", parity_sign(n + 1)), 2, U(n))


def test_unitary_jordan_condition_selects_one_parity():
    for lam in (1, -1):
        for n in range(1, 8):
            parities = {
                a % 2 for a in range(1, 9) if jordan_parity_ok(csd("x", lam), a, U(n))
            }
            assert len(parities) == 1
            assert all(
                jordan_parity_ok(csd("x", lam), a, U(n)) == sign_condition(lam, a, n)
                for a in range(1, 9)
            )


# ---------------------------------------------------------------------------
# Symbols and Jordan data
# ---------------------------------------------------------------------------


def test_unitary_symbol_validation():
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, DualityType.ORTHOGONAL, "y", conjugate=True)  # self-dual with a dual
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 3, DualityType.SYMPLECTIC)  # odd symplectic needs conjugate
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, DualityType.NOT_SELF_DUAL, conjugate=True)  # missing dual
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 1, DualityType.NOT_SELF_DUAL, "x", conjugate=True)
    with pytest.raises(ValueError):
        csd("x", 1, dim=3, matches=False)
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 2, DualityType.ORTHOGONAL, lambda_matches=False)  # not conjugate
    with pytest.raises(ValueError):
        CuspidalSymbol("x", 2, DualityType.NOT_SELF_DUAL, "y", conjugate=True, lambda_matches=False)
    assert csd("w", -1, dim=3).duality is DualityType.SYMPLECTIC
    assert not csd("x", -1, dim=2, matches=False).lambda_matches
    assert csd("y", 1, dim=2).lambda_matches
    partner = ncsd("p", 3).dual_partner()
    assert partner.label == "pt" and partner.dual_label == "p" and partner.conjugate


def test_unitary_summand_sign():
    s = Summand(csd("x", 1), 2)
    assert s.dim == 2 and sign_of(s.duality) == -1
    unusable = JordanData(U(2), (Summand(csd("x", -1, dim=2, matches=False), 1),))
    with pytest.raises(InvalidInducingData, match="sign-hypothesis"):
        knapp_stein_r_group(InducingData((), unusable))


def test_validate_unitary_jordan():
    assert validate_jordan(filler_sigma(3)).ok
    assert validate_jordan(filler_sigma(0)).ok

    bad_sign = JordanData(U(2), (Summand(csd("x", parity_sign(2), dim=2), 1),))
    report = validate_jordan(bad_sign)
    assert any(v.rule == "J-1" for v in report.violations)

    bad_dim = JordanData(U(3), (Summand(csd("x", 1), 1),))
    report = validate_jordan(bad_dim)
    assert any(v.rule == "dimension" for v in report.violations)

    not_csd = JordanData(U(1), (Summand(ncsd("p"), 1),))
    report = validate_jordan(not_csd)
    assert any(v.rule == "conjugate-self-dual" for v in report.violations)

    no_hypothesis = JordanData(U(2), (Summand(csd("x", -1, dim=2, matches=False), 1),))
    report = validate_jordan(no_hypothesis)
    assert any(v.rule == "sign-hypothesis" for v in report.violations)


def _vocabulary_violations(pi: InducingData) -> list[tuple[str, str]]:
    return [(v.rule, v.message) for v in validate_inducing(pi).violations]


def test_a_conjugate_symbol_in_a_classical_family_is_a_violation():
    """Sp(2) on the block x(x)S_1 of a conjugate x passes every other rule;
    the parser refuses its file for the same reason."""
    conj = CuspidalSymbol("x", 3, DualityType.ORTHOGONAL, conjugate=True)
    pi = InducingData((), JordanData(GroupSpec(Family.SYMPLECTIC, 1), (Summand(conj, 1),)))
    message = "block x(x)S_1 has the wrong duality vocabulary for family 'sp'"
    assert _vocabulary_violations(pi) == [("vocabulary", message)]
    with pytest.raises(InvalidInducingData, match=rf"^verify_theorem: vocabulary: {re.escape(message)}$"):
        verify_theorem(pi)
    with pytest.raises(ParseError, match="wrong duality vocabulary for family 'sp'"):
        parse_instance(serialize_instance(Instance(pi)))

    sigma = JordanData(GroupSpec(Family.SYMPLECTIC, 1), (Summand(orth("s", 3), 1),))
    pi = InducingData((DeltaFactor(Summand(csd("z", 1), 1), 1),), sigma)
    assert validate_jordan(sigma).ok
    assert _vocabulary_violations(pi) == [
        ("vocabulary", "delta symbol 'z' has the wrong duality vocabulary for family 'sp'")
    ]


def test_a_classical_symbol_in_the_unitary_family_is_a_violation():
    classical = Summand(orth("y", 1), 1)
    pi = InducingData((), JordanData(U(1), (classical,)))
    assert _vocabulary_violations(pi) == [
        ("vocabulary", "block y(x)S_1 has the wrong duality vocabulary for family 'unitary'")
    ]
    with pytest.raises(ParseError, match="wrong duality vocabulary for family 'unitary'"):
        parse_instance(serialize_instance(Instance(pi)))

    pi = InducingData((DeltaFactor(classical, 1),), filler_sigma(1))
    assert validate_jordan(pi.sigma).ok
    assert _vocabulary_violations(pi) == [
        ("vocabulary", "delta symbol 'y' has the wrong duality vocabulary for family 'unitary'")
    ]
    with pytest.raises(InvalidInducingData, match="^knapp_stein_r_group: vocabulary"):
        knapp_stein_r_group(pi)


def test_a_symbol_breaking_both_symbol_rules_keeps_its_report_order():
    """A conjugate symbol with an unusable sign breaks both per-symbol
    rules in Sp(2): a delta on it reports the vocabulary, then the sign;
    a block on it reports the vocabulary alone and no further rule."""
    unusable = csd("x", -1, dim=2, matches=False)
    sp = GroupSpec(Family.SYMPLECTIC, 1)
    sigma = JordanData(sp, (Summand(orth("s", 3), 1),))
    pi = InducingData((DeltaFactor(Summand(unusable, 1), 1),), sigma)
    assert validate_jordan(sigma).ok
    assert _vocabulary_violations(pi) == [
        ("vocabulary", "delta symbol 'x' has the wrong duality vocabulary for family 'sp'"),
        (
            "sign-hypothesis",
            "delta symbol 'x' has even dimension and no sign-agreement hypothesis",
        ),
    ]

    sigma = JordanData(sp, (Summand(unusable, 1), Summand(orth("s", 1), 1)))
    assert _vocabulary_violations(InducingData((), sigma)) == [
        ("vocabulary", "block x(x)S_1 has the wrong duality vocabulary for family 'sp'")
    ]


# ---------------------------------------------------------------------------
# Centralizers
# ---------------------------------------------------------------------------


def test_unitary_centralizer_pair_case():
    sigma = filler_sigma(3)
    delta = Summand(ncsd("p"), 1)
    desc = induced_centralizer(delta, sigma)
    assert desc.det_constraint is None
    gl_factors = [f for f in desc.factors if f.kind is GL]
    assert len(gl_factors) == 2
    assert all(f.size == 1 for f in gl_factors)
    assert all(f.size == 1 for f in desc.factors)
    assert weyl_quotient(desc).rank == 0


def test_unitary_centralizer_merged_block_gives_odd_orthogonal():
    lam = parity_sign(3 + 1)
    block = Summand(csd("x", lam), 1)
    sigma = filler_sigma(3, block)
    desc = induced_centralizer(block, sigma)
    merged = next(f for f in desc.factors if f.size == 3)
    assert merged.kind is O
    assert weyl_quotient(desc).rank == 0


def test_unitary_centralizer_sp2_case():
    sigma = filler_sigma(3)
    delta = Summand(csd("x", parity_sign(3)), 1)  # condition fails
    desc = induced_centralizer(delta, sigma)
    assert any(f.kind is SP and f.size == 2 for f in desc.factors)


def test_unitary_centralizer_o2_case():
    sigma = filler_sigma(3)
    delta = Summand(csd("x", parity_sign(3 + 1)), 1)
    desc = induced_centralizer(delta, sigma)
    assert any(f.kind is O and f.size == 2 for f in desc.factors)
    assert weyl_quotient(desc).rank == 1


def test_unitary_centralizer_errors():
    too_big = canonicalize([(Summand(csd("x", 1), 1), 2)])
    with pytest.raises(InvalidParameter, match="^centralizer: dimension"):
        centralizer(too_big, U(3))
    odd_sp = canonicalize([(Summand(csd("x", parity_sign(3)), 1), 3)])
    with pytest.raises(InvalidParameter, match="^centralizer: odd-multiplicity"):
        centralizer(odd_sp, U(3))


def unitary_alphabet():
    """Entry shapes of a unitary parameter: a conjugate-dual pair
    (dim, mult) or a conjugate-self-dual summand (lambda, a, dim, mult)."""
    dims, mults = (1, 2), (1, 2, 3, 4)
    pairs = [("pair", None, 1, d, m) for d in dims for m in mults]
    signed = [("csd", lam, a, d, m) for lam in (1, -1) for a in (1, 2) for d in dims for m in mults]
    return pairs + signed


def test_unitary_closed_form_equals_oracle_exhaustively():
    """Over every unitary parameter of at most 3 canonical entries from
    :func:`unitary_alphabet`, up to relabeling, the closed-form rank and
    the brute-force Weyl quotient of the centralizer agree, and equal the
    count of entries whose sign lambda (-1)^(a+1) is (-1)^(n+1) with even
    multiplicity.  U(n) has no determinant condition, so the unresolved
    descriptor is the resolved one."""
    valid = 0
    seen_types, seen_ranks = set(), set()
    alphabet = unitary_alphabet()
    for size in (1, 2, 3):
        for combo in combinations_with_replacement(alphabet, size):
            raw, expected, n = [], [], 0
            for i, (kind, lam, a, dim, mult) in enumerate(combo):
                if kind == "pair":
                    rho = ncsd(f"s{i}", dim)
                    raw += [(Summand(rho, a), mult), (Summand(rho.dual_partner(), a), mult)]
                    n += 2 * dim * a * mult
                else:
                    raw.append((Summand(csd(f"s{i}", lam, dim), a), mult))
                    n += dim * a * mult
                    expected.append((twisted_sign(lam, a), mult))
            group = U(n)
            psi = canonicalize(raw)
            if not validate_parameter(psi, group).ok:
                # only an opposite-sign entry of odd multiplicity is refused
                assert any(sign != parity_sign(n + 1) and mult % 2 for sign, mult in expected)
                continue
            rank = sum(sign == parity_sign(n + 1) and mult % 2 == 0 for sign, mult in expected)
            desc = centralizer(psi, group)
            assert desc.det_constraint is None
            assert unresolved_centralizer(psi, group) == desc
            closed = arthur_r_group(psi, group)
            assert closed == weyl_quotient(desc), psi.describe()
            assert closed.rank == rank, psi.describe()
            valid += 1
            seen_types.add(group.dual_type)
            seen_ranks.add(rank)
    assert valid > 6_000
    assert seen_types == {DualityType.ORTHOGONAL, DualityType.SYMPLECTIC}
    assert seen_ranks == {0, 1, 2, 3}


# ---------------------------------------------------------------------------
# Maximal-Levi two-sided check
# ---------------------------------------------------------------------------


def case_of(delta: Summand, sigma: JordanData) -> str:
    if not delta.self_dual:
        return "pair"
    if delta in sigma.blocks:
        return "member"
    if sign_condition(sign_of(delta.rho.duality), delta.a, sigma.group.rank):
        return "reducible"
    return "irreducible"


EXPECTED = {
    "pair": (0, 0),
    "member": (0, 0),
    "irreducible": (0, 0),
    "reducible": (1, 1),
}


def test_maximal_levi_three_case_table():
    seen = set()
    for lam in (1, -1):
        for a in range(1, 7):
            for d in (1, 2):
                for rank in range(0, 13):
                    ambient = rank + 2 * d * a
                    if ambient > 12:
                        continue
                    for build in ("pair", "csd", "member"):
                        if build == "pair":
                            delta = Summand(ncsd("z", d), a)
                            sigma = filler_sigma(rank)
                        elif build == "csd":
                            delta = Summand(csd("z", lam, dim=d), a)
                            sigma = filler_sigma(rank)
                        else:
                            delta = Summand(csd("z", lam, dim=d), a)
                            if delta.dim > rank or not sign_condition(lam, a, rank):
                                continue
                            sigma = filler_sigma(rank, delta)
                        result = verify_theorem(maximal_levi(delta, sigma))
                        kind = case_of(delta, sigma)
                        seen.add(kind)
                        assert (result.ks_rank, result.arthur_rank) == EXPECTED[kind]
                        assert result.agree
    assert seen == {"pair", "member", "reducible", "irreducible"}


def test_maximal_levi_cases_are_exclusive_and_exhaustive():
    sigma = filler_sigma(3)
    deltas = [
        Summand(ncsd("p"), 1),
        Summand(csd("m", parity_sign(4)), 1),
        Summand(csd("x", parity_sign(3)), 1),
        sigma.blocks[0],
    ]
    kinds = {case_of(d, sigma) for d in deltas}
    assert kinds == {"pair", "reducible", "irreducible", "member"}


def test_maximal_levi_oracle_equivalence():
    for lam in (1, -1):
        for a in (1, 2, 3):
            for rank in (0, 2, 3):
                delta = Summand(csd("z", lam), a)
                sigma = filler_sigma(rank)
                result = verify_theorem(maximal_levi(delta, sigma))
                desc = induced_centralizer(delta, sigma)
                assert weyl_quotient(desc).rank == result.arthur_rank


def test_maximal_levi_rejects_invalid_sigma():
    bad = JordanData(U(3), (Summand(csd("x", 1), 1),))
    with pytest.raises(InvalidInducingData, match="^verify_theorem: dimension"):
        verify_theorem(maximal_levi(Summand(ncsd("p"), 1), bad))


def test_maximal_levi_rejects_unusable_sign():
    sigma = filler_sigma(2)
    delta = Summand(csd("x", 1, dim=2, matches=False), 1)
    with pytest.raises(InvalidInducingData, match="^verify_theorem: sign-hypothesis"):
        verify_theorem(maximal_levi(delta, sigma))


# ---------------------------------------------------------------------------
# Every small Levi subgroup: several deltas and multiplicities
# ---------------------------------------------------------------------------

# Conjugate-self-dual symbols of both signs and both dimensions, and the
# conjugate-dual pair z / zt.
LEVI_SYMBOLS = (csd("c", 1), csd("d", -1), csd("e", 1, dim=2), csd("g", -1, dim=2), ncsd("z"))


def levi_sigmas():
    """Every sigma of U(m), m <= 4, made of 1-dimensional fillers and at
    most one block on c, d, e or g with a <= 3."""
    for m in range(5):
        yield filler_sigma(m)
        for rho in LEVI_SYMBOLS[:4]:
            for a in (1, 2, 3):
                block = Summand(rho, a)
                if block.dim <= m and sign_condition(sign_of(rho.duality), a, m):
                    yield filler_sigma(m, block)


def levi_deltas():
    """Zero, one or two distinct delta factors on ``LEVI_SYMBOLS``, with
    a <= 3 and multiplicity <= 2."""
    factors = [
        DeltaFactor(Summand(rho, a), mult)
        for rho in LEVI_SYMBOLS
        for a in (1, 2, 3)
        for mult in (1, 2)
    ]
    yield ()
    for f in factors:
        yield (f,)
    for f, g in combinations(factors, 2):
        if f.summand != g.summand:
            yield (f, g)


def expected_ks_rank(pi: InducingData) -> int:
    """The Knapp-Stein count from the sign condition: a conjugate-self-dual
    delta counts when rho (x) S_a meets the sign condition of sigma's U(m)
    and is not a Jordan block, matched on both rho and a."""
    m = pi.sigma.group.rank
    blocks = {(b.rho.label, b.a) for b in pi.sigma.blocks}
    return sum(
        d.summand.self_dual
        and sign_condition(sign_of(d.summand.rho.duality), d.summand.a, m)
        and (d.summand.rho.label, d.summand.a) not in blocks
        for d in pi.deltas
    )


def test_every_small_levi_agrees_four_ways():
    """Each sigma of :func:`levi_sigmas` against each delta set of
    :func:`levi_deltas`: the data validate under the classical delta
    rules, and the product's Knapp-Stein rank, the count read off the
    sign condition, the Arthur rank and the brute-force Weyl quotient of
    the unresolved centralizer agree.  Some deltas share their rho with a
    Jordan block at another a, which a match on rho alone would call a
    block."""
    valid, shared_rho, ranks = 0, 0, Counter()
    for sigma in levi_sigmas():
        block_a = {b.rho.label: b.a for b in sigma.blocks}
        for deltas in levi_deltas():
            pi = InducingData(deltas, sigma)
            assert validate_inducing(pi).ok, pi
            result = verify_theorem(pi)
            desc = unresolved_centralizer(parameter_of_induced(pi), pi.ambient_group())
            rank = expected_ks_rank(pi)
            assert knapp_stein_r_group(pi).rank == result.ks_rank == rank, pi
            assert result.arthur_rank == weyl_quotient(desc).rank == rank, pi
            valid += 1
            ranks[rank] += 1
            shared_rho += any(
                block_a.get(d.summand.rho.label, d.summand.a) != d.summand.a for d in deltas
            )
    assert valid == 8_118
    assert ranks == {0: 3_428, 1: 3_870, 2: 820}
    assert shared_rho == 1_456
