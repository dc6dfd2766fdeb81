"""Tests for Jordan-block data, the reducibility predicate and the
parameter of sigma.

The block-side parity condition is ``helpers.jordan_parity_ok``, a
reference outside the product; reducibility is read off the product's
``knapp_stein_r_group`` on data with one delta factor, and the parameter
of sigma is the parameter induced from sigma with no delta factors."""

import itertools

from rgroups import (
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    Family,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    knapp_stein_r_group,
    parameter_of_induced,
    validate_jordan,
    validate_parameter,
)

from helpers import jordan_parity_ok, orth, pair, sympl, total_dimension


def ks_reducible(summand: Summand, sigma: JordanData) -> bool:
    """Whether delta(summand) induces reducibly against sigma: the
    Knapp-Stein rank of the datum with this one delta factor."""
    pi = InducingData((DeltaFactor(summand, 1),), sigma)
    return knapp_stein_r_group(pi).rank == 1


def steinberg_sigma(rank: int) -> JordanData:
    """One orthogonal block of full odd dimension 2*rank + 1."""
    return JordanData(
        GroupSpec(Family.SYMPLECTIC, rank),
        (Summand(orth("st"), 2 * rank + 1),),
    )


def test_steinberg_type_jordan_data_is_valid():
    for rank in range(0, 4):
        assert validate_jordan(steinberg_sigma(rank)).ok


def test_blocks_are_deduplicated_and_sorted():
    block = Summand(orth("a"), 1)
    other = Summand(orth("b"), 3)
    sigma = JordanData(GroupSpec(Family.SYMPLECTIC, 1), (other, block, block))
    assert sigma.blocks == (block, other)


def test_blocks_sharing_a_sort_key_keep_the_set_order():
    # two different summands of one (label, a), among repeats and others
    first, second = Summand(orth("a", 1), 1), Summand(sympl("a", 2), 1)
    other = Summand(orth("b"), 3)
    for blocks in itertools.permutations((first, second, other, first, other)):
        sigma = JordanData(GroupSpec(Family.SYMPLECTIC, 2), blocks)
        assert sigma.blocks == tuple(sorted(set(blocks), key=Summand.sort_key))
        assert len(sigma.blocks) == 3 and sigma.blocks[2] == other
    repeats = (other, first, other, first)
    assert JordanData(GroupSpec(Family.SYMPLECTIC, 2), repeats).blocks == (first, other)


def test_mixed_parity_is_flagged():
    rho = orth("r")
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 2),
        (Summand(rho, 2), Summand(rho, 3)),
    )
    report = validate_jordan(sigma)
    assert not report.ok
    assert any(
        v.rule == "J-1" and "mixed parity" in v.message for v in report.violations
    )
    # the even block also fails the type condition outright
    assert any(
        v.rule == "J-1" and "same type" in v.message for v in report.violations
    )


def test_mixed_parity_violations_are_listed_in_label_order():
    # z's parity changes twice along its blocks and is reported once
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 7),
        (
            Summand(orth("z"), 4),
            Summand(orth("z"), 3),
            Summand(orth("z"), 2),
            Summand(sympl("b"), 1),
            Summand(sympl("b"), 2),
        ),
    )
    assert [(v.rule, v.message) for v in validate_jordan(sigma).violations] == [
        ("J-1", "block b(x)S_1 is not of the same type as the dual group of Sp(14, F)"),
        ("J-1", "block z(x)S_2 is not of the same type as the dual group of Sp(14, F)"),
        ("J-1", "block z(x)S_4 is not of the same type as the dual group of Sp(14, F)"),
        ("J-1", "mixed parity in the blocks attached to 'b'"),
        ("J-1", "mixed parity in the blocks attached to 'z'"),
    ]


def test_unitary_mixed_parity_has_no_line_of_its_own():
    chi = CuspidalSymbol("x", 1, DualityType.ORTHOGONAL, conjugate=True)
    sigma = JordanData(GroupSpec(Family.UNITARY, 3), (Summand(chi, 1), Summand(chi, 2)))
    assert [(v.rule, v.message) for v in validate_jordan(sigma).violations] == [
        ("J-1", "block x(x)S_2 fails the sign condition for U(3)"),
    ]


def test_even_orthogonal_rank_one_is_flagged():
    sigma = JordanData(
        GroupSpec(Family.EVEN_ORTHOGONAL, 1),
        (Summand(orth("a"), 1), Summand(orth("b"), 1)),
    )
    report = validate_jordan(sigma)
    assert any(v.rule == "no-discrete-series" for v in report.violations)


def test_non_self_dual_block_is_flagged():
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 1), (Summand(pair("p", 3), 1),)
    )
    report = validate_jordan(sigma)
    assert any(v.rule == "self-dual" for v in report.violations)


def test_dimension_mismatch_is_flagged():
    sigma = JordanData(GroupSpec(Family.SYMPLECTIC, 3), (Summand(orth("a"), 3),))
    report = validate_jordan(sigma)
    assert any(v.rule == "dimension" for v in report.violations)


def test_unitary_blocks_follow_the_parity_of_the_rank():
    # the dual type of U(n) is (-1)^(n-1): a conjugate-orthogonal character
    # is a block of U(n) for n odd, a conjugate-symplectic one for n even
    for n in range(1, 7):
        for duality in (DualityType.ORTHOGONAL, DualityType.SYMPLECTIC):
            chi = CuspidalSymbol("chi", 1, duality, conjugate=True)
            expected = (duality is DualityType.ORTHOGONAL) == (n % 2 == 1)
            assert jordan_parity_ok(chi, 1, GroupSpec(Family.UNITARY, n)) == expected
    report = validate_jordan(JordanData(GroupSpec(Family.UNITARY, 2), ()))
    assert [v.rule for v in report.violations] == ["dimension"]


def test_jordan_parity_table():
    sp = GroupSpec(Family.SYMPLECTIC, 3)
    so = GroupSpec(Family.ODD_ORTHOGONAL, 3)
    assert jordan_parity_ok(sympl("s"), 2, sp)
    assert jordan_parity_ok(orth("o"), 1, sp)
    assert not jordan_parity_ok(orth("o"), 1, so)
    assert not jordan_parity_ok(orth("o"), 2, sp)
    assert jordan_parity_ok(orth("o"), 2, so)
    assert jordan_parity_ok(sympl("s"), 1, so)
    assert not jordan_parity_ok(pair("p"), 1, sp)


def test_is_reducible_table():
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 2),
        (Summand(orth("a"), 1), Summand(orth("b"), 3), Summand(orth("c"), 1)),
    )
    assert validate_jordan(sigma).ok
    # members are irreducible
    assert not ks_reducible(Summand(orth("a"), 1), sigma)
    assert not ks_reducible(Summand(orth("b"), 3), sigma)
    # same type, not a member: reducible
    assert ks_reducible(Summand(orth("a"), 3), sigma)
    assert ks_reducible(Summand(orth("z"), 5), sigma)
    # opposite type: irreducible
    assert not ks_reducible(Summand(sympl("s"), 1), sigma)
    assert not ks_reducible(Summand(orth("a"), 2), sigma)
    # not self-dual: never the dual group's type, so irreducible
    assert not ks_reducible(Summand(pair("p"), 1), sigma)


def test_is_reducible_formula_by_table():
    sigma = JordanData(
        GroupSpec(Family.ODD_ORTHOGONAL, 4),
        (Summand(sympl("s", 2), 1), Summand(sympl("s", 2), 3)),
    )
    assert validate_jordan(sigma).ok
    for rho in (sympl("s", 2), sympl("t", 2), sympl("u", 2), orth("v", 1)):
        for a in range(1, 5):
            expected = jordan_parity_ok(rho, a, sigma.group) and Summand(
                rho, a
            ) not in sigma.blocks
            assert ks_reducible(Summand(rho, a), sigma) == expected


def test_blocks_always_pass_parity():
    sigma = JordanData(
        GroupSpec(Family.EVEN_ORTHOGONAL, 3),
        (Summand(orth("a"), 1), Summand(orth("b"), 5)),
    )
    assert validate_jordan(sigma).ok
    for block in sigma.blocks:
        assert jordan_parity_ok(block.rho, block.a, sigma.group)


def test_parameter_of_sigma_empty_residual():
    sigma = JordanData(GroupSpec(Family.EVEN_ORTHOGONAL, 0), ())
    assert validate_jordan(sigma).ok
    phi = parameter_of_induced(InducingData((), sigma))
    assert phi.entries == ()
    assert total_dimension(phi) == 0


def test_parameter_of_sigma_rank_zero_symplectic():
    # The trivial group in the symplectic family still has a 1-dimensional
    # dual, filled by a single 1-dimensional orthogonal block.
    sigma = JordanData(GroupSpec(Family.SYMPLECTIC, 0), (Summand(orth("triv"), 1),))
    assert validate_jordan(sigma).ok
    phi = parameter_of_induced(InducingData((), sigma))
    assert total_dimension(phi) == 1


def test_parameter_of_sigma_two_blocks():
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 2),
        (Summand(sympl("r", 2), 2), Summand(orth("t"), 1)),
    )
    assert validate_jordan(sigma).ok
    phi = parameter_of_induced(InducingData((), sigma))
    assert total_dimension(phi) == 5
    assert all(e.multiplicity == 1 for e in phi.entries)
    assert validate_parameter(phi, sigma.group).ok


def test_parameter_of_sigma_is_multiplicity_free_and_valid():
    cases = [
        steinberg_sigma(3),
        JordanData(
            GroupSpec(Family.ODD_ORTHOGONAL, 4),
            (Summand(sympl("s", 2), 1), Summand(sympl("s", 2), 3)),
        ),
        JordanData(
            GroupSpec(Family.EVEN_ORTHOGONAL, 2),
            (Summand(orth("a"), 1), Summand(orth("a"), 3)),
        ),
    ]
    for sigma in cases:
        assert validate_jordan(sigma).ok
        phi = parameter_of_induced(InducingData((), sigma))
        assert all(e.multiplicity == 1 for e in phi.entries)
        assert validate_parameter(phi, sigma.group).ok
