"""Tests for centralizer descriptors and the closed-form R-group rank."""

import pytest

from rgroups import (
    CentralizerDescriptor,
    ElementaryTwoGroup,
    Factor,
    FactorKind,
    Family,
    GroupSpec,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    classify,
    descriptor_rank,
)
from rgroups.errors import InvalidParameter

from helpers import exhaustive_valid_parameters, orth, pair, sympl, total_dimension

GL = FactorKind.GENERAL_LINEAR
SP = FactorKind.SYMPLECTIC
O = FactorKind.FULL_ORTHOGONAL
SO = FactorKind.SPECIAL_ORTHOGONAL


def test_factor_validation():
    with pytest.raises(ValueError):
        Factor(SP, 3, 1)  # symplectic factors have even size
    with pytest.raises(ValueError):
        Factor(GL, 0, 1)


def test_descriptor_describe():
    live = CentralizerDescriptor(
        (Factor(O, 1, 1), Factor(GL, 2, 2), Factor(O, 3, 1)), ((0, 1), (2, 1))
    )
    assert live.describe() == "O(1) x GL(2) x O(3)  [det condition on factors 0,2]"
    assert CentralizerDescriptor((), None).describe() == "1"


def test_descriptor_constraint_validation():
    factors = (Factor(O, 3, 1), Factor(GL, 2, 2))
    CentralizerDescriptor(factors, ((0, 1),))
    with pytest.raises(ValueError):
        CentralizerDescriptor(factors, ((1, 1),))  # GL is never constrained
    with pytest.raises(ValueError):
        CentralizerDescriptor(factors, ((0, 2),))  # exponent is source_dim mod 2
    with pytest.raises(ValueError):
        CentralizerDescriptor((Factor(O, 3, 2),), ((0, 1),))  # even source_dim
    with pytest.raises(ValueError):
        CentralizerDescriptor(factors, ((5, 1),))


def test_elementary_two_group():
    assert ElementaryTwoGroup(0).order == 1
    assert str(ElementaryTwoGroup(0)) == "1"
    assert ElementaryTwoGroup(3).order == 8
    assert str(ElementaryTwoGroup(2)) == "Z2^2"
    with pytest.raises(ValueError):
        ElementaryTwoGroup(-1)


def test_odd_orthogonal_same_type_gives_full_orthogonal_factor():
    # m copies of a same-type (symplectic, even-dim) summand: O(m) with a
    # vacuous determinant condition.
    psi = canonicalize([(Summand(sympl("r", 2), 1), 4)])
    G = GroupSpec(Family.ODD_ORTHOGONAL, 4)
    desc = centralizer(psi, G)
    assert desc.factors == (Factor(O, 4, 2),)
    assert desc.det_constraint == ()
    assert not desc.has_live_constraint


def test_symplectic_single_entry_demotes_to_special_orthogonal():
    # m odd copies of an odd-dimensional orthogonal summand fill the odd
    # dual dimension; the determinant condition pins the factor to SO(m).
    psi = canonicalize([(Summand(orth("r", 3), 1), 3)])
    G = GroupSpec(Family.SYMPLECTIC, 4)
    desc = centralizer(psi, G)
    assert desc.factors == (Factor(SO, 3, 3),)
    assert desc.det_constraint == ()


def test_dual_pair_gives_general_linear_factor():
    s = Summand(pair("p", 2), 1)
    psi = canonicalize([(s, 3), (s.dual_partner(), 3)])
    G = GroupSpec(Family.EVEN_ORTHOGONAL, 6)
    desc = centralizer(psi, G)
    assert desc.factors == (Factor(GL, 3, 2),)
    assert desc.det_constraint is None  # even orthogonal: no condition


def test_opposite_type_gives_symplectic_factor():
    psi = canonicalize(
        [(Summand(orth("x", 3), 1), 2), (Summand(sympl("s", 2), 1), 1)]
    )
    G = GroupSpec(Family.ODD_ORTHOGONAL, 4)
    desc = centralizer(psi, G)
    assert Factor(SP, 2, 3) in desc.factors
    assert Factor(O, 1, 2) in desc.factors


def test_demotion_picks_first_odd_factor_and_frees_the_rest():
    # Two odd-dim odd-mult same-type entries plus two even-mult ones: only
    # the lexicographically first odd factor is demoted, the rest stay O.
    psi = canonicalize(
        [
            (Summand(orth("a", 1), 1), 3),
            (Summand(orth("b", 5), 1), 1),
            (Summand(orth("c", 3), 1), 2),
            (Summand(orth("d", 1), 1), 2),
        ]
    )
    assert total_dimension(psi) == 3 + 5 + 6 + 2
    G = GroupSpec(Family.SYMPLECTIC, 7)  # dual dimension 15 < 16: invalid
    with pytest.raises(InvalidParameter):
        centralizer(psi, G)
    psi = canonicalize(
        [
            (Summand(orth("a", 1), 1), 3),
            (Summand(orth("b", 5), 1), 2),
            (Summand(orth("c", 3), 1), 2),
        ]
    )
    assert total_dimension(psi) == 19
    G = GroupSpec(Family.SYMPLECTIC, 9)
    desc = centralizer(psi, G)
    assert desc.factors == (
        Factor(SO, 3, 1),  # demoted: first odd-size odd-source-dim factor
        Factor(O, 2, 5),
        Factor(O, 2, 3),
    )
    assert desc.det_constraint == ()
    assert arthur_r_group(psi, G).rank == 2


def test_demotion_with_multiple_odd_factors():
    # Three odd-size odd-dim same-type entries: only the first is demoted.
    psi = canonicalize(
        [
            (Summand(orth("a", 1), 1), 3),
            (Summand(orth("b", 3), 1), 1),
            (Summand(orth("c", 5), 1), 1),
        ]
    )
    assert total_dimension(psi) == 11
    desc = centralizer(psi, GroupSpec(Family.SYMPLECTIC, 5))
    assert desc.factors == (
        Factor(SO, 3, 1),
        Factor(O, 1, 3),
        Factor(O, 1, 5),
    )


def test_arthur_rank_examples():
    s = Summand(pair("p", 1), 1)
    psi = canonicalize([(s, 2), (s.dual_partner(), 2)])
    assert arthur_r_group(psi, GroupSpec(Family.EVEN_ORTHOGONAL, 2)).rank == 0

    psi = canonicalize([(Summand(sympl("s", 2), 1), 2)])
    assert arthur_r_group(psi, GroupSpec(Family.ODD_ORTHOGONAL, 2)).rank == 1

    psi = canonicalize(
        [
            (Summand(orth("a", 1), 1), 3),
            (Summand(orth("b", 1), 3), 2),
            (Summand(orth("c", 1), 5), 4),
        ]
    )
    assert total_dimension(psi) == 3 + 6 + 20
    assert arthur_r_group(psi, GroupSpec(Family.SYMPLECTIC, 14)).rank == 2


def test_arthur_rank_requires_valid_parameter():
    psi = canonicalize([(Summand(orth("a"), 1), 1)])
    with pytest.raises(InvalidParameter):
        arthur_r_group(psi, GroupSpec(Family.SYMPLECTIC, 3))


def test_descriptor_rank_counts_even_full_orthogonal_factors():
    desc = CentralizerDescriptor(
        (Factor(GL, 4, 2), Factor(SP, 2, 2), Factor(O, 3, 2), Factor(O, 2, 2)),
        None,
    )
    assert descriptor_rank(desc).rank == 1
    with pytest.raises(ValueError):
        descriptor_rank(
            CentralizerDescriptor((Factor(O, 3, 1),), ((0, 1),))
        )


def test_rank_equals_even_orthogonal_factor_count_on_enumerated_sets():
    for family in (Family.SYMPLECTIC, Family.ODD_ORTHOGONAL, Family.EVEN_ORTHOGONAL):
        for psi, G in exhaustive_valid_parameters(family, max_entries=2, max_dim=3, max_mult=3):
            desc = centralizer(psi, G)
            assert arthur_r_group(psi, G) == descriptor_rank(desc)
            assert arthur_r_group(psi, G).rank == classify(psi, G).d


def test_odd_orthogonal_constraint_always_vacuous():
    for psi, G in exhaustive_valid_parameters(
        Family.ODD_ORTHOGONAL, max_entries=2, max_dim=4, max_mult=3
    ):
        assert centralizer(psi, G).det_constraint == ()
