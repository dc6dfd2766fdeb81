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
    unresolved_centralizer,
    weyl_quotient,
)
from rgroups.errors import InvalidParameter

from helpers import csd, exhaustive_valid_parameters, ncsd, orth, pair, sympl, total_dimension

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


# Each factor's source_dim is the dimension of the whole summand rho (x) S_a,
# not of rho: with a > 1 the two differ, and in so-odd their parities can
# differ too, which decides whether the determinant condition is live.  The
# (kind, size, source_dim) rows are worked out by hand: classical factors
# come in the bucket order GL, Sp, O of odd multiplicity, O of even
# multiplicity, and by (label, a) inside a bucket.
SOURCE_DIM_TABLE = [
    # 2 r(x)S_2 of SO(5), r orthogonal of dimension 1: r(x)S_2 is
    # symplectic of dimension 2, the dual group's type, so O(2) with no
    # live condition and rank 1.
    (
        GroupSpec(Family.ODD_ORTHOGONAL, 2),
        [(Summand(orth("r", 1), 2), 2)],
        [(O, 2, 2)],
        [(O, 2, 2)],
        (),
        1,
    ),
    # so-odd, dual Sp(24): p(x)S_2 + its dual (dim 4), c(x)S_3 orthogonal of
    # dim 3 twice (6), b(x)S_4 symplectic of dim 4 (4), s(x)S_3 symplectic
    # of dim 6 (6), a(x)S_2 symplectic of dim 2 twice (4).  Every same-type
    # summand has even dimension, so the condition is vacuous.
    (
        GroupSpec(Family.ODD_ORTHOGONAL, 12),
        [
            (Summand(pair("p", 1), 2), 1),
            (Summand(pair("p", 1).dual_partner(), 2), 1),
            (Summand(orth("c", 1), 3), 2),
            (Summand(orth("b", 1), 4), 1),
            (Summand(sympl("s", 2), 3), 1),
            (Summand(orth("a", 1), 2), 2),
        ],
        [(GL, 1, 2), (SP, 2, 3), (O, 1, 4), (O, 1, 6), (O, 2, 2)],
        [(GL, 1, 2), (SP, 2, 3), (O, 1, 4), (O, 1, 6), (O, 2, 2)],
        (),
        1,
    ),
    # sp, dual SO(43): p(x)S_3 + its dual (dim 12), c(x)S_2 symplectic of
    # dim 2 twice (4), a(x)S_3 orthogonal of dim 3 three times (9), b(x)S_5
    # of dim 5 twice (10), s(x)S_2 orthogonal of dim 4 twice (8).  The O
    # factors of odd source dimension, a and b, carry the live condition;
    # the odd-size one, a, absorbs it as SO(3).
    (
        GroupSpec(Family.SYMPLECTIC, 21),
        [
            (Summand(pair("p", 2), 3), 1),
            (Summand(pair("p", 2).dual_partner(), 3), 1),
            (Summand(orth("c", 1), 2), 2),
            (Summand(orth("a", 1), 3), 3),
            (Summand(orth("b", 1), 5), 2),
            (Summand(sympl("s", 2), 2), 2),
        ],
        [(GL, 1, 6), (SP, 2, 2), (SO, 3, 3), (O, 2, 5), (O, 2, 4)],
        [(GL, 1, 6), (SP, 2, 2), (O, 3, 3), (O, 2, 5), (O, 2, 4)],
        ((2, 1), (3, 1)),
        2,
    ),
    # o-even, dual SO(30): p(x)S_2 + its dual twice (8), b(x)S_2 symplectic
    # of dim 6 twice (12), s(x)S_2 orthogonal of dim 4 (4), a(x)S_3
    # orthogonal of dim 3 twice (6).  No determinant condition.
    (
        GroupSpec(Family.EVEN_ORTHOGONAL, 15),
        [
            (Summand(pair("p", 1), 2), 2),
            (Summand(pair("p", 1).dual_partner(), 2), 2),
            (Summand(orth("b", 3), 2), 2),
            (Summand(sympl("s", 2), 2), 1),
            (Summand(orth("a", 1), 3), 2),
        ],
        [(GL, 2, 2), (SP, 2, 6), (O, 1, 4), (O, 2, 3)],
        [(GL, 2, 2), (SP, 2, 6), (O, 1, 4), (O, 2, 3)],
        None,
        1,
    ),
    # U(12), dual type symplectic: one factor per summand in (label, a)
    # order.  p(x)S_2 and its conjugate dual give GL(1) each (4), x(x)S_2
    # of sign +1 twisted to -1 twice (4), y(x)S_2 of sign -1 twisted to +1
    # twice (4).  No determinant condition.
    (
        GroupSpec(Family.UNITARY, 12),
        [
            (Summand(ncsd("p"), 2), 1),
            (Summand(ncsd("p").dual_partner(), 2), 1),
            (Summand(csd("x", 1), 2), 2),
            (Summand(csd("y", -1), 2), 2),
        ],
        [(GL, 1, 2), (GL, 1, 2), (O, 2, 2), (SP, 2, 2)],
        [(GL, 1, 2), (GL, 1, 2), (O, 2, 2), (SP, 2, 2)],
        None,
        1,
    ),
]


@pytest.mark.parametrize(
    "group, entries, resolved, unresolved, live, rank",
    SOURCE_DIM_TABLE,
    ids=["so-odd-single", "so-odd", "sp", "o-even", "unitary"],
)
def test_source_dim_is_the_summand_dimension(
    group, entries, resolved, unresolved, live, rank
):
    psi = canonicalize(entries)
    desc = centralizer(psi, group)
    assert [(f.kind, f.size, f.source_dim) for f in desc.factors] == resolved
    assert desc.det_constraint == (None if live is None else ())
    assert weyl_quotient(desc).rank == arthur_r_group(psi, group).rank == rank
    desc = unresolved_centralizer(psi, group)
    assert [(f.kind, f.size, f.source_dim) for f in desc.factors] == unresolved
    assert desc.det_constraint == live


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


def test_oracle_counts_even_full_orthogonal_factors():
    desc = CentralizerDescriptor(
        (Factor(GL, 4, 2), Factor(SP, 2, 2), Factor(O, 3, 2), Factor(O, 2, 2)),
        None,
    )
    assert weyl_quotient(desc).rank == 1


def test_rank_equals_even_orthogonal_factor_count_on_enumerated_sets():
    for family in (Family.SYMPLECTIC, Family.ODD_ORTHOGONAL, Family.EVEN_ORTHOGONAL):
        for psi, G in exhaustive_valid_parameters(family, max_entries=2, max_dim=3, max_mult=3):
            desc = centralizer(psi, G)
            assert arthur_r_group(psi, G) == weyl_quotient(desc)
            assert arthur_r_group(psi, G).rank == classify(psi, G).d


def test_odd_orthogonal_constraint_always_vacuous():
    for psi, G in exhaustive_valid_parameters(
        Family.ODD_ORTHOGONAL, max_entries=2, max_dim=4, max_mult=3
    ):
        assert centralizer(psi, G).det_constraint == ()
