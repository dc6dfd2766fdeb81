"""Tests for both sides of the two-sided R-group computation on standard
Levi subgroups, and for the instance fuzzer."""

from collections import Counter

import pytest

from rgroups import (
    DeltaFactor,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    arthur_r_group,
    centralizer,
    knapp_stein_r_group,
    parameter_of_induced,
    random_instance,
    unresolved_centralizer,
    validate_parameter,
    verify_theorem,
    weyl_quotient,
)
from rgroups.errors import BoundsInfeasible, InvalidInducingData
from rgroups.levi import validate_inducing

from helpers import (
    CLASSICAL_FAMILIES,
    STREAM_DIGEST,
    VERIFY_DIGEST,
    csd,
    filler_sigma,
    jordan_parity_ok,
    maximal_levi,
    ncsd,
    orth,
    pair,
    pole_orders,
    sign_condition,
    stream_digest,
    sympl,
    verify_digest,
)


def sp_sigma() -> JordanData:
    """A discrete series of Sp(4, F): blocks of dimensions 1 + 4."""
    return JordanData(
        GroupSpec(Family.SYMPLECTIC, 2),
        (Summand(orth("a"), 1), Summand(sympl("s", 2), 2)),
    )


def test_inducing_data_shape_and_ambient():
    pi = InducingData(
        (DeltaFactor(Summand(pair("p", 2), 1), 2),), sp_sigma()
    )
    assert pi.ambient_group() == GroupSpec(Family.SYMPLECTIC, 6)


def test_repeated_delta_is_flagged():
    delta = DeltaFactor(Summand(orth("z", 3), 1), 1)
    pi = InducingData((delta, delta), sp_sigma())
    report = validate_inducing(pi)
    assert any(v.rule == "repeated-delta" for v in report.violations)
    with pytest.raises(InvalidInducingData):
        knapp_stein_r_group(pi)


def test_knapp_stein_counts():
    sigma = sp_sigma()
    # all delta factors non-self-dual: rank 0
    pi = InducingData(
        (
            DeltaFactor(Summand(pair("p", 2), 1), 1),
            DeltaFactor(Summand(pair("q", 1), 3), 2),
        ),
        sigma,
    )
    assert knapp_stein_r_group(pi).rank == 0
    # a single delta that is a Jordan block: irreducible, rank 0
    pi = InducingData((DeltaFactor(Summand(orth("a"), 1), 1),), sigma)
    assert knapp_stein_r_group(pi).rank == 0
    # same type not a block / opposite type / block: only the first counts
    pi = InducingData(
        (
            DeltaFactor(Summand(orth("x", 3), 1), 1),
            DeltaFactor(Summand(sympl("y", 2), 1), 2),
            DeltaFactor(Summand(orth("a"), 1), 3),
        ),
        sigma,
    )
    assert knapp_stein_r_group(pi).rank == 1


def test_arthur_side_merges_multiplicities():
    sigma = sp_sigma()
    # self-dual same-type delta not a block: multiplicity doubles to 2m
    pi = InducingData((DeltaFactor(Summand(orth("x", 3), 1), 1),), sigma)
    phi = parameter_of_induced(pi)
    entry = next(e for e in phi.entries if e.summand.rho.label == "x")
    assert entry.multiplicity == 2
    assert arthur_r_group(phi, pi.ambient_group()).rank == 1
    # a block as delta merges to 2m + 1
    pi = InducingData((DeltaFactor(Summand(orth("a"), 1), 2),), sigma)
    phi = parameter_of_induced(pi)
    entry = next(e for e in phi.entries if e.summand.rho.label == "a")
    assert entry.multiplicity == 5
    assert arthur_r_group(phi, pi.ambient_group()).rank == 0
    # non-self-dual deltas assemble to a dual pair and contribute nothing
    pi = InducingData((DeltaFactor(Summand(pair("p", 2), 1), 3),), sigma)
    phi = parameter_of_induced(pi)
    assert phi.entries[1 if phi.entries[0].summand.self_dual else 0].multiplicity == 3
    assert arthur_r_group(phi, pi.ambient_group()).rank == 0


def test_assembled_parameter_is_valid():
    pi = InducingData(
        (
            DeltaFactor(Summand(orth("x", 3), 1), 1),
            DeltaFactor(Summand(sympl("y", 2), 1), 2),
            DeltaFactor(Summand(pair("p", 2), 2), 1),
        ),
        sp_sigma(),
    )
    phi = parameter_of_induced(pi)
    assert validate_parameter(phi, pi.ambient_group()).ok


def test_verify_theorem_mixed_instance():
    sigma = sp_sigma()
    pi = InducingData(
        (
            DeltaFactor(Summand(orth("x", 3), 1), 1),
            DeltaFactor(Summand(sympl("y", 2), 1), 2),
            DeltaFactor(Summand(orth("a"), 1), 3),
        ),
        sigma,
    )
    result = verify_theorem(pi)
    assert result.agree
    assert result.ks_rank == result.arthur_rank == 1
    counted = [row for row in result.witness if row.counted]
    assert len(counted) == 1 and counted[0].summand.rho.label == "x"
    member = next(r for r in result.witness if r.summand.rho.label == "a")
    assert member.self_dual and member.same_type and member.in_jordan
    opposite = next(r for r in result.witness if r.summand.rho.label == "y")
    assert opposite.self_dual and not opposite.same_type


def test_pure_sigma_instance_has_trivial_r_groups():
    pi = InducingData((), sp_sigma())
    result = verify_theorem(pi)
    assert result.ks_rank == result.arthur_rank == 0


def witness_instances():
    """Fuzzed data of the three classical families, seeds 0-199 each, and
    every unitary maximal-Levi case on small ranks: a conjugate-dual pair,
    a conjugate-self-dual delta off sigma, and the same delta as a block."""
    for family in CLASSICAL_FAMILIES:
        bounds = FuzzBounds(family=family)
        for seed in range(200):
            yield random_instance(seed, bounds)
    for lam in (1, -1):
        for a in range(1, 5):
            for d in (1, 2):
                for rank in range(0, 7):
                    sigma = filler_sigma(rank)
                    yield maximal_levi(Summand(ncsd("z", d), a), sigma)
                    delta = Summand(csd("z", lam, dim=d), a)
                    yield maximal_levi(delta, sigma)
                    if delta.dim <= rank and sign_condition(lam, a, rank):
                        yield maximal_levi(delta, filler_sigma(rank, delta))


def test_witness_rows_match_counting_rule():
    """Each row against a reference outside the counting code: the type
    test of a self-dual row is ``jordan_parity_ok``, and a non-self-dual
    row neither matches the type nor counts."""
    for pi in witness_instances():
        result = verify_theorem(pi)
        assert result.ks_rank == sum(row.counted for row in result.witness)
        assert result.ks_rank == knapp_stein_r_group(pi).rank
        group = pi.sigma.group
        for row in result.witness:
            assert row.counted == (
                row.self_dual and row.same_type and not row.in_jordan
            )
            if row.self_dual:
                assert row.same_type == jordan_parity_ok(
                    row.summand.rho, row.summand.a, group
                )
            else:
                assert not row.same_type and not row.counted


def test_random_instance_is_deterministic():
    bounds = FuzzBounds(family=Family.EVEN_ORTHOGONAL)
    assert random_instance(123, bounds) == random_instance(123, bounds)


def test_random_instance_stream_is_pinned():
    assert stream_digest() == STREAM_DIGEST


def test_verification_of_the_stream_is_pinned():
    assert verify_digest() == VERIFY_DIGEST


def test_random_instance_always_validates():
    for family in CLASSICAL_FAMILIES:
        bounds = FuzzBounds(family=family)
        for seed in range(100):
            pi = random_instance(seed, bounds)
            assert validate_inducing(pi).ok
            assert pi.sigma.group.family is family


def test_random_instance_covers_all_witness_kinds():
    seen = set()
    for seed in range(300):
        result = verify_theorem(random_instance(seed))
        for row in result.witness:
            if not row.self_dual:
                seen.add("pair")
            elif not row.same_type:
                seen.add("opposite")
            elif row.in_jordan:
                seen.add("member")
            else:
                seen.add("reducible")
    assert seen == {"pair", "opposite", "member", "reducible"}


def test_random_instance_max_deltas_zero():
    bounds = FuzzBounds(max_deltas=0)
    pi = random_instance(7, bounds)
    assert pi.deltas == ()
    result = verify_theorem(pi)
    assert result.ks_rank == result.arthur_rank == 0


def test_infeasible_bounds():
    with pytest.raises(BoundsInfeasible):
        FuzzBounds(max_a=0)
    with pytest.raises(BoundsInfeasible):
        FuzzBounds(max_dim=0)
    with pytest.raises(ValueError):
        FuzzBounds(family=Family.UNITARY)


def test_multiplicity_invariance_spot_checks():
    for seed in range(50):
        pi = random_instance(seed)
        base = verify_theorem(pi)
        for index in range(len(pi.deltas)):
            for mult in (1, 2, 3):
                mutated = InducingData(
                    tuple(
                        DeltaFactor(d.summand, mult if i == index else d.multiplicity)
                        for i, d in enumerate(pi.deltas)
                    ),
                    pi.sigma,
                )
                result = verify_theorem(mutated)
                assert result.ks_rank == base.ks_rank
                assert result.arthur_rank == base.arthur_rank


def test_adding_non_self_dual_delta_changes_nothing():
    for seed in range(50):
        pi = random_instance(seed)
        base = verify_theorem(pi)
        extra = DeltaFactor(Summand(pair("zzz-extra", 2), 4), 2)
        grown = InducingData(pi.deltas + (extra,), pi.sigma)
        result = verify_theorem(grown)
        assert (result.ks_rank, result.arthur_rank) == (
            base.ks_rank,
            base.arthur_rank,
        )
        assert result.agree


def test_oracle_agrees_along_the_levi_chain():
    """Levi datum -> parameter -> centralizer -> oracle on criterion 3's
    traffic, where most parameters hold a summand with a > 1: the
    brute-force Weyl quotient of both the unresolved and the resolved
    centralizer equals the Arthur rank and the Knapp-Stein rank, and so
    does the number of self-dual deltas with no L-function pole at 0.  An
    oracle refused by its bound fails the test."""
    longer = self_dual = 0
    for family in CLASSICAL_FAMILIES:
        bounds = FuzzBounds(max_deltas=5, max_dim=4, max_a=5, max_mult=3, family=family)
        for seed in range(1_000):
            pi = random_instance(seed, bounds)
            phi, group = parameter_of_induced(pi), pi.ambient_group()
            ks = knapp_stein_r_group(pi)
            unresolved = unresolved_centralizer(phi, group)
            assert weyl_quotient(unresolved) == arthur_r_group(phi, group) == ks, (family, seed)
            assert weyl_quotient(centralizer(phi, group)) == ks, (family, seed)
            orders = pole_orders(pi)
            assert max(orders, default=0) <= 1 and orders.count(0) == ks.rank, (family, seed)
            self_dual += len(orders)
            # every sp parameter carries a live determinant condition, no other does
            assert unresolved.has_live_constraint == (family is Family.SYMPLECTIC)
            longer += any(e.summand.a > 1 for e in phi.entries)
    assert longer == 2_737
    assert self_dual == 5_020


def test_same_rho_table_agrees_four_ways():
    """A delta rho (x) S_a against a Jordan block rho (x) S_b of the same
    rho with a != b, in every classical family: it is no block, so it
    reduces exactly when it has the dual group's type.  The Knapp-Stein
    rank, the Arthur rank, the brute-force Weyl quotient of the
    unresolved centralizer and the absence of an L-function pole at 0
    agree on every valid datum.  A match against the blocks on rho alone
    would call every such delta a block."""
    valid, ranks = 0, Counter()
    for family in CLASSICAL_FAMILIES:
        odd_total = family is Family.SYMPLECTIC
        for rho in (orth("r", 1), orth("r", 2), sympl("r", 2)):
            for b in range(1, 6):
                blocks = (Summand(rho, b),)
                if rho.dim * b % 2 != odd_total:
                    blocks += (Summand(orth("f"), 1),)
                sigma = JordanData(GroupSpec(family, sum(x.dim for x in blocks) // 2), blocks)
                for a in range(1, 6):
                    for mult in (1, 2):
                        pi = InducingData((DeltaFactor(Summand(rho, a), mult),), sigma)
                        if a == b or not validate_inducing(pi).ok:
                            continue
                        phi, group = parameter_of_induced(pi), pi.ambient_group()
                        ks = knapp_stein_r_group(pi)
                        oracle = weyl_quotient(unresolved_centralizer(phi, group))
                        assert ks == arthur_r_group(phi, group) == oracle, pi
                        orders = pole_orders(pi)
                        assert orders in ([0], [1]) and orders.count(0) == ks.rank, pi
                        valid += 1
                        ranks[ks.rank] += 1
    assert valid == 168
    assert ranks == {0: 100, 1: 68}
