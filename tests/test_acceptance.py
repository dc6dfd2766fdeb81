"""Acceptance suite: one test per exit criterion.

Every criterion is exact (group ranks and factor kinds, no tolerances) and
runs at desk scale.  The terminal summary prints one PASS/FAIL line per
criterion (see conftest.py).

Run the criteria and the two pinned fuzz-stream digests without pytest,
on any interpreter the package supports, with
``PYTHONPATH=src python tests/test_acceptance.py --check``: it prints one
PASS/FAIL line per check and exits 1 if one fails.
"""

import io
import platform
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rgroups import (
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    Factor,
    FactorKind,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    classify,
    parameter_of_induced,
    random_instance,
    unresolved_centralizer,
    validate_parameter,
    verify_theorem,
    weyl_quotient,
)
from rgroups.cli import main
from rgroups.instances import (
    Instance,
    load_instance,
    parse_instance,
    serialize_instance,
)

from helpers import (
    CLASSICAL_FAMILIES,
    STREAM_DIGEST,
    VERIFY_DIGEST,
    csd,
    exhaustive_valid_parameters,
    filler_sigma,
    maximal_levi,
    ncsd,
    opposite_of,
    parity_sign,
    sign_of,
    stream_digest,
    verify_digest,
)

GL = FactorKind.GENERAL_LINEAR
SP = FactorKind.SYMPLECTIC
O = FactorKind.FULL_ORTHOGONAL
SO = FactorKind.SPECIAL_ORTHOGONAL

CORPUS = Path(__file__).resolve().parent.parent / "instances"
REPLAY_DIR = Path(__file__).resolve().parent.parent / "fuzz-failures"


def _single_entry_parameter(kind: str, family: Family, dim: int, mult: int):
    """(parameter, group) for one entry template, or None when no such
    parameter exists (symplectic-type summands need even dimension, and
    the total must fill a dual group of the family)."""
    dual = GroupSpec(family, 1).dual_type
    duality = {
        "pair": DualityType.NOT_SELF_DUAL,
        "same": dual,
        "opposite": opposite_of(dual),
    }[kind]
    if duality is DualityType.SYMPLECTIC and dim % 2:
        return None
    total = (2 if kind == "pair" else 1) * mult * dim
    if family is Family.SYMPLECTIC:
        if total % 2 == 0:
            return None
        rank = (total - 1) // 2
    else:
        if total % 2 or total < 2:
            return None
        rank = total // 2
    if kind == "pair":
        rho = CuspidalSymbol("p", dim, duality, "q")
        entries = [(Summand(rho, 1), mult), (Summand(rho.dual_partner(), 1), mult)]
    else:
        entries = [(Summand(CuspidalSymbol("p", dim, duality), 1), mult)]
    psi = canonicalize(entries)
    group = GroupSpec(family, rank)
    if not validate_parameter(psi, group).ok:
        return None
    return psi, group


def test_criterion_1_single_entry_case_table():
    """Single-entry centralizer kinds and ranks across all families."""
    checked = 0
    for family in CLASSICAL_FAMILIES:
        for mult in range(1, 7):
            for dim in range(1, 7):
                # dual pairs: GL(mult), rank 0; never valid for the
                # symplectic family (even total dimension)
                case = _single_entry_parameter("pair", family, dim, mult)
                assert (case is None) == (family is Family.SYMPLECTIC)
                if case:
                    psi, group = case
                    desc = centralizer(psi, group)
                    assert desc.factors == (Factor(GL, mult, dim),)
                    assert arthur_r_group(psi, group).rank == 0
                    checked += 1

                # same type: O(mult) with rank 1 iff mult even; for the
                # symplectic family both mult and dim are forced odd and
                # the factor is pinned to SO(mult)
                case = _single_entry_parameter("same", family, dim, mult)
                if family is Family.SYMPLECTIC:
                    assert (case is not None) == (mult % 2 == 1 and dim % 2 == 1)
                elif family is Family.ODD_ORTHOGONAL:
                    assert (case is not None) == (dim % 2 == 0)
                else:
                    assert (case is not None) == (mult * dim % 2 == 0)
                if case:
                    psi, group = case
                    desc = centralizer(psi, group)
                    expected_kind = SO if family is Family.SYMPLECTIC else O
                    assert desc.factors == (Factor(expected_kind, mult, dim),)
                    expected_rank = 1 if mult % 2 == 0 else 0
                    assert arthur_r_group(psi, group).rank == expected_rank
                    checked += 1

                # opposite type: Sp(mult), rank 0, mult necessarily even
                case = _single_entry_parameter("opposite", family, dim, mult)
                if family is Family.SYMPLECTIC:
                    assert case is None
                else:
                    opp = opposite_of(GroupSpec(family, 1).dual_type)
                    dim_ok = opp is DualityType.ORTHOGONAL or dim % 2 == 0
                    assert (case is not None) == (mult % 2 == 0 and dim_ok)
                if case:
                    psi, group = case
                    desc = centralizer(psi, group)
                    assert desc.factors == (Factor(SP, mult, dim),)
                    assert arthur_r_group(psi, group).rank == 0
                    checked += 1
    assert checked > 100


def test_criterion_2_closed_form_equals_oracle_exhaustively():
    """Closed-form rank equals the brute-force Weyl quotient on every
    valid parameter with at most 4 canonical entries, multiplicities at
    most 4 and summand dimensions at most 5, in each family.  For
    symplectic and odd orthogonal targets the oracle also enumerates the
    unresolved centralizer, so the determinant condition is checked rather
    than resolved by hand; every symplectic descriptor carries it live."""
    for family in CLASSICAL_FAMILIES:
        count = 0
        for psi, group in exhaustive_valid_parameters(family):
            assert validate_parameter(psi, group).ok
            closed = arthur_r_group(psi, group)
            oracle = weyl_quotient(centralizer(psi, group))
            assert closed == oracle, (family, psi.describe(), closed, oracle)
            if family is not Family.EVEN_ORTHOGONAL:
                unresolved = unresolved_centralizer(psi, group)
                assert unresolved.has_live_constraint == (
                    family is Family.SYMPLECTIC
                ), (family, psi.describe())
                live = weyl_quotient(unresolved)
                assert closed == live, (family, psi.describe(), closed, live)
            count += 1
        assert count > 10_000, family


def test_criterion_3_main_theorem_fuzz():
    """Both R-group computations agree on 10,000 fuzzed instances per
    family; a disagreement dumps a replay file and fails."""
    failures = []
    for family in CLASSICAL_FAMILIES:
        bounds = FuzzBounds(
            max_deltas=5, max_dim=4, max_a=5, max_mult=3, family=family
        )
        for seed in range(10_000):
            pi = random_instance(seed, bounds)
            result = verify_theorem(pi)
            if not result.agree:
                REPLAY_DIR.mkdir(exist_ok=True)
                path = REPLAY_DIR / f"acceptance-{family.value}-seed{seed}.json"
                path.write_text(serialize_instance(Instance(pi)))
                failures.append((family.value, seed, path))
    assert not failures, f"replay files written: {failures}"


def test_criterion_4_multiplicity_invariance():
    """Mutating any delta multiplicity over {1, 2, 3} changes neither
    rank, across 1,000 fuzzed instances."""
    per_family = 334
    for family in CLASSICAL_FAMILIES:
        bounds = FuzzBounds(family=family)
        for seed in range(per_family):
            pi = random_instance(seed, bounds)
            base = verify_theorem(pi)
            for index in range(len(pi.deltas)):
                for mult in (1, 2, 3):
                    mutated = InducingData(
                        tuple(
                            DeltaFactor(
                                d.summand,
                                mult if i == index else d.multiplicity,
                            )
                            for i, d in enumerate(pi.deltas)
                        ),
                        pi.sigma,
                    )
                    result = verify_theorem(mutated)
                    assert result.ks_rank == base.ks_rank
                    assert result.arthur_rank == base.arthur_rank


def test_criterion_5_unitary_case_table():
    """The maximal-Levi case table for unitary groups: every coherent
    combination of (conjugate-self-dual?, sign condition?, membership?)
    over both signs, a up to 6 and ambient rank up to 12 reproduces the
    expected centralizer kind and ranks, with both sides agreeing."""
    seen = set()
    for lam in (1, -1):
        for a in range(1, 7):
            for d in (1, 2):
                for rank in range(0, 13):
                    if rank + 2 * d * a > 12:
                        continue
                    builds = [
                        Summand(ncsd("z", d), a),
                        Summand(csd("z", lam, dim=d), a),
                    ]
                    for delta in builds:
                        sigma = filler_sigma(rank)
                        _check_unitary_case(delta, sigma, seen)
                    member = Summand(csd("z", lam, dim=d), a)
                    if member.dim <= rank and lam * parity_sign(a + 1) == parity_sign(
                        rank + 1
                    ):
                        sigma = filler_sigma(rank, member)
                        _check_unitary_case(member, sigma, seen)
    assert seen == {"pair", "member", "irreducible", "reducible"}


def _check_unitary_case(delta, sigma, seen):
    pi = maximal_levi(delta, sigma)
    result = verify_theorem(pi)
    assert result.agree
    ambient = GroupSpec(Family.UNITARY, sigma.group.rank + 2 * delta.dim)
    assert pi.ambient_group() == ambient
    desc = centralizer(parameter_of_induced(pi), ambient)
    if not delta.self_dual:
        seen.add("pair")
        assert result.ks_rank == result.arthur_rank == 0
        assert sum(1 for f in desc.factors if f.kind is GL) >= 2
    elif delta in sigma.blocks:
        seen.add("member")
        assert result.ks_rank == result.arthur_rank == 0
        assert any(f.kind is O and f.size == 3 for f in desc.factors)
    elif sign_of(delta.rho.duality) * parity_sign(delta.a + 1) != parity_sign(
        sigma.group.rank + 1
    ):
        seen.add("irreducible")
        assert result.ks_rank == result.arthur_rank == 0
        assert any(f.kind is SP and f.size == 2 for f in desc.factors)
    else:
        seen.add("reducible")
        assert result.ks_rank == result.arthur_rank == 1
        assert any(f.kind is O and f.size == 2 for f in desc.factors)
    assert weyl_quotient(desc).rank == result.arthur_rank


def test_criterion_6_sign_rule_exhaustive():
    """The twist sign rule, exhaustively for both signs and a up to 10: the
    sign of rho (x) S_a, read off the summand's duality type."""
    for lam in (1, -1):
        for a in range(1, 11):
            twisted = sign_of(Summand(csd("x", lam), a).duality)
            assert twisted == parity_sign(a + 1) * lam
            if a % 2:
                assert twisted == lam
            else:
                assert twisted == -lam


def test_criterion_7_symplectic_structural_guarantee():
    """Every valid symplectic-family parameter has a same-type entry of
    odd dimension and odd multiplicity, on the exhaustive set."""
    count = 0
    for psi, group in exhaustive_valid_parameters(Family.SYMPLECTIC):
        buckets = classify(psi, group)
        assert any(
            entry.summand.dim % 2 == 1
            for entry in buckets.same_type_odd_mult
        ), psi.describe()
        count += 1
    assert count > 10_000


def test_criterion_8_cli_corpus_round_trip_and_exit_codes():
    """Round-trip stability and the exit-code contract over the committed
    corpus."""
    corpus = sorted(CORPUS.glob("*.json"))
    assert len(corpus) >= 12
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for path in corpus:
            inst = load_instance(path)
            text = serialize_instance(inst)
            assert parse_instance(text) == inst
            assert text == path.read_text()
            expected = 0 if path.name.endswith("-valid.json") else 1
            assert main(["validate", str(path)]) == expected, path.name
            if expected == 0:
                assert main(["rgroup", "--oracle", str(path)]) == 0, path.name
        assert main(["validate", str(CORPUS / "no-such-file.json")]) == 2


def _check_digest(compute, pinned: str) -> None:
    assert compute() == pinned


def _check_all() -> int:
    """Run every criterion and both stream digests without pytest; 1 if
    any fails."""
    checks = []
    for name, test in globals().items():
        if name.startswith("test_criterion_"):
            _, _, number, slug = name.split("_", 3)
            checks.append((f"criterion {number} ({slug.replace('_', ' ')})", test))
    checks += [
        ("STREAM_DIGEST", lambda: _check_digest(stream_digest, STREAM_DIGEST)),
        ("VERIFY_DIGEST", lambda: _check_digest(verify_digest, VERIFY_DIGEST)),
    ]
    failed = 0
    for name, check in checks:
        start = time.perf_counter()
        try:
            check()
            status = "PASS"
        except Exception:
            traceback.print_exc()
            failed += 1
            status = "FAIL"
        print(f"{name}: {status} ({time.perf_counter() - start:.1f} s)", flush=True)
    print(f"{len(checks) - failed}/{len(checks)} checks pass (Python {platform.python_version()})")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--check"]:
        raise SystemExit("usage: test_acceptance.py --check")
    raise SystemExit(_check_all())
