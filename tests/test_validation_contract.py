"""The validation contract: the package root exports exactly the public
surface, every public entry point rejects invalid input under its own
name, in every family, and the checking pass runs once per (parameter,
group) and once per inducing datum; an ``rgroup`` run builds its
parameter once."""

import json
from pathlib import Path

import pytest

import rgroups
import rgroups.errors
import rgroups.jordan
import rgroups.levi
import rgroups.params
from rgroups import (
    DeltaFactor,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    classify,
    knapp_stein_r_group,
    parameter_of_induced,
    random_instance,
    unresolved_centralizer,
    validate_jordan,
    validate_parameter,
    verify_theorem,
)
from rgroups.cli import main
from rgroups.errors import InvalidInducingData, InvalidParameter
from rgroups.levi import validate_inducing
from rgroups.validation import CLEAN

from helpers import CLASSICAL_FAMILIES, csd, orth, pair, sympl

SP3 = GroupSpec(Family.SYMPLECTIC, 1)  # dual group SO(3, C)


def invalid_parameter():
    """Dimension 1 + 2 against a dual group of dimension 3 is fine; the
    symplectic summand of odd multiplicity is not."""
    return canonicalize([(Summand(orth("a"), 1), 1), (Summand(sympl("s"), 1), 1)])


def invalid_sigma() -> JordanData:
    """Blocks of dimension 1 + 4 cannot fill the dual group SO(11, C)."""
    return JordanData(
        GroupSpec(Family.SYMPLECTIC, 5),
        (Summand(orth("a"), 1), Summand(sympl("s", 2), 2)),
    )


def valid_inducing() -> InducingData:
    sigma = JordanData(
        GroupSpec(Family.SYMPLECTIC, 2),
        (Summand(orth("a"), 1), Summand(sympl("s", 2), 2)),
    )
    return InducingData(
        (
            DeltaFactor(Summand(orth("z", 3), 1), 2),
            DeltaFactor(Summand(orth("a"), 1), 1),
            DeltaFactor(Summand(pair("p", 2), 1), 1),
        ),
        sigma,
    )


PUBLIC_NAMES = [
    "CentralizerDescriptor",
    "Classification",
    "CuspidalSymbol",
    "DeltaFactor",
    "DualityType",
    "ElementaryTwoGroup",
    "Factor",
    "FactorKind",
    "Family",
    "FuzzBounds",
    "GroupSpec",
    "InducingData",
    "JordanData",
    "Parameter",
    "ParameterEntry",
    "Summand",
    "VerificationResult",
    "WitnessRow",
    "arthur_r_group",
    "canonicalize",
    "centralizer",
    "classify",
    "knapp_stein_r_group",
    "parameter_of_induced",
    "random_instance",
    "tensor_type",
    "unresolved_centralizer",
    "validate_jordan",
    "validate_parameter",
    "verify_theorem",
    "weyl_of_factor",
    "weyl_quotient",
]

# Entry points and errors that no product path used; the tests read the
# product paths that replace them.
RETIRED_NAMES = [
    "is_reducible",
    "jordan_parity_ok",
    "parameter_of_sigma",
    "arthur_r_group_of_induced",
    "NotSelfDualInput",
    "InvalidJordanData",
    "descriptor_rank",
]


def test_the_package_root_exports_exactly_the_public_surface():
    assert sorted(rgroups.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert getattr(rgroups, name) is not None
    for name in RETIRED_NAMES:
        assert not hasattr(rgroups, name)
        assert not hasattr(rgroups.errors, name)
    # the Weyl group type stays in its module, off the root
    assert not hasattr(rgroups, "SignedPermGroup")
    assert hasattr(rgroups.weyl, "SignedPermGroup")


def test_validate_parameter_reports_the_invalid_parameter():
    report = validate_parameter(invalid_parameter(), SP3)
    assert not report.ok
    assert [v.rule for v in report.violations] == ["odd-multiplicity"]


@pytest.mark.parametrize(
    "entry", [classify, arthur_r_group, centralizer, unresolved_centralizer]
)
def test_parameter_entries_reject_under_their_own_name(entry):
    with pytest.raises(InvalidParameter, match=f"^{entry.__name__}: odd-multiplicity"):
        entry(invalid_parameter(), SP3)


@pytest.mark.parametrize("entry", [knapp_stein_r_group, verify_theorem])
def test_inducing_entries_reject_under_their_own_name(entry):
    pi = InducingData((DeltaFactor(Summand(orth("z", 3), 1), 1),), invalid_sigma())
    with pytest.raises(InvalidInducingData, match=f"^{entry.__name__}: dimension"):
        entry(pi)


def test_one_parameter_pass_serves_every_entry(monkeypatch):
    calls = []
    check = rgroups.params._check_entries

    def counted(psi, group):
        calls.append(group)
        return check(psi, group)

    monkeypatch.setattr(rgroups.params, "_check_entries", counted)
    psi = canonicalize([(Summand(orth("a"), 1), 3)])
    assert validate_parameter(psi, SP3).ok
    assert arthur_r_group(psi, SP3).rank == 0
    centralizer(psi, SP3)
    unresolved_centralizer(psi, SP3)
    classify(psi, SP3)
    assert calls == [SP3]
    # each target group gets its own pass
    validate_parameter(psi, GroupSpec(Family.ODD_ORTHOGONAL, 1))
    assert len(calls) == 2


def test_the_kept_pass_is_not_part_of_the_value():
    psi = canonicalize([(Summand(orth("a"), 1), 3)])
    fresh = canonicalize([(Summand(orth("a"), 1), 3)])
    before = repr(psi)
    classify(psi, SP3)
    assert psi == fresh and hash(psi) == hash(fresh)
    assert repr(psi) == before


def test_verify_theorem_validates_the_jordan_data_once(monkeypatch):
    calls = []

    def counted(sigma):
        calls.append(sigma)
        return validate_jordan(sigma)

    monkeypatch.setattr(rgroups.levi, "validate_jordan", counted)
    monkeypatch.setattr(rgroups.jordan, "validate_jordan", counted)
    result = verify_theorem(valid_inducing())
    assert result.agree and result.ks_rank == 1
    assert len(calls) == 1


def test_a_validated_datum_is_not_checked_again(monkeypatch):
    """``random_instance`` accepts a datum through ``validate_inducing``,
    whose report stays on the datum, so no entry point checks it again."""
    drawn = [
        random_instance(seed, FuzzBounds(family=family))
        for family in CLASSICAL_FAMILIES
        for seed in range(20)
    ]

    def again(*_):
        raise AssertionError("a validated datum was checked again")

    monkeypatch.setattr(rgroups.levi, "_delta_rules", again)
    monkeypatch.setattr(rgroups.levi, "validate_jordan", again)
    for pi in drawn:
        assert verify_theorem(pi).agree
        assert knapp_stein_r_group(pi) == arthur_r_group(
            parameter_of_induced(pi), pi.ambient_group()
        )


def test_the_kept_reports_are_not_part_of_the_value():
    pi, fresh = valid_inducing(), valid_inducing()
    before = repr(pi)
    assert validate_inducing(pi).ok and validate_inducing(pi) is validate_inducing(pi)
    assert validate_jordan(pi.sigma) is validate_jordan(pi.sigma)
    assert pi._report is not None and fresh._report is None and fresh.sigma._report is None
    assert pi == fresh and hash(pi) == hash(fresh) and repr(pi) == before
    assert pi.sigma == fresh.sigma and hash(pi.sigma) == hash(fresh.sigma)
    # a clean check builds no report of its own
    assert validate_inducing(pi) is validate_jordan(pi.sigma) is CLEAN
    bad = InducingData((), invalid_sigma())
    assert not validate_inducing(bad).ok
    assert validate_inducing(bad) is validate_inducing(bad)


# ---------------------------------------------------------------------------
# Unitary input runs through the same entry points
# ---------------------------------------------------------------------------

U3 = GroupSpec(Family.UNITARY, 3)  # dual type orthogonal


def invalid_unitary_sigma() -> JordanData:
    """One block of dimension 1 cannot fill U(3)."""
    return JordanData(U3, (Summand(csd("x", 1), 1),))


def valid_unitary_inducing() -> InducingData:
    blocks = tuple(Summand(csd(f"f{i}", 1), 1) for i in range(3))
    return InducingData((DeltaFactor(Summand(csd("chi", 1), 1), 1),), JordanData(U3, blocks))


@pytest.mark.parametrize("entry", [knapp_stein_r_group, verify_theorem])
def test_unitary_inducing_entries_reject_under_their_own_name(entry):
    pi = InducingData((DeltaFactor(Summand(csd("z", 1), 1), 1),), invalid_unitary_sigma())
    with pytest.raises(InvalidInducingData, match=f"^{entry.__name__}: dimension"):
        entry(pi)


def test_unitary_centralizer_rejects_under_its_own_name():
    psi = canonicalize([(Summand(csd("a", 1), 1), 1), (Summand(csd("s", -1), 1), 1)])
    with pytest.raises(InvalidParameter, match="^centralizer: dimension"):
        centralizer(psi, U3)
    # a conjugate-symplectic summand of odd multiplicity in U(3)
    psi = canonicalize([(Summand(csd("a", 1), 1), 2), (Summand(csd("s", -1), 1), 1)])
    with pytest.raises(InvalidParameter, match="^centralizer: odd-multiplicity"):
        centralizer(psi, U3)


def test_verify_theorem_validates_unitary_jordan_data_once(monkeypatch):
    calls = []

    def counted(sigma):
        calls.append(sigma)
        return validate_jordan(sigma)

    monkeypatch.setattr(rgroups.levi, "validate_jordan", counted)
    monkeypatch.setattr(rgroups.jordan, "validate_jordan", counted)
    result = verify_theorem(valid_unitary_inducing())
    assert result.agree and result.ks_rank == 1
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# One parameter per CLI run
# ---------------------------------------------------------------------------

CORPUS = Path(__file__).resolve().parent.parent / "instances"


@pytest.mark.parametrize("name", ["sp-mixed-valid.json", "unitary-reducible-valid.json"])
def test_rgroup_builds_and_checks_the_parameter_once(monkeypatch, capsys, name):
    canonicalized, passes = [], []
    canonicalize_ = rgroups.params.canonicalize
    check = rgroups.params._check_entries

    def counted_canonicalize(entries):
        canonicalized.append(entries)
        return canonicalize_(entries)

    def counted_check(psi, group):
        passes.append(group)
        return check(psi, group)

    for module in (rgroups.params, rgroups.levi):
        monkeypatch.setattr(module, "canonicalize", counted_canonicalize)
    monkeypatch.setattr(rgroups.params, "_check_entries", counted_check)
    assert main(["rgroup", "--oracle", "--json", str(CORPUS / name)]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["agree"] is True
    assert len(canonicalized) == 1
    assert len(passes) == 1
