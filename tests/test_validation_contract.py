"""The validation contract: every public entry point rejects invalid input
under its own name, and the checking pass runs once per (parameter,
group) and once per inducing datum."""

import pytest

import rgroups.jordan
import rgroups.levi
import rgroups.params
from rgroups import (
    DeltaFactor,
    Family,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    arthur_r_group,
    arthur_r_group_of_induced,
    canonicalize,
    centralizer,
    classify,
    is_reducible,
    knapp_stein_r_group,
    parameter_of_sigma,
    unresolved_centralizer,
    validate_jordan,
    validate_parameter,
    verify_theorem,
)
from rgroups.errors import InvalidInducingData, InvalidJordanData, InvalidParameter

from helpers import orth, pair, sympl

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


@pytest.mark.parametrize(
    "entry", [knapp_stein_r_group, arthur_r_group_of_induced, verify_theorem]
)
def test_inducing_entries_reject_under_their_own_name(entry):
    pi = InducingData((DeltaFactor(Summand(orth("z", 3), 1), 1),), invalid_sigma())
    with pytest.raises(InvalidInducingData, match=f"^{entry.__name__}: dimension"):
        entry(pi)


def test_jordan_entries_reject_under_their_own_name():
    sigma = invalid_sigma()
    with pytest.raises(InvalidJordanData, match="^is_reducible: dimension"):
        is_reducible(orth("z", 3), 1, sigma)
    with pytest.raises(InvalidJordanData, match="^parameter_of_sigma: dimension"):
        parameter_of_sigma(sigma)


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
