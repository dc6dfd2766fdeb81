"""Tests for the command-line interface and its exit-code contract."""

import json
from pathlib import Path

import pytest

from rgroups.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "instances"
VALID = sorted(p.name for p in CORPUS.glob("*-valid.json"))
INVALID = sorted(p.name for p in CORPUS.glob("*-invalid.json"))


@pytest.mark.parametrize("name", VALID)
def test_validate_exit_zero_on_valid(name, capsys):
    assert main(["validate", str(CORPUS / name)]) == 0
    assert "valid" in capsys.readouterr().out


@pytest.mark.parametrize("name", INVALID)
def test_validate_exit_one_on_invalid(name, capsys):
    assert main(["validate", str(CORPUS / name)]) == 1
    assert "violation" in capsys.readouterr().out


def test_validate_reports_rule_tags(capsys):
    assert main(["validate", str(CORPUS / "sp-mixed-parity-invalid.json")]) == 1
    out = capsys.readouterr().out
    assert "[J-1]" in out and "mixed parity" in out


def test_validate_exit_two_on_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["validate", str(bad)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_validate_exit_two_on_unknown_label(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {"st": {"dim": 1, "duality": "orthogonal"}},
        "sigma": {"rank": 1, "blocks": [["ghost", 3]]},
        "deltas": [],
    }
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2


def test_validate_exit_two_on_boolean_integer(tmp_path, capsys):
    doc = {
        "format_version": "1",
        "family": "sp",
        "symbols": {"st": {"dim": True, "duality": "orthogonal"}},
        "sigma": {"rank": 1, "blocks": [["st", 3]]},
        "deltas": [],
    }
    path = tmp_path / "boolean.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "positive integer dim" in capsys.readouterr().err


def test_validate_missing_file_exit_two(capsys):
    assert main(["validate", str(CORPUS / "nope.json")]) == 2


def test_validate_json_mode(capsys):
    assert main(["validate", "--json", str(CORPUS / "sp-steinberg-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["valid"] is True
    assert doc["family"] == "sp"
    assert main(["validate", "--json", str(CORPUS / "so-odd-dim-invalid.json")]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["violations"][0]["rule"] == "dimension"


def test_rgroup_both_sides_mixed_instance(capsys):
    assert main(["rgroup", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out
    assert "arthur rank: 1" in out
    assert "agree: yes" in out
    assert "centralizer:" in out


def test_rgroup_single_sides(capsys):
    assert main(["rgroup", "--side", "ks", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out and "arthur rank" not in out
    assert main(["rgroup", "--side", "arthur", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "arthur rank: 1" in out and "knapp-stein" not in out


def test_rgroup_oracle_three_way(capsys):
    assert main(["rgroup", "--oracle", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle rank: 1" in out and "agree: yes" in out


def test_rgroup_pure_sigma(capsys):
    assert main(["rgroup", str(CORPUS / "sp-steinberg-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 0" in out and "arthur rank: 0" in out


def test_rgroup_unitary_cases(capsys):
    assert main(["rgroup", str(CORPUS / "unitary-reducible-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 1" in out and "arthur rank: 1" in out
    assert main(["rgroup", str(CORPUS / "unitary-member-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "knapp-stein rank: 0" in out and "O(3)" in out
    assert main(["rgroup", "--oracle", str(CORPUS / "unitary-pair-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "oracle rank: 0" in out


def test_rgroup_invalid_instance_exit_one(capsys):
    assert main(["rgroup", str(CORPUS / "o-even-m1-invalid.json")]) == 1
    assert "violation" in capsys.readouterr().err


def test_rgroup_json_mode(capsys):
    assert main(["rgroup", "--json", "--oracle", str(CORPUS / "o-even-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    results = doc["results"]
    assert results["ks_rank"] == results["arthur_rank"] == results["oracle_rank"]
    assert results["agree"] is True
    assert doc["symbols"]  # instance document is embedded


def test_explain_classical(capsys):
    assert main(["explain", str(CORPUS / "sp-mixed-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "ambient group: Sp(24, F)" in out
    assert "same-type-even" in out
    assert "rank d = 1" in out


def test_explain_unitary(capsys):
    assert main(["explain", str(CORPUS / "unitary-member-valid.json")]) == 0
    out = capsys.readouterr().out
    assert "ambient group: U(9)" in out
    assert "O(3)" in out


def test_explain_invalid_exit_one(capsys):
    assert main(["explain", str(CORPUS / "unitary-sign-invalid.json")]) == 1


def test_explain_json(capsys):
    assert main(["explain", "--json", str(CORPUS / "so-odd-valid.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "buckets" in doc["results"]


def test_fuzz_summary_is_deterministic(tmp_path, capsys):
    argv = [
        "fuzz",
        "--seed", "5",
        "--count", "40",
        "--family", "o-even",
        "--replay-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert "40/40 agree" in first
    assert not list(tmp_path.iterdir())  # no replay files on agreement


def test_fuzz_all_families(tmp_path, capsys):
    for family in ("sp", "so-odd", "o-even"):
        assert (
            main(
                [
                    "fuzz",
                    "--count", "25",
                    "--family", family,
                    "--replay-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "25/25 agree" in capsys.readouterr().out


def test_fuzz_infeasible_bounds_exit_two(tmp_path, capsys):
    argv = [
        "fuzz",
        "--count", "5",
        "--max-a", "0",
        "--replay-dir", str(tmp_path),
    ]
    assert main(argv) == 2
    assert "infeasible" in capsys.readouterr().err


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["rgroup", "--side", "bogus", "x.json"])
    assert info.value.code == 2
