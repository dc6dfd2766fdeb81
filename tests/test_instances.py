"""Tests for the instance-file schema: parsing, canonical serialization
and round-tripping over the committed corpus."""

import json
from pathlib import Path

import pytest

from rgroups.errors import ParseError
from rgroups.instances import (
    ClassicalInstance,
    UnitaryInstance,
    load_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)

CORPUS = Path(__file__).resolve().parent.parent / "instances"
CORPUS_FILES = sorted(CORPUS.glob("*.json"))


def test_corpus_is_committed():
    assert len(CORPUS_FILES) >= 12
    names = {p.name for p in CORPUS_FILES}
    for family in ("sp", "so-odd", "o-even", "unitary"):
        assert any(n.startswith(family) and "-valid" in n for n in names)
        assert any(n.startswith(family) and "-invalid" in n for n in names)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_round_trips(path):
    inst = load_instance(path)
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert serialize_instance(parse_instance(text)) == text
    # the committed corpus is stored in canonical form
    assert text == path.read_text()


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.name)
def test_corpus_validation_matches_file_name(path):
    inst = load_instance(path)
    report = validate_instance(inst)
    assert report.ok == path.name.endswith("-valid.json")


def test_parse_classical_instance_fields():
    inst = load_instance(CORPUS / "sp-mixed-valid.json")
    assert isinstance(inst, ClassicalInstance)
    data = inst.data
    assert data.sigma.group.rank == 2
    assert len(data.sigma.blocks) == 2
    assert [d.multiplicity for d in data.deltas] == [3, 1, 2]


def test_parse_unitary_instance_fields():
    inst = load_instance(CORPUS / "unitary-reducible-valid.json")
    assert isinstance(inst, UnitaryInstance)
    assert inst.sigma.rank == 3
    assert len(inst.sigma.blocks) == 3
    ((delta, mult),) = inst.deltas
    assert delta.rho.label == "chi" and mult == 1


def minimal_doc():
    return {
        "format_version": "1",
        "family": "sp",
        "symbols": {"st": {"dim": 1, "duality": "orthogonal"}},
        "sigma": {"rank": 1, "blocks": [["st", 3]]},
        "deltas": [],
    }


def test_parse_minimal_document():
    inst = parse_instance(json.dumps(minimal_doc()))
    assert isinstance(inst, ClassicalInstance)
    assert validate_instance(inst).ok


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(format_version="99"),
        lambda d: d.update(family="nope"),
        lambda d: d["sigma"]["blocks"].append(["ghost", 1]),
        lambda d: d["deltas"].append({"rho": "ghost", "a": 1, "mult": 1}),
        lambda d: d["deltas"].append({"rho": "st", "a": 0, "mult": 1}),
        lambda d: d["deltas"].append({"rho": "st", "a": 1, "mult": 0}),
        lambda d: d["symbols"].update(bad={"dim": 0, "duality": "orthogonal"}),
        lambda d: d["symbols"].update(bad={"dim": 1, "duality": "weird"}),
        lambda d: d["symbols"].update(bad={"dim": 3, "duality": "symplectic"}),
        lambda d: d["symbols"]["st"].update(extra=1),
        lambda d: d.update(extra=1),
        lambda d: d["sigma"].pop("rank"),
    ],
)
def test_parse_errors(mutate):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))


def unitary_doc():
    return {
        "format_version": "1",
        "family": "unitary",
        "symbols": {"x": {"dim": 1, "duality": "conjugate-self-dual", "lambda": 1}},
        "sigma": {"rank": 1, "blocks": [["x", 1]]},
        "deltas": [{"rho": "x", "a": 1, "mult": 1}],
    }


# JSON booleans are ints in Python (True == 1), so each field must refuse
# them explicitly.
BOOLEAN_IN_INTEGER_FIELD = {
    "symbol dim": (minimal_doc, lambda d: d["symbols"]["st"].update(dim=True)),
    "sigma.rank": (minimal_doc, lambda d: d["sigma"].update(rank=True)),
    "sigma.rank false": (minimal_doc, lambda d: d["sigma"].update(rank=False)),
    "block a": (minimal_doc, lambda d: d["sigma"].update(blocks=[["st", True]])),
    "delta a": (
        minimal_doc,
        lambda d: d["deltas"].append({"rho": "st", "a": True, "mult": 1}),
    ),
    "delta mult": (
        minimal_doc,
        lambda d: d["deltas"].append({"rho": "st", "a": 1, "mult": True}),
    ),
    "unitary lambda": (unitary_doc, lambda d: d["symbols"]["x"].update({"lambda": True})),
}


@pytest.mark.parametrize(
    "make,mutate", BOOLEAN_IN_INTEGER_FIELD.values(), ids=BOOLEAN_IN_INTEGER_FIELD
)
def test_parse_rejects_booleans_in_integer_fields(make, mutate):
    doc = make()
    parse_instance(json.dumps(doc))  # the unmutated document parses
    mutate(doc)
    with pytest.raises(ParseError, match="integer|lambda"):
        parse_instance(json.dumps(doc))


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


def test_parse_error_on_missing_file():
    with pytest.raises(ParseError):
        load_instance(CORPUS / "does-not-exist.json")


def test_dual_partner_must_be_declared_and_mirror():
    doc = minimal_doc()
    doc["symbols"]["p"] = {"dim": 1, "duality": "not-self-dual", "dual": "pt"}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))
    doc["symbols"]["pt"] = {"dim": 2, "duality": "not-self-dual", "dual": "p"}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))  # dimensions do not mirror
    doc["symbols"]["pt"]["dim"] = 1
    parse_instance(json.dumps(doc))


def test_unitary_vocabulary_is_enforced_per_family():
    doc = minimal_doc()
    doc["symbols"]["u"] = {"dim": 1, "duality": "conjugate-self-dual", "lambda": 1}
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))
    doc = minimal_doc()
    doc["family"] = "unitary"
    with pytest.raises(ParseError):
        parse_instance(json.dumps(doc))  # classical symbol in a unitary file


def test_unitary_maximal_levi_rules_are_domain_violations():
    doc = {
        "format_version": "1",
        "family": "unitary",
        "symbols": {
            "f0": {"dim": 1, "duality": "conjugate-self-dual", "lambda": 1},
            "c": {"dim": 1, "duality": "conjugate-self-dual", "lambda": 1},
        },
        "sigma": {"rank": 1, "blocks": [["f0", 1]]},
        "deltas": [{"rho": "c", "a": 1, "mult": 2}],
    }
    inst = parse_instance(json.dumps(doc))
    report = validate_instance(inst)
    assert any(v.rule == "maximal-levi" for v in report.violations)
    doc["deltas"] = [
        {"rho": "c", "a": 1, "mult": 1},
        {"rho": "c", "a": 2, "mult": 1},
    ]
    report = validate_instance(parse_instance(json.dumps(doc)))
    assert any(v.rule == "maximal-levi" for v in report.violations)
