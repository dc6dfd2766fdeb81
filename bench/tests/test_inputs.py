"""Tests of the benchmark's own input generators.

    python3 -m pytest bench/tests -q
"""

import json
from pathlib import Path

import pytest

import inputs
import workloads
from rgroups import verify_theorem
from rgroups.instances import parse_instance, serialize_instance

CORPUS = Path(__file__).resolve().parents[2] / "instances"


def test_exhaustive_enumeration_reproduces_criterion_2_counts():
    counts = {f: len(inputs.exhaustive_templates(f)) for f in inputs.FAMILIES}
    assert counts == {"sp": 66_144, "so-odd": 111_929, "o-even": 128_435}


def test_every_sp_descriptor_carries_a_live_constraint():
    combos = inputs.exhaustive_templates("sp")
    assert len(combos) == 66_144
    for combo in combos:
        assert workloads._unresolved_descriptor(combo).has_live_constraint, combo


@pytest.mark.parametrize(
    "make",
    [
        inputs.exhaustive_stream,
        inputs.constrained_stream,
        inputs.fuzz_stream,
        lambda seed: inputs.cli_documents(seed, CORPUS),
    ],
    ids=["exhaustive-oracle", "oracle-constrained", "fuzz-verify", "cli-batch"],
)
def test_same_seed_same_digest(make):
    first = inputs.digest(make(7))
    assert inputs.digest(make(7)) == first
    assert inputs.digest(make(8)) != first


def test_streams_are_permutations_of_the_population():
    stream = inputs.constrained_stream(3)
    assert sorted(stream) == sorted(inputs.exhaustive_templates("sp"))


def test_cli_documents_are_canonical_and_ranks_match_the_program():
    docs = inputs.cli_documents(5, CORPUS)
    categories = {doc["category"] for doc in docs}
    assert categories == {"valid", "invalid", "malformed", "bool"}
    for doc in docs:
        if doc["category"] not in ("valid", "invalid"):
            continue
        inst = parse_instance(doc["text"])
        assert serialize_instance(inst) == doc["text"]
        if doc["category"] == "valid" and doc["rank"] is not None and not doc["unitary"]:
            assert verify_theorem(inst.data).ks_rank == doc["rank"]


def test_bool_documents_differ_from_a_valid_document_only_in_booleans():
    docs = inputs.cli_documents(5, CORPUS)
    for doc in docs:
        if doc["category"] == "bool":
            text = doc["text"]
            assert "true" in text
            restored = json.loads(text.replace("true", "1"))
            assert parse_instance(json.dumps(restored)) is not None
