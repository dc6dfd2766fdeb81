"""Tests for the instance-file schema: parsing, canonical serialization
and round-tripping over the committed corpus and over generated
documents of all four families."""

import enum
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from rgroups import (
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    JordanData,
    Summand,
    random_instance,
)
from rgroups.cli import _print_document, main
from rgroups.errors import ParseError
from rgroups.instances import (
    MAX_INTEGER,
    Instance,
    dump_json,
    load_instance,
    parse_instance,
    serialize_instance,
)
from rgroups.levi import validate_inducing

from helpers import CLASSICAL_FAMILIES, U, csd, filler_sigma, instance_document, maximal_levi, ncsd

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
    report = validate_inducing(inst.data)
    assert report.ok == path.name.endswith("-valid.json")


def test_parse_classical_instance_fields():
    inst = load_instance(CORPUS / "sp-mixed-valid.json")
    assert isinstance(inst, Instance) and inst.data.sigma.group.family is Family.SYMPLECTIC
    data = inst.data
    assert data.sigma.group.rank == 2
    assert len(data.sigma.blocks) == 2
    assert [d.multiplicity for d in data.deltas] == [3, 1, 2]


def test_parse_unitary_instance_fields():
    inst = load_instance(CORPUS / "unitary-reducible-valid.json")
    assert isinstance(inst, Instance) and inst.data.sigma.group.family is Family.UNITARY
    assert inst.data.sigma.group.rank == 3
    assert len(inst.data.sigma.blocks) == 3
    (delta,) = inst.data.deltas
    assert delta.summand.rho.label == "chi" and delta.multiplicity == 1
    assert delta.summand.rho.conjugate


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
    assert isinstance(inst, Instance)
    assert validate_inducing(inst.data).ok


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


def _mutated(mutate, make=minimal_doc) -> str:
    doc = make()
    mutate(doc)
    return json.dumps(doc)


def _with_symbol(spec):
    return _mutated(lambda d: d["symbols"].update(bad=spec))


def _with_delta(entry):
    # a well-formed delta first, so that the message carries index 1
    return _mutated(lambda d: d["deltas"].extend([{"rho": "st", "a": 1}, entry]))


def _with_block(entry):
    return _mutated(lambda d: d["sigma"]["blocks"].append(entry))


_NSD_PAIR = {
    "p": {"dim": 1, "duality": "not-self-dual", "dual": "pt"},
    "pt": {"dim": 2, "duality": "not-self-dual", "dual": "p"},
}

# One malformed document per raise site of parse_instance, _parse_symbol
# and _check_dual_declarations, with the exact message it must give.
PARSE_ERROR_MESSAGES = {
    "bad json": (
        "{not json",
        "not valid JSON: Expecting property name enclosed in double quotes:"
        " line 1 column 2 (char 1)",
    ),
    "deep json": (
        "[" * 100_000,
        "not valid JSON: maximum recursion depth exceeded while decoding a JSON"
        " array from a unicode string",
    ),
    "top level": ("[]", "top level must be an object"),
    "instance keys": (
        _mutated(lambda d: d.update(zz=1, extra=2)),
        "unknown keys ['extra', 'zz'] in instance",
    ),
    "format_version": (
        _mutated(lambda d: d.update(format_version="99")),
        "unsupported format_version '99'",
    ),
    "format_version missing": (
        _mutated(lambda d: d.pop("format_version")),
        "unsupported format_version None",
    ),
    "family": (_mutated(lambda d: d.update(family="nope")), "unknown family 'nope'"),
    "symbols": (_mutated(lambda d: d.update(symbols=[])), "symbols must be an object"),
    "symbol object": (_with_symbol([]), "symbol 'bad' must be an object"),
    # a lone surrogate is valid JSON but no UTF-8 output can write it
    "symbol label": (
        _mutated(lambda d: d["symbols"].update({"b\udc80": {"dim": 1, "duality": "orthogonal"}})),
        "symbol 'b\\udc80' holds a lone surrogate, which no output can write",
    ),
    "symbol dim": (
        _with_symbol({"dim": 0, "duality": "orthogonal"}),
        "symbol 'bad' needs a positive integer dim",
    ),
    "classical keys": (
        _with_symbol({"dim": 1, "duality": "orthogonal", "lambda": 1}),
        "unknown keys ['lambda'] in symbol 'bad'",
    ),
    "non-self-dual without dual": (
        _with_symbol({"dim": 1, "duality": "not-self-dual"}),
        "non-self-dual symbol 'bad' needs a dual label",
    ),
    "self-dual with dual": (
        _with_symbol({"dim": 1, "duality": "orthogonal", "dual": "st"}),
        "self-dual symbol 'bad' must not declare a dual",
    ),
    "conjugate-self-dual keys": (
        _with_symbol({"dim": 1, "duality": "conjugate-self-dual", "lambda": 1, "dual": "x"}),
        "unknown keys ['dual'] in symbol 'bad'",
    ),
    "lambda": (
        _with_symbol({"dim": 1, "duality": "conjugate-self-dual", "lambda": 2}),
        "symbol 'bad' needs lambda +1 or -1",
    ),
    "lambda_matches": (
        _with_symbol(
            {"dim": 2, "duality": "conjugate-self-dual", "lambda": 1, "lambda_matches": 0}
        ),
        "symbol 'bad': lambda_matches must be a boolean",
    ),
    "not-conjugate-self-dual keys": (
        _with_symbol({"dim": 1, "duality": "not-conjugate-self-dual", "lambda": 1}),
        "unknown keys ['lambda'] in symbol 'bad'",
    ),
    "not-conjugate-self-dual without dual": (
        _with_symbol({"dim": 1, "duality": "not-conjugate-self-dual"}),
        "symbol 'bad' needs a dual label",
    ),
    "symbol value error": (
        _with_symbol({"dim": 3, "duality": "symplectic"}),
        "symbol 'bad': symplectic symbol 'bad' must have even dimension",
    ),
    "unknown duality": (
        _with_symbol({"dim": 1, "duality": "weird"}),
        "symbol 'bad' has unknown duality 'weird'",
    ),
    "list duality": (
        _with_symbol({"dim": 1, "duality": ["orthogonal"]}),
        "symbol 'bad' has unknown duality ['orthogonal']",
    ),
    "wrong vocabulary": (
        _with_symbol({"dim": 1, "duality": "conjugate-self-dual", "lambda": 1}),
        "symbol 'bad' has the wrong duality vocabulary for family 'sp'",
    ),
    "wrong vocabulary, unitary": (
        _mutated(lambda d: d["symbols"].update(x={"dim": 1, "duality": "orthogonal"}), unitary_doc),
        "symbol 'x' has the wrong duality vocabulary for family 'unitary'",
    ),
    "dual not declared": (
        _mutated(lambda d: d["symbols"].update(p=_NSD_PAIR["p"])),
        "dual partner 'pt' of 'p' is not declared",
    ),
    "duals do not mirror": (
        _mutated(lambda d: d["symbols"].update(_NSD_PAIR)),
        "symbols 'p' and 'pt' do not mirror each other",
    ),
    "sigma": (_mutated(lambda d: d.update(sigma=[])), "sigma must be an object"),
    "sigma keys": (
        _mutated(lambda d: d["sigma"].update(extra=1)),
        "unknown keys ['extra'] in sigma",
    ),
    "sigma.rank": (
        _mutated(lambda d: d["sigma"].update(rank=-1)),
        "sigma.rank must be a non-negative integer",
    ),
    "sigma.blocks": (
        _mutated(lambda d: d["sigma"].update(blocks={})),
        "sigma.blocks must be a list",
    ),
    "deltas": (_mutated(lambda d: d.update(deltas={})), "deltas must be a list"),
    "delta object": (_with_delta([]), "delta #1 must be an object"),
    "delta keys": (
        _with_delta({"rho": "st", "a": 1, "b": 2}),
        "unknown keys ['b'] in delta #1",
    ),
    "delta label": (
        _with_delta({"rho": "ghost", "a": 1}),
        "delta #1: unknown label 'ghost'",
    ),
    "delta a": (
        _with_delta({"rho": "st", "a": 0}),
        "delta #1: a must be a positive integer",
    ),
    "delta mult": (
        _with_delta({"rho": "st", "a": 1, "mult": 0}),
        "delta #1: mult must be a positive integer",
    ),
    "block pair": (_with_block(["st"]), "block #1 must be a [label, a] pair"),
    "block label": (_with_block([5, 1]), "block #1: unknown label 5"),
    "block a": (_with_block(["st", "1"]), "block #1: a must be a positive integer"),
    "block repeated": (_with_block(["st", 3]), "block #1 repeats block #0"),
    "blocks repeated": (
        _mutated(lambda d: d["sigma"].update(blocks=[["st", 3], ["st", 1], ["st", 1], ["st", 3]])),
        "block #2 repeats block #1",
    ),
    "unitary lambda": (
        _mutated(lambda d: d["symbols"]["x"].update({"lambda": True}), unitary_doc),
        "symbol 'x' needs lambda +1 or -1",
    ),
    "symbol dim bound": (
        _with_symbol({"dim": MAX_INTEGER + 1, "duality": "orthogonal"}),
        "symbol 'bad': dim is above the bound 1000000",
    ),
    "sigma.rank bound": (
        _mutated(lambda d: d["sigma"].update(rank=MAX_INTEGER + 1)),
        "sigma.rank is above the bound 1000000",
    ),
    "block a bound": (_with_block(["st", 10**3000]), "block #1: a is above the bound 1000000"),
    "delta a bound": (
        _with_delta({"rho": "st", "a": MAX_INTEGER + 1}),
        "delta #1: a is above the bound 1000000",
    ),
    "delta mult bound": (
        _with_delta({"rho": "st", "a": 1, "mult": 2**63}),
        "delta #1: mult is above the bound 1000000",
    ),
    # longer than the interpreter converts from text (4,300 digits by default)
    "integer literal bound": (
        _mutated(lambda d: d["deltas"].append({"rho": "st", "a": 1, "mult": 1}))
        .replace('"mult": 1', '"mult": 1' + "0" * 5000),
        "an integer is above the bound 1000000",
    ),
}


@pytest.mark.parametrize(
    "text,message", PARSE_ERROR_MESSAGES.values(), ids=PARSE_ERROR_MESSAGES
)
def test_parse_error_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_instance(text)
    assert str(info.value) == message


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


def test_parse_accepts_every_integer_field_at_the_bound():
    doc = minimal_doc()
    doc["symbols"]["st"]["dim"] = MAX_INTEGER
    doc["sigma"] = {"rank": MAX_INTEGER, "blocks": [["st", MAX_INTEGER]]}
    doc["deltas"] = [{"rho": "st", "a": MAX_INTEGER, "mult": MAX_INTEGER}]
    inst = parse_instance(json.dumps(doc))
    assert inst.data.sigma.group.rank == MAX_INTEGER
    (delta,) = inst.data.deltas
    assert delta.summand.rho.dim == delta.summand.a == delta.multiplicity == MAX_INTEGER


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        parse_instance("{not json")


# json.loads alone keeps the last value of a repeated key, so each of these
# documents would parse with one declaration silently dropped.
REPEATED_KEYS = {
    "top level": (minimal_doc, '"family": "sp"', '"family": "so-odd", "family": "sp"', "family"),
    "symbol label": (
        minimal_doc, '"st": {"dim"', '"st": {"dim": 2, "duality": "symplectic"}, "st": {"dim"',
        "st",
    ),
    "symbol field": (minimal_doc, '"dim": 1', '"dim": 3, "dim": 1', "dim"),
    "sigma field": (minimal_doc, '"rank": 1', '"rank": 1, "rank": 1', "rank"),
    "delta field": (unitary_doc, '"mult": 1', '"mult": 2, "mult": 1', "mult"),
}


@pytest.mark.parametrize(
    "make,old,new,key", REPEATED_KEYS.values(), ids=REPEATED_KEYS
)
def test_parse_refuses_a_repeated_key(make, old, new, key):
    text = json.dumps(make())
    parse_instance(text)  # the unmutated document parses
    assert old in text
    with pytest.raises(ParseError) as info:
        parse_instance(text.replace(old, new, 1))
    assert str(info.value) == f"repeated key {key!r}"


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


def test_unitary_delta_rules_are_the_classical_ones():
    """A unitary Levi subgroup need not be maximal: several delta factors
    and multiplicities validate, and only equivalent factors are refused,
    with the classical message."""
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
    assert validate_inducing(parse_instance(json.dumps(doc)).data).ok
    doc["deltas"] = [
        {"rho": "c", "a": 1, "mult": 1},
        {"rho": "c", "a": 2, "mult": 1},
    ]
    assert validate_inducing(parse_instance(json.dumps(doc)).data).ok
    doc["deltas"] = [{"rho": "c", "a": 1, "mult": 1}] * 2
    report = validate_inducing(parse_instance(json.dumps(doc)).data)
    assert [(v.rule, v.message) for v in report.violations] == [
        (
            "repeated-delta",
            "delta factor c(x)S_1 appears twice;"
            " equivalent factors must be merged into one multiplicity",
        )
    ]


# ---------------------------------------------------------------------------
# Round-trip property over generated documents, in all four families
# ---------------------------------------------------------------------------

FAMILIES = ("sp", "so-odd", "o-even", "unitary")


def _pair_vocabulary(family: str) -> str:
    return "not-conjugate-self-dual" if family == "unitary" else "not-self-dual"


@st.composite
def canonical_documents(draw, family: str) -> dict:
    """A canonical instance document of ``family``: symbols sorted and all
    referenced, blocks distinct and sorted, deltas sorted by (label, a).
    Domain validity is not required; parsing only needs a well-formed file."""
    unitary = family == "unitary"
    symbols: dict[str, dict] = {}
    uses: list[str] = []
    for i in range(draw(st.integers(0, 4))):
        label, dim = f"r{i}", draw(st.integers(1, 4))
        kind = draw(st.sampled_from(("orthogonal", "symplectic", "pair")))
        if kind == "pair":
            duality = _pair_vocabulary(family)
            symbols[label] = {"dim": dim, "duality": duality, "dual": label + "t"}
            symbols[label + "t"] = {"dim": dim, "duality": duality, "dual": label}
            uses.append(draw(st.sampled_from((label, label + "t"))))
            continue
        if unitary:
            spec = {"dim": dim, "duality": "conjugate-self-dual"}
            spec["lambda"] = 1 if kind == "orthogonal" else -1
            if dim % 2 == 0 and draw(st.booleans()):
                spec["lambda_matches"] = False
        else:
            if kind == "symplectic":
                dim += dim % 2
            spec = {"dim": dim, "duality": kind}
        symbols[label] = spec
        uses.append(label)
    blocks, deltas = set(), []
    for label in uses + draw(st.lists(st.sampled_from(uses), max_size=3) if uses else st.just([])):
        a = draw(st.integers(1, 5))
        if draw(st.booleans()):
            blocks.add((label, a))
        else:
            deltas.append({"rho": label, "a": a, "mult": draw(st.integers(1, 3))})
    return {
        "format_version": "1",
        "family": family,
        "symbols": {k: symbols[k] for k in sorted(symbols)},
        "sigma": {"rank": draw(st.integers(0, 12)), "blocks": [list(b) for b in sorted(blocks)]},
        "deltas": sorted(deltas, key=lambda d: (d["rho"], d["a"])),
    }


def _text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generated_documents_round_trip(family, data):
    text = _text(data.draw(canonical_documents(family)))
    inst = parse_instance(text)
    assert inst.data.sigma.group.family.value == family
    assert serialize_instance(inst) == text


def _booleans_in_integer_fields(doc: dict) -> list:
    """Setters that put a JSON boolean where the schema wants an integer."""
    setters = [lambda d: d["sigma"].update(rank=True)]
    for label, spec in doc["symbols"].items():
        setters.append(lambda d, label=label: d["symbols"][label].update(dim=True))
        if "lambda" in spec:
            setters.append(lambda d, label=label: d["symbols"][label].update({"lambda": True}))
    for i in range(len(doc["sigma"]["blocks"])):
        setters.append(lambda d, i=i: d["sigma"]["blocks"][i].__setitem__(1, True))
    for i in range(len(doc["deltas"])):
        setters.append(lambda d, i=i: d["deltas"][i].update(a=True))
        setters.append(lambda d, i=i: d["deltas"][i].update(mult=False))
    return setters


def _mutations(family: str, doc: dict) -> dict:
    unitary = family == "unitary"
    other_vocabulary = (
        {"dim": 1, "duality": "orthogonal"}
        if unitary
        else {"dim": 1, "duality": "conjugate-self-dual", "lambda": 1}
    )
    odd_unmatched = {"dim": 3, "duality": "orthogonal", "lambda_matches": False}
    if unitary:
        odd_unmatched = {"dim": 3, "duality": "conjugate-self-dual", "lambda": -1, "lambda_matches": False}
    orphan = {"dim": 1, "duality": _pair_vocabulary(family), "dual": "qt"}
    return {
        "wrong vocabulary": [lambda d: d["symbols"].update(v=other_vocabulary)],
        "lambda_matches on an odd dimension": [lambda d: d["symbols"].update(w=odd_unmatched)],
        "boolean for an integer": _booleans_in_integer_fields(doc),
        "missing dual partner": [lambda d: d["symbols"].update(q=orphan)],
    }


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_documents_are_parse_errors(family, data, tmp_path_factory):
    doc = data.draw(canonical_documents(family))
    kind, setters = data.draw(st.sampled_from(sorted(_mutations(family, doc).items())))
    mutate = data.draw(st.sampled_from(setters))
    mutate(doc)
    text = _text(doc)
    with pytest.raises(ParseError):
        parse_instance(text)
    path = tmp_path_factory.mktemp("mutated") / "doc.json"
    path.write_text(text)
    for command in (["validate"], ["rgroup", "--oracle"], ["explain"]):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*command, str(path)])
        assert code == 2, (kind, command)
        assert err.getvalue().startswith("parse error: "), (kind, err.getvalue())
        assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# The JSON writer: byte-identical to json.dumps(..., indent=2)
# ---------------------------------------------------------------------------

class _Label(str):
    """A str subclass: written as its str value."""


class _Kind(enum.IntEnum):
    """Its members are an int subclass: written as their int value."""

    ONE = 1
    TWO = 2


_TRICKY_TEXT = ["", '"', "\\", 'a"b\\c', "\x00\x1f\n\r\t\x7f", "é ß ∞", "\u2028", "😀"]

_json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 0, 1, 2**63, -(2**100), 10**300]),
    st.text(),
    st.sampled_from(_TRICKY_TEXT),
)
_json_keys = st.text() | st.sampled_from(_TRICKY_TEXT)
_json_documents = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_keys, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(_json_documents)
@example([True, 1, False, 0, None])
@example({"t": True, "one": 1, "empty": [], "none": {}, "tuple": ()})
@example({"": [[], {}, [[{}]]], "é\"\\\x01": -(10**40)})
@example({"flags": [True, 1, None], "label": _Label("a\"b"), "kind": _Kind.TWO})
@example([_Label("x"), [_Kind.ONE], {_Label("key"): _Kind.TWO}])
def test_dump_json_matches_json_dumps_indent_2(value):
    assert dump_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, [0.0], {"a": {"b": float("nan")}}, {1: "x"}, {"a": [{2: None}]}, {True: 1}, {None: 1}, {1, 2}],
    ids=["float", "float in list", "nan in dict", "int key", "nested int key", "bool key", "None key", "set"],
)
def test_dump_json_refuses_other_types(value):
    with pytest.raises(TypeError):
        dump_json(value)


# ---------------------------------------------------------------------------
# Writer parity: serialize_instance and every --json document are
# json.dumps of the reference dictionary (helpers.instance_document)
# ---------------------------------------------------------------------------

# A results block of every scalar kind, an IntEnum member included.
_RESULTS = {"valid": True, "rank": _Kind.TWO, "none": None, "rows": [[1, "é"], {}], "empty": []}


def _reference(inst: Instance, results: dict | None = None) -> str:
    doc = instance_document(inst)
    if results is None:
        return json.dumps(doc, indent=2) + "\n"
    return json.dumps({**doc, "results": results}, indent=2) + "\n"


def _printed(inst: Instance, results: dict) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        _print_document(inst, results)
    return out.getvalue()


def _assert_parity(inst: Instance) -> None:
    assert serialize_instance(inst) == _reference(inst)
    assert _printed(inst, _RESULTS) == _reference(inst, _RESULTS)


def _assert_command_parity(inst: Instance, path: Path) -> int:
    """Write ``inst`` to ``path`` and compare each command's ``--json``
    document with the reference; the number of documents printed."""
    path.write_text(serialize_instance(inst))
    printed = 0
    for command in (["validate"], ["rgroup", "--oracle"], ["explain"]):
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            main([*command, str(path), "--json"])
        if out.getvalue():
            printed += 1
            results = json.loads(out.getvalue())["results"]
            assert out.getvalue() == _reference(load_instance(path), results), command
    return printed


@pytest.mark.parametrize("family", CLASSICAL_FAMILIES, ids=lambda f: f.value)
def test_writers_match_the_reference_on_fuzz_instances(family, tmp_path):
    bounds = FuzzBounds(family=family)
    for seed in range(300):
        _assert_parity(Instance(random_instance(seed, bounds)))
    printed = sum(
        _assert_command_parity(Instance(random_instance(seed, bounds)), tmp_path / "doc.json")
        for seed in range(15)
    )
    assert printed >= 30  # fuzz instances are mostly valid: most commands print


def test_writers_match_the_reference_on_unitary_data(tmp_path):
    printed = 0
    for rank in range(4):
        for delta in (Summand(csd("c", 1), 2), Summand(csd("d", -1, 2), 1), Summand(ncsd("p"), 3)):
            inst = Instance(maximal_levi(delta, filler_sigma(rank)))
            _assert_parity(inst)
            printed += _assert_command_parity(inst, tmp_path / "doc.json")
    assert printed >= 24


_AWKWARD_LABELS = [*_TRICKY_TEXT, "}", ",", '"}, {"', "ĉ\u00e9", "a,b}]"]


@pytest.mark.parametrize("label", _AWKWARD_LABELS, ids=ascii)
def test_awkward_labels_are_written_as_json_dumps_writes_them(label, tmp_path):
    block = Summand(CuspidalSymbol(label, 3, DualityType.ORTHOGONAL), 1)
    pair = CuspidalSymbol(label + "p", 1, DualityType.NOT_SELF_DUAL, label + "q")
    sp1, u1 = GroupSpec(Family.SYMPLECTIC, 1), U(1)
    inst = Instance(InducingData((DeltaFactor(Summand(pair, 2), 1),), JordanData(sp1, (block,))))
    delta, block = DeltaFactor(Summand(ncsd(label), 1), 1), Summand(csd(label + "c", 1), 1)
    unitary = Instance(InducingData((delta,), JordanData(u1, (block,))))
    for each in (inst, unitary):
        _assert_parity(each)
        assert _assert_command_parity(each, tmp_path / "doc.json") == 3


def test_bool_and_intenum_integers_are_written_by_value():
    # built in Python: no file can hold them (a JSON boolean is a parse error)
    rho = CuspidalSymbol("a", True, DualityType.ORTHOGONAL)
    rho2 = CuspidalSymbol("b", _Kind.TWO, DualityType.SYMPLECTIC)
    blocks = (Summand(rho, True), Summand(rho2, _Kind.ONE))
    deltas = (DeltaFactor(Summand(rho2, _Kind.TWO), True), DeltaFactor(Summand(rho, 3), _Kind.TWO))
    for rank in (True, False, _Kind.ONE):
        sigma = JordanData(GroupSpec(Family.SYMPLECTIC, rank), blocks)
        inst = Instance(InducingData(deltas, sigma))
        _assert_parity(inst)
        text = serialize_instance(inst)
        assert "true" in text and "True" not in text and "_Kind" not in text


def test_one_label_for_two_symbols_keeps_the_last_direct_use():
    first = CuspidalSymbol("a", 1, DualityType.ORTHOGONAL)
    second = CuspidalSymbol("a", 2, DualityType.SYMPLECTIC)
    pair = CuspidalSymbol("p", 1, DualityType.NOT_SELF_DUAL, "a")
    other_pair = CuspidalSymbol("q", 3, DualityType.NOT_SELF_DUAL, "a")
    group = GroupSpec(Family.SYMPLECTIC, 2)
    cases = [
        ((first,), (second,), {"dim": 2, "duality": "symplectic"}),
        ((second,), (first,), {"dim": 1, "duality": "orthogonal"}),
        # a dual partner fills only a gap, before or after the direct use
        ((first,), (pair,), {"dim": 1, "duality": "orthogonal"}),
        ((pair,), (first,), {"dim": 1, "duality": "orthogonal"}),
        # two partners under one label: the first one noted stays
        ((pair,), (other_pair,), {"dim": 1, "duality": "not-self-dual", "dual": "p"}),
    ]
    for block_symbols, delta_symbols, expected in cases:
        sigma = JordanData(group, tuple(Summand(rho, 1) for rho in block_symbols))
        deltas = tuple(DeltaFactor(Summand(rho, 1), 1) for rho in delta_symbols)
        inst = Instance(InducingData(deltas, sigma))
        _assert_parity(inst)
        assert json.loads(serialize_instance(inst))["symbols"]["a"] == expected


def test_empty_symbols_blocks_and_deltas():
    for family in Family:
        inst = Instance(InducingData((), JordanData(GroupSpec(family, 0), ())))
        _assert_parity(inst)
        assert '"symbols": {},' in serialize_instance(inst)
    summand = Summand(CuspidalSymbol("a", 1, DualityType.ORTHOGONAL), 1)
    sp0 = GroupSpec(Family.SYMPLECTIC, 0)
    _assert_parity(Instance(InducingData((), JordanData(sp0, (summand,)))))
    _assert_parity(Instance(InducingData((DeltaFactor(summand, 1),), JordanData(sp0, ()))))


_integer_fields = st.sampled_from([1, 2, 3, 10**6, True, _Kind.ONE, _Kind.TWO])
_labels = st.sampled_from(_AWKWARD_LABELS) | st.text(max_size=3)


@st.composite
def _symbols(draw, conjugate: bool) -> CuspidalSymbol:
    label, dim = draw(_labels), draw(_integer_fields)
    kind = draw(st.sampled_from(DualityType))
    if kind is DualityType.NOT_SELF_DUAL:
        dual = draw(_labels.filter(lambda other: other != label))
        return CuspidalSymbol(label, dim, kind, dual, conjugate)
    if kind is DualityType.SYMPLECTIC and not conjugate:
        dim = 2
    matches = not (conjugate and dim % 2 == 0 and draw(st.booleans()))
    return CuspidalSymbol(label, dim, kind, conjugate=conjugate, lambda_matches=matches)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hand_built_instances_are_written_as_json_dumps_writes_them(data):
    family = data.draw(st.sampled_from(Family))
    symbols = st.lists(_symbols(family is Family.UNITARY), max_size=4)
    rank = data.draw(st.sampled_from([0, 1, 5, False, True, _Kind.TWO]))
    blocks = tuple(Summand(rho, data.draw(_integer_fields)) for rho in data.draw(symbols))
    deltas = tuple(
        DeltaFactor(Summand(rho, data.draw(_integer_fields)), data.draw(_integer_fields))
        for rho in data.draw(symbols)
    )
    _assert_parity(Instance(InducingData(deltas, JordanData(GroupSpec(family, rank), blocks))))
