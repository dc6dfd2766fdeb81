"""The command-line contract over documents that push the schema to its
limits: 0, negatives and 2**63 in integer fields, literals at the
1,000,000 bound and near the interpreter's 4,300-digit limit, long and
non-ASCII labels, hundreds of deltas, repeated keys and deep nesting.

``validate``, ``rgroup --oracle`` and ``explain``, with and without
``--json``, must exit 0, 1 or 2, raise nothing out of ``main`` and say
why they did not exit 0; and every document that ``validate`` accepts
must be answered by ``explain`` and ``rgroup --oracle --json``.  Standard
output is strict UTF-8, as on a UTF-8 terminal, so text that cannot be
written there fails too."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from rgroups import Family, FuzzBounds, random_instance
from rgroups.cli import main
from rgroups.instances import MAX_INTEGER, Instance, serialize_instance

CORPUS = Path(__file__).resolve().parent.parent / "instances"
CORPUS_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*.json"))]
VALID_TEXTS = [p.read_text() for p in sorted(CORPUS.glob("*-valid.json"))]
COMMANDS = (["validate"], ["rgroup", "--oracle"], ["explain"])
CLASSICAL = (Family.SYMPLECTIC, Family.ODD_ORTHOGONAL, Family.EVEN_ORTHOGONAL)

EXTREME_INTEGERS = (0, -1, -(2**63), MAX_INTEGER, MAX_INTEGER + 1, 2**63)
LABELS = ("", "é", "ß∞ℵ", "😀", " ", "\x00\x1f", "\ud800", "\udc80x", "λ" * 2000, "x" * 20000)

# Placeholders that the text replaces after ``json.dumps``: integer
# literals near the digit limit and nesting deeper than the stack.
LONG_LITERALS = {
    "@at-limit@": "9" * 4300,
    "@above-limit@": "1" + "0" * 4300,
    "@negative-above-limit@": "-" + "7" * 5000,
}
TEXT_VALUES = {
    **LONG_LITERALS,
    "@deep-list@": "[" * 20000 + "]" * 20000,
    "@deep-object@": '{"a": ' * 5000 + "1" + "}" * 5000,
}


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.BytesIO(), io.BytesIO()
    stdout = io.TextIOWrapper(out, encoding="utf-8", newline="\n")
    stderr = io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace", newline="\n")
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    stdout.flush()
    stderr.flush()
    return code, out.getvalue().decode(), err.getvalue().decode()


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


@st.composite
def fuzz_texts(draw) -> str:
    """A valid classical document from the fuzzer, up to hundreds of deltas."""
    bounds = FuzzBounds(
        max_deltas=draw(st.sampled_from((0, 5, 300))),
        max_mult=draw(st.sampled_from((1, 3, MAX_INTEGER))),
        family=draw(st.sampled_from(CLASSICAL)),
    )
    pi = random_instance(draw(st.integers(0, 10**6)), bounds)
    return serialize_instance(Instance(pi))


def integer_slots(doc: dict) -> list:
    """(container, key) of every integer field of a well-formed document."""
    slots = [(doc["sigma"], "rank")]
    for spec in doc["symbols"].values():
        slots += [(spec, key) for key in ("dim", "lambda") if key in spec]
    slots += [(block, 1) for block in doc["sigma"]["blocks"]]
    for delta in doc["deltas"]:
        slots += [(delta, "a"), (delta, "mult")]
    return slots


def every_slot(node, slots: list) -> list:
    """(container, key) of every value in a parsed JSON tree."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        slots.append((node, key))
        if isinstance(value, (dict, list)):
            every_slot(value, slots)
    return slots


def rename(doc: dict, old: str, new: str) -> None:
    """Rename a symbol wherever the document names it."""
    doc["symbols"] = {new if k == old else k: v for k, v in doc["symbols"].items()}
    for spec in doc["symbols"].values():
        if spec.get("dual") == old:
            spec["dual"] = new
    for block in doc["sigma"]["blocks"]:
        if block[0] == old:
            block[0] = new
    for delta in doc["deltas"]:
        if delta["rho"] == old:
            delta["rho"] = new


def add_pair_deltas(doc: dict, count: int, mult: int) -> None:
    """``count`` deltas on fresh dual pairs, which keep a valid document valid."""
    pair = "not-conjugate-self-dual" if doc["family"] == "unitary" else "not-self-dual"
    for i in range(count):
        label = f"pair{i}"
        doc["symbols"][label] = {"dim": 1, "duality": pair, "dual": label + "t"}
        doc["symbols"][label + "t"] = {"dim": 1, "duality": pair, "dual": label}
        doc["deltas"].append({"rho": label, "a": 1 + i % 3, "mult": mult})


def valid_edits(draw, doc: dict) -> None:
    """Edits that keep a valid document valid: new labels, many deltas,
    large multiplicities (classical families only, where they are allowed)."""
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("label", "pairs", "mult")))
        if kind == "label" and doc["symbols"]:
            old = draw(st.sampled_from(sorted(doc["symbols"])))
            new = draw(st.sampled_from(LABELS))
            if new not in doc["symbols"]:
                rename(doc, old, new)
        elif kind == "pairs" and doc["family"] != "unitary" and not doc["deltas"]:
            add_pair_deltas(doc, draw(st.sampled_from((1, 300))), draw(st.sampled_from((1, 2))))
        elif kind == "mult" and doc["family"] != "unitary" and doc["deltas"]:
            delta = draw(st.sampled_from(doc["deltas"]))
            delta["mult"] = draw(st.sampled_from((2, 3, MAX_INTEGER)))


def dumps(doc, indent: int | None = 2, ensure_ascii: bool = True) -> str:
    """The document's text, with the placeholders replaced."""
    text = json.dumps(doc, indent=indent, ensure_ascii=ensure_ascii)
    for placeholder, literal in TEXT_VALUES.items():
        text = text.replace(json.dumps(placeholder), literal)
    return text


def draw_dumps(draw, doc) -> str:
    """ASCII or raw UTF-8 text, compact or indented."""
    return dumps(doc, draw(st.sampled_from((None, 2))), draw(st.booleans()))


def repeat_key(text: str, key: str) -> str:
    """The first occurrence of ``key`` given twice in its object."""
    return text.replace(f'"{key}":', f'"{key}": 1, "{key}":', 1)


@st.composite
def valid_documents(draw) -> str:
    doc = json.loads(draw(st.sampled_from(VALID_TEXTS) | fuzz_texts()))
    valid_edits(draw, doc)
    return draw_dumps(draw, doc)


@st.composite
def documents(draw) -> str:
    """Any document: a valid one or a corpus file, then edits of every kind."""
    doc = json.loads(draw(st.sampled_from(CORPUS_TEXTS) | fuzz_texts()))
    valid_edits(draw, doc)
    extreme = st.sampled_from(EXTREME_INTEGERS + tuple(LONG_LITERALS))
    # integer fields first, while the document is still well-formed
    for node, key in draw(st.lists(st.sampled_from(integer_slots(doc)), max_size=2)):
        node[key] = draw(extreme)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("any value", "repeat delta", "unknown key")))
        if kind == "any value":
            node, key = draw(st.sampled_from(every_slot(doc, [])))
            node[key] = draw(
                extreme | st.sampled_from((None, True, 1.5, "x", [], {}, *TEXT_VALUES))
            )
        elif kind == "repeat delta" and isinstance(doc.get("deltas"), list):
            doc["deltas"] = (doc["deltas"] * draw(st.sampled_from((2, 300))))[:600]
        elif kind == "unknown key":
            node, _ = draw(st.sampled_from(every_slot(doc, [])))
            if isinstance(node, dict):
                node[draw(st.sampled_from(LABELS))] = 1
    text = draw_dumps(draw, doc)
    if draw(st.booleans()):
        text = repeat_key(text, draw(st.sampled_from(("family", "dim", "rank", "rho", "mult"))))
    return text


def _edited(edit) -> str:
    """``sp-mixed-valid.json`` after ``edit``."""
    doc = json.loads((CORPUS / "sp-mixed-valid.json").read_text())
    edit(doc)
    return dumps(doc)


# Each extreme at least once, whatever the generator draws.
EXAMPLES = [
    *(_edited(lambda d, label=label: rename(d, "x", label)) for label in LABELS),
    *(
        _edited(lambda d, value=value: d["deltas"][0].update(mult=value))
        for value in EXTREME_INTEGERS + tuple(TEXT_VALUES)
    ),
    _edited(lambda d: d["sigma"].update(rank=2 * MAX_INTEGER)),
    _edited(lambda d: add_pair_deltas(d, 300, 1)),
    _edited(lambda d: d.update(deltas=d["deltas"] * 300)),
    *(repeat_key(dumps(json.loads(VALID_TEXTS[0])), key) for key in ("family", "dim", "rho")),
]


def write(tmp_path_factory, text: str) -> str:
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    # a lone surrogate in raw text makes the file invalid UTF-8
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _with_examples(test):
    for text in EXAMPLES:
        test = example(text=text)(test)
    return test


@_SETTINGS
@_with_examples
@given(text=documents())
def test_every_command_exits_0_1_or_2_and_says_why(text, tmp_path_factory):
    path = write(tmp_path_factory, text)
    for command in COMMANDS:
        for flags in ([], ["--json"]):
            code, out, err = run([*command, path, *flags])
            assert code in (0, 1, 2), (command, flags, code)
            if code == 2:
                assert err.startswith("parse error: "), (command, err)
            elif code == 1:
                # validate answers "invalid" on stdout; a text rgroup reports
                # a skipped oracle there; every other 1 explains on stderr
                assert (
                    err
                    or (command == ["validate"] and ('"valid": false' in out or "violation [" in out))
                    or (command[0] == "rgroup" and not flags and "oracle: skipped (bound: " in out)
                ), (command, flags, out)
            if flags and out:
                json.loads(out)


@_SETTINGS
@_with_examples
@given(text=valid_documents())
def test_every_accepted_document_is_answered(text, tmp_path_factory):
    path = write(tmp_path_factory, text)
    code, out, err = run(["validate", path, "--json"])
    assert code in (0, 1, 2)
    if code != 0:
        return
    for flags in ([], ["--json"]):
        assert run(["explain", path, *flags])[0] == 0
    code, out, err = run(["rgroup", path, "--oracle", "--json"])
    assert code == 0 or (code == 1 and err.startswith("oracle skipped: ")), (code, err)
    results = json.loads(out)["results"]
    assert results["agree"] and results["ks_rank"] == results["arthur_rank"]
