"""Instance files: a JSON schema for inducing data, with round-tripping.

An instance file declares its family, which parses to sigma's group, a
symbol table, the residual Jordan blocks and the delta factors.  The four
families share the schema; the unitary family declares its symbols in the
conjugate-duality vocabulary, which parses to conjugate symbols (see
``CuspidalSymbol.conjugate``).  Serialization is canonical: top-level
keys in schema order, symbols sorted by label, blocks (in sigma's order)
and deltas sorted by (label, a), and only referenced symbols emitted, so
parse and serialize are mutually inverse on canonical form.  It is written
straight from the instance; ``dump_json`` writes only ``--json`` results.
"""

from __future__ import annotations

from json import JSONDecodeError, JSONDecoder
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any

from .errors import ParseError
from .jordan import JordanData, _symbol_violations
from .levi import DeltaFactor, InducingData
from .params import _NOT_SELF_DUAL, _ORTHOGONAL, _SYMPLECTIC, _UNITARY
from .params import CuspidalSymbol, DualityType, Family, GroupSpec, Summand
from .validation import Value, slot_setters

FORMAT_VERSION = "1"

# Every integer field (a symbol's dim, sigma.rank, a block's or a delta's
# a, a delta's mult) is at most this.  Far above any instance the oracle
# or a reader can use, and far below the interpreter's limit on the digits
# of an int it converts to or from text (4,300 by default), which a rank
# summed from such fields then never reaches.
MAX_INTEGER = 10**6

_FAMILIES = {f.value: f for f in Family}
_CLASSICAL_DUALITIES = {t.value: t for t in DualityType}
# A conjugate-self-dual symbol's sign lambda and the type it is stored as
# (see ``CuspidalSymbol.conjugate``); the inverse reads None for no sign.
_LAMBDA_TYPES = {1: _ORTHOGONAL, -1: _SYMPLECTIC}
_LAMBDAS = {_ORTHOGONAL: 1, _SYMPLECTIC: -1, _NOT_SELF_DUAL: None}

_INSTANCE_KEYS = frozenset(("format_version", "family", "symbols", "sigma", "deltas"))
_CLASSICAL_SYMBOL_KEYS = frozenset(("dim", "duality", "dual"))
_CONJUGATE_SELF_DUAL_KEYS = frozenset(("dim", "duality", "lambda", "lambda_matches"))
_SIGMA_KEYS = frozenset(("rank", "blocks"))
_DELTA_KEYS = frozenset(("rho", "a", "mult"))


class Instance(Value):
    """An instance file's content: the inducing datum.  Its family is
    that of sigma's group, ``data.sigma.group.family``."""

    __slots__ = __match_args__ = ("data",)

    def __init__(self, data: InducingData) -> None:
        _set_instance_data(self, data)


(_set_instance_data,) = slot_setters(Instance)


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints in Python but not in the schema
    (the JSON decoder gives no other subclass of int)."""
    return type(value) is int


def _expect_keys(obj: dict, allowed: frozenset[str], context: str, *args: Any) -> None:
    """Refuse keys outside ``allowed``; ``context % args`` names ``obj`` in
    the message, which is formatted only when a key is refused."""
    if not obj.keys() <= allowed:
        extra = sorted(obj.keys() - allowed)
        raise ParseError(f"unknown keys {extra} in {context % args}")


def _integer_error(value: Any, message: str, field: str) -> ParseError:
    """The error of an integer field that failed its check: ``message``,
    or, for an integer above :data:`MAX_INTEGER`, the bound naming ``field``."""
    if _is_int(value) and value > MAX_INTEGER:
        return ParseError(f"{field} is above the bound {MAX_INTEGER}")
    return ParseError(message)


def _parse_symbol(label: str, spec: Any) -> CuspidalSymbol:
    if not isinstance(spec, dict):
        raise ParseError(f"symbol {label!r} must be an object")
    if not label.isascii() and any("\ud800" <= c <= "\udfff" for c in label):
        raise ParseError(f"symbol {label!r} holds a lone surrogate, which no output can write")
    dim = spec.get("dim")
    if not (_is_int(dim) and 1 <= dim <= MAX_INTEGER):
        raise _integer_error(
            dim, f"symbol {label!r} needs a positive integer dim", f"symbol {label!r}: dim"
        )
    duality = spec.get("duality")
    conjugate = duality == "not-conjugate-self-dual"
    try:
        if conjugate or (isinstance(duality, str) and duality in _CLASSICAL_DUALITIES):
            _expect_keys(spec, _CLASSICAL_SYMBOL_KEYS, "symbol %r", label)
            kind = _NOT_SELF_DUAL if conjugate else _CLASSICAL_DUALITIES[duality]
            if kind is _NOT_SELF_DUAL:
                dual = spec.get("dual")
                if not isinstance(dual, str):
                    prefix = "" if conjugate else "non-self-dual "
                    raise ParseError(f"{prefix}symbol {label!r} needs a dual label")
                return CuspidalSymbol(label, dim, kind, dual, conjugate)
            if "dual" in spec:
                raise ParseError(f"self-dual symbol {label!r} must not declare a dual")
            return CuspidalSymbol(label, dim, kind)
        if duality == "conjugate-self-dual":
            _expect_keys(spec, _CONJUGATE_SELF_DUAL_KEYS, "symbol %r", label)
            lam = spec.get("lambda")
            if not (_is_int(lam) and lam in _LAMBDA_TYPES):
                raise ParseError(f"symbol {label!r} needs lambda +1 or -1")
            matches = spec.get("lambda_matches", True)
            if not isinstance(matches, bool):
                raise ParseError(f"symbol {label!r}: lambda_matches must be a boolean")
            kind = _LAMBDA_TYPES[lam]
            return CuspidalSymbol(label, dim, kind, conjugate=True, lambda_matches=matches)
    except ValueError as exc:
        raise ParseError(f"symbol {label!r}: {exc}") from exc
    raise ParseError(f"symbol {label!r} has unknown duality {duality!r}")


def _check_dual_declarations(symbols: dict[str, CuspidalSymbol]) -> None:
    """Every declared dual partner exists and mirrors its symbol.  The
    same defect in built data is ``params.canonicalize``'s
    InconsistentSymbol; in a file it keeps the file from denoting an
    instance, so it is a ParseError here."""
    for label, sym in symbols.items():
        dual = sym.dual_label
        if dual is None:
            continue
        partner = symbols.get(dual)
        if partner is None:
            raise ParseError(f"dual partner {dual!r} of {label!r} is not declared")
        if not (partner.dual_label == label and partner.dim == sym.dim):
            raise ParseError(f"symbols {label!r} and {dual!r} do not mirror each other")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's dict, refusing a repeated key (``json.loads`` alone
    would keep its last value)."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"repeated key {key!r}")
            seen.add(key)
    return obj


# One decoder for every parse: ``json.loads`` with a keyword argument
# builds a new decoder and scanner on each call.
_decode = JSONDecoder(object_pairs_hook=_unique_keys).decode


def parse_instance(text: str) -> Instance:
    """Parse instance JSON; raises :class:`ParseError` on any defect that
    keeps the file from denoting an instance (domain violations are left
    to validation).  No message is formatted unless its check fails."""
    try:
        if text.startswith("\ufeff"):
            # json.loads refuses a byte order mark before decoding;
            # JSONDecoder.decode does not
            raise JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _decode(text)
    except (JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack
        raise ParseError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:
        # an integer literal longer than the interpreter converts from text
        raise ParseError(f"an integer is above the bound {MAX_INTEGER}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    _expect_keys(doc, _INSTANCE_KEYS, "instance")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc.get('format_version')!r}")
    try:
        family = _FAMILIES[doc.get("family")]
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable value
        raise ParseError(f"unknown family {doc.get('family')!r}") from exc

    raw_symbols = doc.get("symbols")
    if not isinstance(raw_symbols, dict):
        raise ParseError("symbols must be an object")
    symbols = {label: _parse_symbol(label, spec) for label, spec in raw_symbols.items()}
    unitary = family is _UNITARY
    for label, sym in symbols.items():
        if sym.conjugate != unitary:
            raise ParseError(_symbol_violations(sym, family, f"symbol {label!r}")[0].message)
    _check_dual_declarations(symbols)

    sigma_doc = doc.get("sigma")
    if not isinstance(sigma_doc, dict):
        raise ParseError("sigma must be an object")
    _expect_keys(sigma_doc, _SIGMA_KEYS, "sigma")
    rank = sigma_doc.get("rank")
    if not (_is_int(rank) and 0 <= rank <= MAX_INTEGER):
        raise _integer_error(rank, "sigma.rank must be a non-negative integer", "sigma.rank")
    blocks_doc = sigma_doc.get("blocks")
    if not isinstance(blocks_doc, list):
        raise ParseError("sigma.blocks must be a list")

    def resolve(label: Any, a: Any, kind: str, i: int) -> Summand:
        if not (isinstance(label, str) and label in symbols):
            raise ParseError(f"{kind} #{i}: unknown label {label!r}")
        if not (_is_int(a) and 1 <= a <= MAX_INTEGER):
            raise _integer_error(
                a, f"{kind} #{i}: a must be a positive integer", f"{kind} #{i}: a"
            )
        return Summand(symbols[label], a)

    deltas_doc = doc.get("deltas")
    if not isinstance(deltas_doc, list):
        raise ParseError("deltas must be a list")
    deltas = []
    for i, entry in enumerate(deltas_doc):
        if not isinstance(entry, dict):
            raise ParseError(f"delta #{i} must be an object")
        _expect_keys(entry, _DELTA_KEYS, "delta #%d", i)
        summand = resolve(entry.get("rho"), entry.get("a"), "delta", i)
        mult = entry.get("mult", 1)
        if not (_is_int(mult) and 1 <= mult <= MAX_INTEGER):
            raise _integer_error(
                mult, f"delta #{i}: mult must be a positive integer", f"delta #{i}: mult"
            )
        deltas.append(DeltaFactor(summand, mult))

    blocks = []
    seen: dict[tuple[str, int], int] = {}  # (label, a) -> index; Jord(sigma) is a set
    for i, entry in enumerate(blocks_doc):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParseError(f"block #{i} must be a [label, a] pair")
        blocks.append(resolve(entry[0], entry[1], "block", i))
        first = seen.setdefault(tuple(entry), i)
        if first != i:
            raise ParseError(f"block #{i} repeats block #{first}")

    sigma = JordanData(GroupSpec(family, rank), tuple(blocks))
    return Instance(InducingData(tuple(deltas), sigma))


def _int(value: int) -> str:
    """An integer field by ``dump_json``'s rule (an IntEnum by ``int.__repr__``)."""
    return _SCALARS.get(value.__class__, int.__repr__)(value)


def _symbol_text(sym: CuspidalSymbol) -> str:
    duality = sym.duality.value
    if sym.conjugate:
        duality = "conjugate-self-dual" if sym.self_dual else "not-conjugate-self-dual"
    text = f'{_quote(sym.label)}: {{\n      "dim": {_int(sym.dim)},\n      "duality": {_quote(duality)}'
    if sym.dual_label is not None:
        text += f',\n      "dual": {_quote(sym.dual_label)}'
    elif sym.conjugate:
        text += f',\n      "lambda": {_LAMBDAS[sym.duality]}'
    if not sym.lambda_matches:
        text += ',\n      "lambda_matches": false'
    return text + "\n    }"


def instance_head(inst: Instance) -> str:
    """The canonical document of ``inst`` without its closing brace, as
    ``json.dumps(doc, indent=2)`` writes it.  A label of the symbol table
    holds its last direct use or, with none, the first partner noted there."""
    sigma = inst.data.sigma
    symbols: dict[str, CuspidalSymbol] = {}
    for rho in [b.rho for b in sigma.blocks] + [d.summand.rho for d in inst.data.deltas]:
        symbols[rho.label] = rho
        if rho.dual_label is not None and rho.dual_label not in symbols:
            symbols[rho.dual_label] = rho.dual_partner()
    table = ",\n    ".join([_symbol_text(symbols[label]) for label in sorted(symbols)])
    blocks = ",\n      ".join([f"[\n        {_quote(b.rho.label)},\n        {_int(b.a)}\n      ]"
                                for b in sigma.blocks])
    deltas = ",\n    ".join([
        f'{{\n      "rho": {_quote(d.summand.rho.label)},\n      "a": {_int(d.summand.a)},'
        f'\n      "mult": {_int(d.multiplicity)}\n    }}'
        for d in sorted(inst.data.deltas, key=lambda d: d.summand.sort_key())
    ])
    table = "{\n    " + table + "\n  }" if table else "{}"
    blocks = "[\n      " + blocks + "\n    ]" if blocks else "[]"
    deltas = "[\n    " + deltas + "\n  ]" if deltas else "[]"
    return (
        f'{{\n  "format_version": {_quote(FORMAT_VERSION)},'
        f'\n  "family": {_quote(sigma.group.family.value)},'
        f'\n  "symbols": {table},\n  "sigma": {{\n    "rank": {_int(sigma.group.rank)},'
        f'\n    "blocks": {blocks}\n  }},\n  "deltas": {deltas}'
    )


# The JSON writer of each scalar type, by exact type (see `dump_json`).
_SCALARS = {
    str: _quote,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def dump_json(value: Any, pad: str = "\n") -> str:
    """Exactly ``json.dumps(value, indent=2)`` for documents of str, int,
    bool, None, list, tuple and dict, in one pass (the ``json`` module
    writes indented output with its pure-Python encoder), for the results
    block of ``--json`` output, at the indent ``pad`` holds.  Any other
    type, a float or a non-str key included, raises TypeError.  A list or
    dict writes each item of an exact type in ``_SCALARS`` through its
    writer there, with no call per scalar; any other item, a subclass such
    as an ``IntEnum`` member included, goes through the tests at the end."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        items = []
        for v in value:
            write = _SCALARS.get(type(v))
            items.append(dump_json(v, inner) if write is None else write(v))
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        items = []
        for k, v in value.items():
            write = _SCALARS.get(type(v))
            text = dump_json(v, inner) if write is None else write(v)
            # _quote raises TypeError on a key that is not a str
            items.append(_quote(k) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_instance(inst: Instance) -> str:
    return instance_head(inst) + "\n}\n"


def load_instance(path: str | Path) -> Instance:
    """Read and parse an instance file.  It is read as bytes and decoded
    in one call, with ``Path.read_text``'s universal newlines (CRLF and CR
    read as LF), without the cost of a text-mode file."""
    try:
        with open(path, "rb", buffering=0) as file:
            text = file.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return parse_instance(text)
