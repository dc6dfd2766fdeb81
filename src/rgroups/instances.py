"""Instance files: a JSON schema for inducing data, with round-tripping.

An instance file declares a symbol table, the residual Jordan blocks and
the delta factors.  The same schema covers the three classical families
and the unitary family; the unitary family declares its symbols in the
conjugate-duality vocabulary, which parses to conjugate symbols (see
``CuspidalSymbol.conjugate``).  Serialization is canonical: keys sorted,
blocks and deltas sorted by (label, a), and only referenced symbols
emitted, so parse and serialize are mutually inverse on canonical form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ParseError
from .jordan import JordanData
from .levi import DeltaFactor, InducingData, validate_inducing
from .params import CuspidalSymbol, DualityType, Family, GroupSpec, Summand
from .validation import ValidationReport

FORMAT_VERSION = "1"

_CLASSICAL_DUALITIES = {
    "orthogonal": DualityType.ORTHOGONAL,
    "symplectic": DualityType.SYMPLECTIC,
    "not-self-dual": DualityType.NOT_SELF_DUAL,
}


@dataclass(frozen=True)
class Instance:
    family: Family
    data: InducingData


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints in Python but not in the schema."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_keys(obj: dict, allowed: set[str], context: str) -> None:
    extra = set(obj) - allowed
    _expect(not extra, f"unknown keys {sorted(extra)} in {context}")


def _parse_symbol(label: str, spec: Any) -> CuspidalSymbol:
    _expect(isinstance(spec, dict), f"symbol {label!r} must be an object")
    _expect(
        _is_int(spec.get("dim")) and spec["dim"] >= 1,
        f"symbol {label!r} needs a positive integer dim",
    )
    duality = spec.get("duality")
    try:
        if isinstance(duality, str) and duality in _CLASSICAL_DUALITIES:
            _expect_keys(spec, {"dim", "duality", "dual"}, f"symbol {label!r}")
            kind = _CLASSICAL_DUALITIES[duality]
            if kind is DualityType.NOT_SELF_DUAL:
                dual = spec.get("dual")
                _expect(
                    isinstance(dual, str),
                    f"non-self-dual symbol {label!r} needs a dual label",
                )
                return CuspidalSymbol(label, spec["dim"], kind, dual)
            _expect(
                "dual" not in spec,
                f"self-dual symbol {label!r} must not declare a dual",
            )
            return CuspidalSymbol(label, spec["dim"], kind)
        if duality == "conjugate-self-dual":
            _expect_keys(
                spec,
                {"dim", "duality", "lambda", "lambda_matches"},
                f"symbol {label!r}",
            )
            lam = spec.get("lambda")
            _expect(
                _is_int(lam) and lam in (1, -1),
                f"symbol {label!r} needs lambda +1 or -1",
            )
            matches = spec.get("lambda_matches", True)
            _expect(
                isinstance(matches, bool),
                f"symbol {label!r}: lambda_matches must be a boolean",
            )
            kind = DualityType.ORTHOGONAL if lam == 1 else DualityType.SYMPLECTIC
            return CuspidalSymbol(
                label, spec["dim"], kind, conjugate=True, lambda_matches=matches
            )
        if duality == "not-conjugate-self-dual":
            _expect_keys(spec, {"dim", "duality", "dual"}, f"symbol {label!r}")
            dual = spec.get("dual")
            _expect(
                isinstance(dual, str),
                f"symbol {label!r} needs a dual label",
            )
            return CuspidalSymbol(
                label, spec["dim"], DualityType.NOT_SELF_DUAL, dual, conjugate=True
            )
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
        _expect(partner is not None, f"dual partner {dual!r} of {label!r} is not declared")
        _expect(
            partner.dual_label == label and partner.dim == sym.dim,
            f"symbols {label!r} and {dual!r} do not mirror each other",
        )


def parse_instance(text: str) -> Instance:
    """Parse instance JSON; raises :class:`ParseError` on any defect that
    keeps the file from denoting an instance (domain violations are left
    to validation)."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: nesting deeper than the interpreter's stack
        raise ParseError(f"not valid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect_keys(
        doc, {"format_version", "family", "symbols", "sigma", "deltas"}, "instance"
    )
    _expect(
        doc.get("format_version") == FORMAT_VERSION,
        f"unsupported format_version {doc.get('format_version')!r}",
    )
    try:
        family = Family(doc.get("family"))
    except ValueError as exc:
        raise ParseError(f"unknown family {doc.get('family')!r}") from exc

    raw_symbols = doc.get("symbols")
    _expect(isinstance(raw_symbols, dict), "symbols must be an object")
    symbols = {label: _parse_symbol(label, spec) for label, spec in raw_symbols.items()}
    unitary = family is Family.UNITARY
    for label, sym in symbols.items():
        _expect(
            sym.conjugate == unitary,
            f"symbol {label!r} has the wrong duality vocabulary for family"
            f" {family.value!r}",
        )
    _check_dual_declarations(symbols)

    sigma_doc = doc.get("sigma")
    _expect(isinstance(sigma_doc, dict), "sigma must be an object")
    _expect_keys(sigma_doc, {"rank", "blocks"}, "sigma")
    rank = sigma_doc.get("rank")
    _expect(_is_int(rank) and rank >= 0, "sigma.rank must be a non-negative integer")
    blocks_doc = sigma_doc.get("blocks")
    _expect(isinstance(blocks_doc, list), "sigma.blocks must be a list")

    def resolve(label: Any, a: Any, context: str):
        _expect(isinstance(label, str) and label in symbols, f"{context}: unknown label {label!r}")
        _expect(_is_int(a) and a >= 1, f"{context}: a must be a positive integer")
        return symbols[label], a

    deltas_doc = doc.get("deltas")
    _expect(isinstance(deltas_doc, list), "deltas must be a list")
    parsed_deltas = []
    for i, entry in enumerate(deltas_doc):
        _expect(isinstance(entry, dict), f"delta #{i} must be an object")
        _expect_keys(entry, {"rho", "a", "mult"}, f"delta #{i}")
        rho, a = resolve(entry.get("rho"), entry.get("a"), f"delta #{i}")
        mult = entry.get("mult", 1)
        _expect(
            _is_int(mult) and mult >= 1,
            f"delta #{i}: mult must be a positive integer",
        )
        parsed_deltas.append((rho, a, mult))

    parsed_blocks = []
    for i, entry in enumerate(blocks_doc):
        _expect(
            isinstance(entry, list) and len(entry) == 2,
            f"block #{i} must be a [label, a] pair",
        )
        parsed_blocks.append(resolve(entry[0], entry[1], f"block #{i}"))

    sigma = JordanData(
        GroupSpec(family, rank),
        tuple(Summand(rho, a) for rho, a in parsed_blocks),
    )
    data = InducingData(
        tuple(
            DeltaFactor(Summand(rho, a), mult) for rho, a, mult in parsed_deltas
        ),
        sigma,
    )
    return Instance(family, data)


def _symbol_doc(sym: CuspidalSymbol) -> dict:
    duality = sym.duality.value
    if sym.conjugate:
        duality = "conjugate-self-dual" if sym.self_dual else "not-conjugate-self-dual"
    doc: dict[str, Any] = {"dim": sym.dim, "duality": duality}
    if sym.dual_label is not None:
        doc["dual"] = sym.dual_label
    elif sym.conjugate:
        doc["lambda"] = 1 if sym.duality is DualityType.ORTHOGONAL else -1
    if not sym.lambda_matches:
        doc["lambda_matches"] = False
    return doc


def instance_document(inst: Instance) -> dict:
    """Canonical JSON-ready dictionary for an instance."""
    symbols: dict[str, dict] = {}

    def note(sym: CuspidalSymbol) -> None:
        symbols[sym.label] = _symbol_doc(sym)
        if sym.dual_label is not None:
            partner = sym.dual_partner()
            symbols.setdefault(partner.label, _symbol_doc(partner))

    for block in inst.data.sigma.blocks:
        note(block.rho)
    for d in inst.data.deltas:
        note(d.summand.rho)
    return {
        "format_version": FORMAT_VERSION,
        "family": inst.family.value,
        "symbols": {k: symbols[k] for k in sorted(symbols)},
        "sigma": {
            "rank": inst.data.sigma.group.rank,
            "blocks": [
                [b.rho.label, b.a]
                for b in sorted(inst.data.sigma.blocks, key=Summand.sort_key)
            ],
        },
        "deltas": [
            {"rho": d.summand.rho.label, "a": d.summand.a, "mult": d.multiplicity}
            for d in sorted(inst.data.deltas, key=lambda d: d.summand.sort_key())
        ],
    }


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_document(inst), indent=2, sort_keys=False) + "\n"


def load_instance(path: str | Path) -> Instance:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def validate_instance(inst: Instance) -> ValidationReport:
    """Domain validation of a parsed instance."""
    return validate_inducing(inst.data)
