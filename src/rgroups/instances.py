"""Instance files: a JSON schema for inducing data, with round-tripping.

An instance file declares a symbol table, the residual Jordan blocks and
the delta factors.  The same schema covers the three classical families
and the unitary family; the ``duality`` field of a symbol decides which
attributes it carries.  Serialization is canonical: keys sorted, blocks
and deltas sorted by (label, a), and only referenced symbols emitted, so
parse and serialize are mutually inverse on canonical form.
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
from .unitary import (
    UnitaryCuspidalSymbol,
    UnitaryJordanData,
    UnitarySummand,
    validate_unitary_jordan,
)
from .validation import ValidationReport, Violation

FORMAT_VERSION = "1"

_CLASSICAL_DUALITIES = {
    "orthogonal": DualityType.ORTHOGONAL,
    "symplectic": DualityType.SYMPLECTIC,
    "not-self-dual": DualityType.NOT_SELF_DUAL,
}


@dataclass(frozen=True)
class ClassicalInstance:
    family: Family
    data: InducingData


@dataclass(frozen=True)
class UnitaryInstance:
    sigma: UnitaryJordanData
    deltas: tuple[tuple[UnitarySummand, int], ...]

    @property
    def family(self) -> Family:
        return Family.UNITARY


Instance = ClassicalInstance | UnitaryInstance


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _is_int(value: Any) -> bool:
    """A JSON integer; booleans are ints in Python but not in the schema."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_keys(obj: dict, allowed: set[str], context: str) -> None:
    extra = set(obj) - allowed
    _expect(not extra, f"unknown keys {sorted(extra)} in {context}")


def _parse_symbol(label: str, spec: Any) -> CuspidalSymbol | UnitaryCuspidalSymbol:
    _expect(isinstance(spec, dict), f"symbol {label!r} must be an object")
    _expect(
        _is_int(spec.get("dim")) and spec["dim"] >= 1,
        f"symbol {label!r} needs a positive integer dim",
    )
    duality = spec.get("duality")
    try:
        if duality in _CLASSICAL_DUALITIES:
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
            return UnitaryCuspidalSymbol(
                label, spec["dim"], True, lam, lambda_rho_matches=matches
            )
        if duality == "not-conjugate-self-dual":
            _expect_keys(spec, {"dim", "duality", "dual"}, f"symbol {label!r}")
            dual = spec.get("dual")
            _expect(
                isinstance(dual, str),
                f"symbol {label!r} needs a dual label",
            )
            return UnitaryCuspidalSymbol(label, spec["dim"], False, dual_label=dual)
    except ValueError as exc:
        raise ParseError(f"symbol {label!r}: {exc}") from exc
    raise ParseError(f"symbol {label!r} has unknown duality {duality!r}")


def _check_dual_declarations(symbols: dict[str, Any]) -> None:
    for label, sym in symbols.items():
        dual = getattr(sym, "dual_label", None)
        if dual is None:
            continue
        partner = symbols.get(dual)
        _expect(partner is not None, f"dual partner {dual!r} of {label!r} is not declared")
        _expect(
            getattr(partner, "dual_label", None) == label and partner.dim == sym.dim,
            f"symbols {label!r} and {dual!r} do not mirror each other",
        )


def parse_instance(text: str) -> Instance:
    """Parse instance JSON; raises :class:`ParseError` on any defect that
    keeps the file from denoting an instance (domain violations are left
    to validation)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
    symbols: dict[str, Any] = {
        label: _parse_symbol(label, spec) for label, spec in raw_symbols.items()
    }
    unitary_expected = family is Family.UNITARY
    for label, sym in symbols.items():
        is_unitary = isinstance(sym, UnitaryCuspidalSymbol)
        _expect(
            is_unitary == unitary_expected,
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

    if unitary_expected:
        sigma = UnitaryJordanData(
            rank, tuple(UnitarySummand(rho, a) for rho, a in parsed_blocks)
        )
        deltas = tuple(
            (UnitarySummand(rho, a), mult) for rho, a, mult in parsed_deltas
        )
        return UnitaryInstance(sigma, deltas)

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
    return ClassicalInstance(family, data)


def _classical_symbol_doc(sym: CuspidalSymbol) -> dict:
    doc: dict[str, Any] = {"dim": sym.dim, "duality": sym.duality.value}
    if sym.dual_label is not None:
        doc["dual"] = sym.dual_label
    return doc


def _unitary_symbol_doc(sym: UnitaryCuspidalSymbol) -> dict:
    if sym.conj_self_dual:
        doc: dict[str, Any] = {
            "dim": sym.dim,
            "duality": "conjugate-self-dual",
            "lambda": sym.lam,
        }
        if not sym.lambda_rho_matches:
            doc["lambda_matches"] = False
        return doc
    return {
        "dim": sym.dim,
        "duality": "not-conjugate-self-dual",
        "dual": sym.dual_label,
    }


def instance_document(inst: Instance) -> dict:
    """Canonical JSON-ready dictionary for an instance."""
    if isinstance(inst, UnitaryInstance):
        symbols: dict[str, dict] = {}

        def note(sym: UnitaryCuspidalSymbol) -> None:
            symbols[sym.label] = _unitary_symbol_doc(sym)
            if not sym.conj_self_dual:
                partner = sym.dual_partner()
                symbols.setdefault(partner.label, _unitary_symbol_doc(partner))

        for block in inst.sigma.blocks:
            note(block.rho)
        for summand, _ in inst.deltas:
            note(summand.rho)
        return {
            "format_version": FORMAT_VERSION,
            "family": Family.UNITARY.value,
            "symbols": {k: symbols[k] for k in sorted(symbols)},
            "sigma": {
                "rank": inst.sigma.rank,
                "blocks": [
                    [b.rho.label, b.a]
                    for b in sorted(inst.sigma.blocks, key=UnitarySummand.sort_key)
                ],
            },
            "deltas": [
                {"rho": s.rho.label, "a": s.a, "mult": m}
                for s, m in sorted(inst.deltas, key=lambda d: d[0].sort_key())
            ],
        }

    symbols = {}

    def note_classical(sym: CuspidalSymbol) -> None:
        symbols[sym.label] = _classical_symbol_doc(sym)
        if sym.dual_label is not None:
            partner = sym.dual_partner()
            symbols.setdefault(partner.label, _classical_symbol_doc(partner))

    for block in inst.data.sigma.blocks:
        note_classical(block.rho)
    for d in inst.data.deltas:
        note_classical(d.summand.rho)
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
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_instance(text)


def dump_instance(inst: Instance, path: str | Path) -> None:
    Path(path).write_text(serialize_instance(inst))


def validate_instance(inst: Instance) -> ValidationReport:
    """Domain validation of a parsed instance."""
    if isinstance(inst, ClassicalInstance):
        return validate_inducing(inst.data)
    report = validate_unitary_jordan(inst.sigma)
    violations = list(report.violations)
    if len(inst.deltas) > 1:
        violations.append(
            Violation(
                "maximal-levi",
                "only maximal Levi subgroups Res GL x U are supported:"
                " at most one delta factor",
            )
        )
    for summand, mult in inst.deltas:
        if mult != 1:
            violations.append(
                Violation(
                    "maximal-levi",
                    f"delta factor {summand.describe()} has multiplicity"
                    f" {mult}; maximal Levi subgroups carry one GL block",
                )
            )
        if summand.conj_self_dual and not summand.rho.sign_usable:
            violations.append(
                Violation(
                    "sign-hypothesis",
                    f"delta symbol {summand.rho.label!r} has even dimension"
                    " and no sign-agreement hypothesis",
                )
            )
    return ValidationReport(tuple(violations))
