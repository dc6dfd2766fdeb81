"""Batch command-line interface.

Commands: ``validate`` an instance file, ``rgroup`` to compute one or both
R-groups (optionally cross-checked by the brute-force oracle), ``explain``
to pretty-print the classification buckets of the assembled parameter,
and ``fuzz`` to run the two-sided check over randomly generated
instances.  Exit codes: 0 success/agreement, 1 domain violation,
disagreement or an oracle skipped at its size bound, 2 usage or parse
errors.

A plain file command such as ``rgroup --oracle --json FILE`` is answered
without argparse (``_plain_file_command``).  Every other argv, help and
usage errors included, goes to a parser built for that call.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .centralizer import centralizer
from .errors import BoundExceeded, BoundsInfeasible, ParseError, RGroupError
from .instances import (
    _LAMBDAS,
    Instance,
    dump_json,
    instance_head,
    load_instance,
    serialize_instance,
)
from .levi import (
    FuzzBounds,
    _verify,
    parameter_of_induced,
    random_instance,
    validate_inducing,
    verify_theorem,
)
from .params import Family, classify
from .weyl import weyl_quotient

if TYPE_CHECKING:
    import argparse


def _print_violations(report, file=None) -> None:
    for violation in report.violations:
        print(f"violation [{violation.rule}] {violation.message}", file=file)


def _print_document(inst: Instance, results: dict) -> None:
    """Print the ``--json`` document: the instance, then ``results``."""
    print(instance_head(inst) + ',\n  "results": ' + dump_json(results, "\n  ") + "\n}")


def cmd_validate(args: argparse.Namespace) -> int:
    inst = load_instance(args.path)
    report = validate_inducing(inst.data)
    if args.json:
        _print_document(inst, {
            "valid": report.ok,
            "violations": [
                {"rule": v.rule, "message": v.message} for v in report.violations
            ],
        })
        return 0 if report.ok else 1
    if report.ok:
        print(f"{args.path}: valid ({inst.data.sigma.group.family.value})")
        return 0
    print(f"{args.path}: invalid ({inst.data.sigma.group.family.value})")
    _print_violations(report)
    return 1


def _rgroup_results(inst: Instance, oracle: bool) -> tuple[dict, str | None]:
    """The results block, and the bound message if the oracle was skipped."""
    phi = parameter_of_induced(inst.data)
    result = _verify(inst.data, phi)
    desc = centralizer(phi, inst.data.ambient_group())
    out = {
        "ks_rank": result.ks_rank,
        "arthur_rank": result.arthur_rank,
        "agree": result.agree,
        "centralizer": desc.describe(),
        "witness": [
            {
                "delta": row.summand.describe(),
                "mult": row.multiplicity,
                "self_dual": row.self_dual,
                "same_type": row.same_type,
                "in_jordan": row.in_jordan,
                "counted": row.counted,
            }
            for row in result.witness
        ],
    }
    bound = None
    if oracle:
        try:
            out["oracle_rank"] = weyl_quotient(desc).rank
            out["agree"] = out["agree"] and out["oracle_rank"] == result.arthur_rank
        except BoundExceeded as exc:
            bound = str(exc)
            out["oracle_rank"] = None
            out["oracle"] = "skipped (bound)"
    return out, bound


def _load_valid(path: str) -> Instance | None:
    """The instance at ``path``, or None after reporting its violations."""
    inst = load_instance(path)
    report = validate_inducing(inst.data)
    if report.ok:
        return inst
    print(f"{path}: invalid instance", file=sys.stderr)
    _print_violations(report, file=sys.stderr)
    return None


def cmd_rgroup(args: argparse.Namespace) -> int:
    inst = _load_valid(args.path)
    if inst is None:
        return 1
    results, bound = _rgroup_results(inst, args.oracle)
    code = 1 if bound or (args.side == "both" and not results["agree"]) else 0
    if args.json:
        if args.side == "ks":
            results = {k: results[k] for k in ("ks_rank", "witness")}
        elif args.side == "arthur":
            results = {
                k: results[k] for k in ("arthur_rank", "centralizer", "witness")
            }
        _print_document(inst, results)
        if bound:
            print(f"oracle skipped: {bound}", file=sys.stderr)
        return code

    if results["witness"]:
        for line in _witness_table_rows(results["witness"]):
            print(line)
    if args.side in ("both", "ks"):
        print(f"knapp-stein rank: {results['ks_rank']}")
    if args.side in ("both", "arthur"):
        print(f"arthur rank: {results['arthur_rank']}")
        print(f"centralizer: {results['centralizer']}")
    if bound:
        print(f"oracle: skipped (bound: {bound})")
    elif args.oracle:
        print(f"oracle rank: {results['oracle_rank']}")
    if args.side == "both":
        print(f"agree: {'yes' if results['agree'] else 'NO'}")
    return code


def _witness_table_rows(rows: list[dict]) -> list[str]:
    header = (
        f"{'delta':<16}{'mult':>5}  {'self-dual':<10}{'same-type':<10}"
        f"{'in-jordan':<10}{'counted':<8}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['delta']:<16}{row['mult']:>5}  "
            f"{str(row['self_dual']).lower():<10}{str(row['same_type']).lower():<10}"
            f"{str(row['in_jordan']).lower():<10}{str(row['counted']).lower():<8}"
        )
    return lines


def cmd_explain(args: argparse.Namespace) -> int:
    inst = _load_valid(args.path)
    if inst is None:
        return 1
    phi = parameter_of_induced(inst.data)
    ambient = inst.data.ambient_group()
    desc = centralizer(phi, ambient)
    buckets = classify(phi, ambient)
    if ambient.family is Family.UNITARY:
        doc = {
            "ambient": ambient.describe(),
            "summands": [
                {
                    "summand": s.describe(),
                    "dim": s.dim,
                    "mult": m,
                    "conj_self_dual": s.self_dual,
                    "lambda": _LAMBDAS[s.duality],
                }
                for s, m in phi.expanded_entries()
            ],
            "centralizer": desc.describe(),
            "rank": buckets.d,
        }
        lines = [f"ambient group: {doc['ambient']}"]
        for row in doc["summands"]:
            lam = f" lambda={row['lambda']:+d}" if row["lambda"] is not None else ""
            lines.append(f"  {row['summand']:<16} dim={row['dim']} mult={row['mult']}{lam}")
        lines += [f"centralizer: {doc['centralizer']}", f"rank = {doc['rank']}"]
    else:
        names = ("dual-pair", "opposite-type", "same-type-odd", "same-type-even")
        bucket_rows = list(zip(names, buckets.buckets))
        doc = {
            "ambient": ambient.describe(),
            "parameter": phi.describe(),
            "buckets": {
                name: [
                    {
                        "summand": e.summand.describe(),
                        "dim": e.summand.dim,
                        "mult": e.multiplicity,
                    }
                    for e in entries
                ]
                for name, entries in bucket_rows
            },
            "d": buckets.d,
            "centralizer": desc.describe(),
        }
        lines = [f"ambient group: {doc['ambient']}", f"parameter: {doc['parameter']}"]
        for name, entries in bucket_rows:
            for e in entries:
                lines.append(
                    f"  [{name:<14}] {e.summand.describe():<16} dim={e.summand.dim}"
                    f" mult={e.multiplicity}"
                )
        lines += [f"rank d = {doc['d']}", f"centralizer: {doc['centralizer']}"]
    if args.json:
        _print_document(inst, doc)
    else:
        print("\n".join(lines))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    try:
        if args.count < 0:
            raise ValueError(f"count must be non-negative, got {args.count}")
        bounds = FuzzBounds(
            args.max_deltas, args.max_dim, args.max_a, args.max_mult, Family(args.family)
        )
    except (BoundsInfeasible, ValueError) as exc:
        print(f"infeasible bounds: {exc}", file=sys.stderr)
        return 2

    failures: list[Path] = []
    replay_dir = Path(args.replay_dir)
    for index in range(args.count):
        seed = args.seed + index
        try:
            pi = random_instance(seed, bounds)
        except BoundsInfeasible as exc:
            print(f"infeasible bounds: {exc}", file=sys.stderr)
            return 2
        result = verify_theorem(pi)
        if not result.agree:
            replay_dir.mkdir(parents=True, exist_ok=True)
            path = replay_dir / f"fail-{args.family}-seed{seed}.json"
            path.write_text(serialize_instance(Instance(pi)))
            failures.append(path)
            print(
                f"instance {index} (seed {seed}): ks={result.ks_rank}"
                f" arthur={result.arthur_rank} DISAGREE -> {path}"
            )
    print(f"{args.count - len(failures)}/{args.count} agree (family {args.family}, seed {args.seed})")
    return 1 if failures else 0


# Each option's argparse keywords.
_OPTIONS = {
    "--json": {"action": "store_true", "help": "machine-readable output"},
    "--side": {"choices": ("both", "ks", "arthur"), "default": "both"},
    "--oracle": {"action": "store_true", "help": "also run the brute-force Weyl quotient"},
}

# Each file command: its handler, its help and its options, in the order
# the parser lists them.  ``build_parser`` and ``_plain_file_command`` both
# read this table.
_FILE_COMMANDS = {
    "validate": (cmd_validate, "validate an instance file", ("--json",)),
    "rgroup": (cmd_rgroup, "compute R-groups for an instance", ("--json", "--side", "--oracle")),
    "explain": (cmd_explain, "pretty-print the classification of the parameter", ("--json",)),
}


def _plain_file_command(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for a plain file command: its exact
    name, one token not starting with ``-`` (the path) and any of its
    ``store_true`` flags, exactly spelled, in any order.  None for any
    other argv, which argparse then decides."""
    command = _FILE_COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    func, _, options = command
    args = {"command": argv[0], "func": func}
    for option in options:
        args[option[2:]] = _OPTIONS[option].get("default", False)
    paths = []
    for token in argv[1:]:
        if not token.startswith("-"):
            paths.append(token)
        elif token in options and _OPTIONS[token].get("action") == "store_true":
            args[token[2:]] = True
        else:
            return None
    if len(paths) != 1:
        return None
    return SimpleNamespace(path=paths[0], **args)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on each call rather than at import."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rgroups",
        description=(
            "Compute and cross-check Knapp-Stein and Arthur R-groups of"
            " classical p-adic groups from Jordan-block instance files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (func, text, options) in _FILE_COMMANDS.items():
        p_file = sub.add_parser(name, help=text)
        p_file.add_argument("path")
        for option in options:
            p_file.add_argument(option, **_OPTIONS[option])
        p_file.set_defaults(func=func)

    defaults = FuzzBounds()
    p_fuzz = sub.add_parser("fuzz", help="fuzz the two-sided R-group check")
    p_fuzz.add_argument("--seed", type=int, default=0)
    p_fuzz.add_argument("--count", type=int, default=100)
    p_fuzz.add_argument(
        "--family", choices=("sp", "so-odd", "o-even"), default=defaults.family.value
    )
    p_fuzz.add_argument("--max-deltas", type=int, default=defaults.max_deltas)
    p_fuzz.add_argument("--max-dim", type=int, default=defaults.max_dim)
    p_fuzz.add_argument("--max-a", type=int, default=defaults.max_a)
    p_fuzz.add_argument("--max-mult", type=int, default=defaults.max_mult)
    p_fuzz.add_argument(
        "--replay-dir",
        default="fuzz-failures",
        help="directory for replay files of disagreeing instances",
    )
    p_fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_file_command(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except RGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
