"""The four benchmark workloads: their inputs, their op and its checks.

An op receives one input item as plain data and a ``call`` function (see
``trace.py``) through which it makes every call into the program, so the
traced run records one span per public call.  Every program object is
built inside the op.  An op returns ``(cause, info)``: ``cause`` is None
when every check passed, else the name of the failure; ``info`` carries
what the traced run needs to count work, outside the timed region.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from rgroups import (
    CentralizerDescriptor,
    CuspidalSymbol,
    DualityType,
    Factor,
    FactorKind,
    Family,
    FuzzBounds,
    GroupSpec,
    Summand,
    arthur_r_group,
    canonicalize,
    centralizer,
    random_instance,
    validate_parameter,
    verify_theorem,
    weyl_of_factor,
    weyl_quotient,
)
from rgroups.cli import main as cli_main
from rgroups.errors import BoundExceeded, ParseError
from rgroups.instances import parse_instance, serialize_instance
from rgroups.weyl import torus_degree

import inputs

# The largest centralizer factor each workload can reach; the warm-up
# builds the Weyl groups of every factor up to it.
MAX_FACTOR_SIZE = {
    "exhaustive-oracle": inputs.MAX_MULT,
    "oracle-constrained": inputs.MAX_MULT,
    "fuzz-verify": 0,
    # fuzzed deltas of multiplicity 3 that are also Jordan blocks give O(7)
    "cli-batch": 7,
}


def warm_up(workload: str) -> None:
    """Fill the Weyl-group cache for every factor the workload can reach."""
    for kind in FactorKind:
        for size in range(1, MAX_FACTOR_SIZE[workload] + 1):
            if kind is FactorKind.SYMPLECTIC and size % 2:
                continue
            weyl_of_factor(kind, size)


# ---------------------------------------------------------------------------
# exhaustive-oracle and oracle-constrained
# ---------------------------------------------------------------------------


def _realize(family: str, combo):
    """Summands and target group of one entry-template combination."""
    dual = inputs.DUAL_TYPE[family]
    types = {"same": DualityType(dual), "opp": DualityType(inputs.OPPOSITE[dual])}
    entries = []
    for idx, (kind, dim, mult) in enumerate(combo):
        label = f"s{idx}"
        if kind == "pair":
            rho = CuspidalSymbol(label, dim, DualityType.NOT_SELF_DUAL, label + "t")
            entries.append((Summand(rho, 1), mult))
            entries.append((Summand(rho.dual_partner(), 1), mult))
        else:
            entries.append((Summand(CuspidalSymbol(label, dim, types[kind]), 1), mult))
    rank = inputs.group_rank(family, inputs.combo_dimension(combo))
    return entries, GroupSpec(Family(family), rank)


def exhaustive_op(item, call):
    family, combo = item
    entries, group = call("params.build", _realize, family, combo)
    psi = call("params.canonicalize", canonicalize, entries)
    report = call("params.validate", validate_parameter, psi, group)
    if not report.ok:
        return "invalid", None
    closed = call("centralizer.closed_form", arthur_r_group, psi, group)
    desc = call("centralizer.centralizer", centralizer, psi, group)
    try:
        oracle = call("weyl.quotient", weyl_quotient, desc)
    except BoundExceeded:
        return "oracle_skip", (len(psi.entries), desc, True)
    info = (len(psi.entries), desc, False)
    if closed != oracle or closed.rank != inputs.expected_rank(combo):
        return "rank_mismatch", info
    return None, info


_BUCKET = {"pair": 0, "opp": 1, "same": 2}
_SP_KIND = {
    "pair": FactorKind.GENERAL_LINEAR,
    "opp": FactorKind.SYMPLECTIC,
    "same": FactorKind.FULL_ORTHOGONAL,
}


def _unresolved_descriptor(combo) -> CentralizerDescriptor:
    """Centralizer of an sp parameter with the determinant condition left
    live: every O factor of odd source dimension is constrained, and none
    is demoted to SO."""
    factors = []
    live = []
    for kind, dim, mult in sorted(combo, key=lambda t: _BUCKET[t[0]]):
        if kind == "same" and dim % 2:
            live.append((len(factors), 1))
        factors.append(Factor(_SP_KIND[kind], mult, dim))
    return CentralizerDescriptor(tuple(factors), tuple(live))


def constrained_op(combo, call):
    desc = call("centralizer.descriptor", _unresolved_descriptor, combo)
    try:
        result = call("weyl.quotient", weyl_quotient, desc)
    except BoundExceeded:
        return "oracle_skip", (None, desc, True)
    info = (None, desc, False)
    if result.rank != inputs.expected_rank(combo):
        return "rank_mismatch", info
    return None, info


# ---------------------------------------------------------------------------
# fuzz-verify
# ---------------------------------------------------------------------------


def _generate(family: str, seed: int):
    return random_instance(seed, FuzzBounds(family=Family(family)))


def fuzz_op(item, call):
    family, seed = item
    pi = call("levi.generate", _generate, family, seed)
    result = call("levi.verify", verify_theorem, pi)
    return (None if result.agree else "disagree"), pi


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------

_EXPECTED_EXIT = {"valid": 0, "invalid": 1, "malformed": 2, "bool": 2}


class CliBatch:
    """The cli-batch op over a pool of instance files written to ``workdir``."""

    def __init__(self, docs: list[dict], workdir: Path) -> None:
        self.docs = docs
        self.paths = []
        for index, doc in enumerate(docs):
            path = workdir / f"doc{index:04d}.json"
            path.write_text(doc["text"])
            self.paths.append(str(path))

    def op(self, item, call):
        index, cmd = item
        doc = self.docs[index]
        text = doc["text"]
        category = doc["category"]
        cause = None
        try:
            inst = call("instances.parse", parse_instance, text)
        except ParseError:
            inst = None
        if category == "bool" and inst is not None:
            cause = "bool_accepted"
        elif category == "malformed" and inst is not None:
            cause = "parse"
        elif category in ("valid", "invalid"):
            if inst is None:
                cause = "parse"
            elif call("instances.serialize", serialize_instance, inst) != text:
                cause = "round_trip"

        argv = [cmd, self.paths[index], "--json"]
        name = f"cli.{cmd}"
        if cmd == "rgroup":
            argv.insert(1, "--oracle")
            if doc["unitary"]:
                name = "cli.rgroup_unitary"
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = call(name, cli_main, argv)
        bound_exit = cmd == "rgroup" and code == 1 and _is_bound_error(err.getvalue())
        info = (len(text), bound_exit)
        if cause is not None:
            return cause, info
        expected = _EXPECTED_EXIT[category]
        if code != expected:
            return ("oracle_bound" if bound_exit and expected == 0 else "exit_code"), info
        if expected == 0 and not _output_ok(cmd, doc, out.getvalue()):
            return "output", info
        return None, info


def _is_bound_error(stderr: str) -> bool:
    return "exceeds the bound" in stderr or "above the cap" in stderr


def _output_ok(cmd: str, doc: dict, stdout: str) -> bool:
    """Check a successful command's JSON output against the document."""
    out = json.loads(stdout)
    results = out.pop("results")
    if out != json.loads(doc["text"]):
        return False
    rank = doc["rank"]
    if cmd == "validate":
        return results["valid"] is True
    if cmd == "rgroup":
        ranks = {results["ks_rank"], results["arthur_rank"], results["oracle_rank"]}
        return results["agree"] is True and len(ranks) == 1 and rank in (None, *ranks)
    if doc["unitary"]:
        found = results["rank"]
    else:
        found = results["d"]
        if found != len(results["buckets"]["same-type-even"]):
            return False
    return rank is None or found == rank


# ---------------------------------------------------------------------------
# Work counts for the traced run
# ---------------------------------------------------------------------------


def oracle_key(desc: CentralizerDescriptor):
    """What a memo of the oracle would key on: the ordered factors as
    (kind, size, source_dim mod 2) plus the constraint."""
    return (
        tuple((f.kind.value, f.size, f.source_dim % 2) for f in desc.factors),
        desc.det_constraint,
    )


def oracle_candidates(desc: CentralizerDescriptor) -> int:
    """Elements the oracle enumerates: the product of the factor Weyl-group
    orders under a live constraint, their sum for split descriptors."""
    orders = [weyl_of_factor(f.kind, f.size)[0].order for f in desc.factors]
    if desc.has_live_constraint:
        out = 1
        for order in orders:
            out *= order
        return out
    return sum(orders)


class Counts:
    """Work counts gathered from op results in the traced run."""

    def __init__(self) -> None:
        self.sums: dict[str, float] = {}
        self.samples: dict[str, int] = {}
        self.oracle_calls = 0
        self.oracle_repeats = 0
        self.oracle_skips = 0
        self.bound_exits = 0
        self._seen: set = set()

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0) + value
        self.samples[name] = self.samples.get(name, 0) + 1

    def mean(self, name: str) -> float:
        return self.sums[name] / self.samples[name] if self.samples.get(name) else 0.0

    def oracle(self, desc: CentralizerDescriptor, skipped: bool) -> None:
        key = oracle_key(desc)
        self.oracle_calls += 1
        self.oracle_repeats += key in self._seen
        self.oracle_skips += skipped
        self._seen.add(key)
        self.add("weyl.torus_degree", sum(torus_degree(f) for f in desc.factors))
        self.add("weyl.candidates", oracle_candidates(desc))
        self.add("centralizer.factors", len(desc.factors))

    def observe(self, workload: str, info) -> None:
        if info is None:
            return
        if workload in ("exhaustive-oracle", "oracle-constrained"):
            entries, desc, skipped = info
            if entries is not None:
                self.add("params.entries", entries)
            self.oracle(desc, skipped)
        elif workload == "fuzz-verify":
            self.add("levi.deltas", len(info.deltas))
        else:
            doc_bytes, bound_exit = info
            self.add("instances.doc_bytes", doc_bytes)
            self.bound_exits += bound_exit
