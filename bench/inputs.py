"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and returns plain data: entry
templates, fuzz seeds and instance-file text.  Nothing here imports
``rgroups``, so the inputs of a seed stay the same when the program
changes, and expected answers are worked out from the construction,
not by the code under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

FAMILIES = ("sp", "so-odd", "o-even")

# Duality type of the dual group's standard representation, per family.
DUAL_TYPE = {"sp": "orthogonal", "so-odd": "symplectic", "o-even": "orthogonal"}
OPPOSITE = {"orthogonal": "symplectic", "symplectic": "orthogonal"}

# Criterion 2's bounds: at most 4 canonical entries, multiplicity at most 4,
# summand dimension at most 5.
MAX_ENTRIES = 4
MAX_DIM = 5
MAX_MULT = 4

GOLDEN = 0.6180339887498949


# ---------------------------------------------------------------------------
# The exhaustive parameter set of criterion 2
# ---------------------------------------------------------------------------


def entry_alphabet(family: str) -> list[tuple[str, int, int]]:
    """Entry templates (kind, summand dim, multiplicity) allowed in a family.

    ``pair`` is a non-self-dual pair, ``same`` a summand of the dual group's
    type and ``opp`` one of the opposite type.  Symplectic-type summands
    need even dimension; opposite-type entries need even multiplicity.
    """
    dual = DUAL_TYPE[family]
    opp = OPPOSITE[dual]
    dims = range(1, MAX_DIM + 1)
    mults = range(1, MAX_MULT + 1)
    out = [("pair", d, m) for d in dims for m in mults]
    out += [("same", d, m) for d in dims if dual == "orthogonal" or d % 2 == 0 for m in mults]
    out += [
        ("opp", d, m)
        for d in dims
        if opp == "orthogonal" or d % 2 == 0
        for m in range(2, MAX_MULT + 1, 2)
    ]
    return out


def combo_dimension(combo) -> int:
    return sum((2 if kind == "pair" else 1) * dim * mult for kind, dim, mult in combo)


def group_rank(family: str, total: int) -> int | None:
    """Rank of the family's group whose dual has dimension ``total``."""
    if family == "sp":
        return (total - 1) // 2 if total % 2 else None
    return total // 2 if total % 2 == 0 and total >= 2 else None


def exhaustive_templates(family: str) -> list[tuple[tuple[str, int, int], ...]]:
    """Every valid parameter of criterion 2's set, as a tuple of entry
    templates; realizing entry i with label ``s<i>`` gives the parameter."""
    alphabet = entry_alphabet(family)
    out = []
    for size in range(1, MAX_ENTRIES + 1):
        for combo in combinations_with_replacement(alphabet, size):
            if group_rank(family, combo_dimension(combo)) is not None:
                out.append(combo)
    return out


def expected_rank(combo) -> int:
    """Closed-form R-group rank: same-type entries of even multiplicity."""
    return sum(1 for kind, _, mult in combo if kind == "same" and mult % 2 == 0)


@lru_cache(maxsize=None)
def weyl_order(kind: str, size: int) -> int:
    """Order of the Weyl group of GL(m), Sp(m) or O(m)."""
    if kind == "GL":
        return factorial(size)
    k = size // 2
    return (1 << k) * factorial(k)


def factor_kind(kind: str, family: str) -> str:
    if kind == "pair":
        return "GL"
    duality = DUAL_TYPE[family] if kind == "same" else OPPOSITE[DUAL_TYPE[family]]
    return "O" if duality == "orthogonal" else "Sp"


def candidate_count(combo, family: str, constrained: bool) -> int:
    """How many Weyl elements the oracle enumerates: the product of the
    factor orders under a live determinant condition, their sum otherwise."""
    orders = [weyl_order(factor_kind(kind, family), mult) for kind, _, mult in combo]
    if constrained:
        out = 1
        for o in orders:
            out *= o
        return out
    return sum(orders)


def stratified_stream(population: list, cost, rng: random.Random) -> list:
    """The population in an order whose every prefix is spread evenly over
    the cost ranking.

    Items are ranked by ``cost`` (ties broken at random) and then visited
    in the order of the golden-ratio sequence over their rank, shifted by a
    random offset.  Two seeds pick different items, yet the prefix a run
    consumes holds nearly the same mix of cheap and expensive items, so a
    heavy-tailed cost does not make the figures depend on luck.
    """
    ranked = sorted(population, key=lambda item: (cost(item), rng.random()))
    shift = rng.random()
    order = sorted(range(len(ranked)), key=lambda p: (p * GOLDEN + shift) % 1.0)
    return [ranked[p] for p in order]


def exhaustive_stream(seed: int) -> list:
    """``exhaustive-oracle``: criterion 2's set over all three families."""
    rng = random.Random(f"exhaustive-oracle/{seed}")
    population = [(f, combo) for f in FAMILIES for combo in exhaustive_templates(f)]
    # The oracle sees resolved descriptors here: every factor splits off.
    return stratified_stream(
        population,
        lambda item: (candidate_count(item[1], item[0], False), len(item[1])),
        rng,
    )


def constrained_stream(seed: int) -> list:
    """``oracle-constrained``: criterion 2's sp parameters, each of which
    has a live determinant condition on its unresolved descriptor."""
    rng = random.Random(f"oracle-constrained/{seed}")
    return stratified_stream(
        exhaustive_templates("sp"),
        lambda combo: candidate_count(combo, "sp", True),
        rng,
    )


def fuzz_stream(seed: int, length: int = 400_000) -> list:
    """``fuzz-verify``: (family, fuzz seed), the three families interleaved."""
    base = seed * 1_000_000
    return [(FAMILIES[i % 3], base + i // 3) for i in range(length)]


# ---------------------------------------------------------------------------
# Instance documents for cli-batch
# ---------------------------------------------------------------------------

COMMANDS = ("validate", "rgroup", "explain")

# Failure causes that are known defects of the program, not of the
# benchmark: ``rgroup --oracle`` exits 1 on a valid instance whose torus
# degree exceeds the oracle's bound, and JSON booleans are accepted in
# integer fields.  They count as failed ops.
KNOWN_DEFECTS = ("oracle_bound", "bool_accepted")


def _tensor_type(rho_type: str, a: int) -> str:
    sl2 = "orthogonal" if a % 2 else "symplectic"
    return "orthogonal" if rho_type == sl2 else "symplectic"


def _canonical_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


class _Labels:
    def __init__(self) -> None:
        self.count = 0

    def next(self) -> str:
        self.count += 1
        return f"g{self.count:03d}"


def _self_dual_rho(rng: random.Random, labels: _Labels) -> tuple[str, int, str]:
    duality = rng.choice(("orthogonal", "symplectic"))
    dim = 2 * rng.randint(1, 2) if duality == "symplectic" else rng.randint(1, 4)
    return labels.next(), dim, duality


def _segment(rng: random.Random, rho_type: str, dual: str, same: bool) -> int:
    choices = [a for a in range(1, 6) if (_tensor_type(rho_type, a) == dual) == same]
    return rng.choice(choices)


def classical_document(family: str, rng: random.Random) -> tuple[dict, int]:
    """A valid classical instance and its Knapp-Stein rank.

    Draws residual Jordan blocks of the dual group's type, then up to five
    delta factors across the four buckets: dual pairs, Jordan blocks,
    same-type non-blocks (the only ones that count) and opposite-type
    summands.  Mirrors the bounds of the package fuzzer.
    """
    dual = DUAL_TYPE[family]
    while True:
        labels = _Labels()
        symbols: dict[str, dict] = {}
        blocks: list[tuple[str, int]] = []
        for _ in range(rng.randint(0, 3)):
            if blocks and rng.random() < 0.3:
                label, base_a = rng.choice(blocks)
                choices = [a for a in range(1, 6) if a % 2 == base_a % 2]
                a = rng.choice(choices)
            else:
                label, dim, duality = _self_dual_rho(rng, labels)
                symbols[label] = {"dim": dim, "duality": duality}
                a = _segment(rng, duality, dual, same=True)
            if (label, a) not in blocks:
                blocks.append((label, a))
        total = sum(symbols[label]["dim"] * a for label, a in blocks)
        if total % 2 != (1 if family == "sp" else 0):
            label = labels.next()
            symbols[label] = {"dim": 1, "duality": "orthogonal"}
            blocks.append((label, 1))
            total += 1
        rank = (total - 1) // 2 if family == "sp" else total // 2
        if family == "o-even" and rank == 1:
            continue  # O(2, F) has no discrete series
        break

    deltas: list[tuple[str, int, int]] = []
    ks_rank = 0
    for _ in range(rng.randint(0, 5)):
        kind = rng.choice(("pair", "member", "same", "opposite"))
        if kind == "pair":
            label = labels.next()
            dim = rng.randint(1, 4)
            symbols[label] = {"dim": dim, "duality": "not-self-dual", "dual": label + "t"}
            symbols[label + "t"] = {"dim": dim, "duality": "not-self-dual", "dual": label}
            key = (label, rng.randint(1, 5))
        elif kind == "member":
            unused = [b for b in blocks if b not in {(d[0], d[1]) for d in deltas}]
            if not unused:
                continue
            key = rng.choice(unused)
        else:
            label, dim, duality = _self_dual_rho(rng, labels)
            symbols[label] = {"dim": dim, "duality": duality}
            key = (label, _segment(rng, duality, dual, same=kind == "same"))
            ks_rank += kind == "same"
        deltas.append((key[0], key[1], rng.randint(1, 3)))

    doc = {
        "format_version": "1",
        "family": family,
        "symbols": {k: symbols[k] for k in sorted(symbols)},
        "sigma": {"rank": rank, "blocks": [[l, a] for l, a in sorted(blocks)]},
        "deltas": [{"rho": l, "a": a, "mult": m} for l, a, m in sorted(deltas)],
    }
    return doc, ks_rank


def _unitary_symbol(dim: int, lam: int | None, dual: str | None = None) -> dict:
    if lam is None:
        return {"dim": dim, "duality": "not-conjugate-self-dual", "dual": dual}
    return {"dim": dim, "duality": "conjugate-self-dual", "lambda": lam}


def unitary_cases() -> list[tuple[dict, int]]:
    """Criterion 5's case space as instance documents with their rank.

    Maximal Levi subgroups Res GL x U(rank): both signs, a up to 6, delta
    dimension 1 or 2 and ambient rank up to 12; the delta is a conjugate
    dual pair, a conjugate-self-dual non-block, or a block of sigma.  The
    rank is 1 exactly for a non-block whose twisted sign lam*(-1)^(a+1)
    equals (-1)^(rank+1).
    """
    cases = []
    for lam in (1, -1):
        for a in range(1, 7):
            for d in (1, 2):
                for rank in range(0, 13):
                    if rank + 2 * d * a > 12:
                        continue
                    twisted = lam * (1 if a % 2 else -1)
                    fits = twisted == (1 if (rank + 1) % 2 == 0 else -1)
                    pair = {"z": _unitary_symbol(d, None, "zt"), "zt": _unitary_symbol(d, None, "z")}
                    cases.append(_unitary_doc(rank, pair, a, None, 0))
                    cases.append(_unitary_doc(rank, {"z": _unitary_symbol(d, lam)}, a, None, int(fits)))
                    if d * a <= rank and fits:
                        cases.append(_unitary_doc(rank, {"z": _unitary_symbol(d, lam)}, a, ("z", a, d * a), 0))
    return cases


def _unitary_doc(rank: int, delta_symbols: dict, a: int, member, ks_rank: int) -> tuple[dict, int]:
    symbols = dict(delta_symbols)
    blocks = []
    used = 0
    if member is not None:
        blocks.append([member[0], member[1]])
        used = member[2]
    filler_lam = 1 if (rank + 1) % 2 == 0 else -1
    for i in range(rank - used):
        symbols[f"f{i}"] = _unitary_symbol(1, filler_lam)
        blocks.append([f"f{i}", 1])
    doc = {
        "format_version": "1",
        "family": "unitary",
        "symbols": {k: symbols[k] for k in sorted(symbols)},
        "sigma": {"rank": rank, "blocks": sorted(blocks)},
        "deltas": [{"rho": "z", "a": a, "mult": 1}],
    }
    return doc, ks_rank


def _bool_variant(doc: dict, rng: random.Random) -> dict | None:
    """The document with one integer field equal to 1 written as ``true``."""
    doc = json.loads(json.dumps(doc))
    spots = [("symbol", k) for k, s in doc["symbols"].items() if s["dim"] == 1]
    spots += [("block", i) for i, b in enumerate(doc["sigma"]["blocks"]) if b[1] == 1]
    spots += [("delta-a", i) for i, d in enumerate(doc["deltas"]) if d["a"] == 1]
    spots += [("delta-mult", i) for i, d in enumerate(doc["deltas"]) if d["mult"] == 1]
    if not spots:
        return None
    where, key = rng.choice(spots)
    if where == "symbol":
        doc["symbols"][key]["dim"] = True
    elif where == "block":
        doc["sigma"]["blocks"][key][1] = True
    elif where == "delta-a":
        doc["deltas"][key]["a"] = True
    else:
        doc["deltas"][key]["mult"] = True
    return doc


def _malformed_text(doc: dict, variant: int) -> str:
    """Text that does not denote an instance; must exit 2 on every command."""
    doc = json.loads(json.dumps(doc))
    first_symbol = next(iter(doc["symbols"]))
    if variant == 0:
        return _canonical_text(doc)[:-12]
    if variant == 1:
        return _canonical_text([doc])
    if variant == 2:
        doc["format_version"] = "2"
    elif variant == 3:
        doc["family"] = "gl"
    elif variant == 4:
        doc["extra"] = 1
    elif variant == 5:
        doc["symbols"][first_symbol]["dim"] = str(doc["symbols"][first_symbol]["dim"])
    elif variant == 6:
        doc["symbols"][first_symbol]["dim"] = 0
    elif variant == 7:
        doc["sigma"]["blocks"].append(["nosuch", 1])
    elif variant == 8:
        doc["deltas"].append({"rho": first_symbol, "a": 0, "mult": 1})
    elif variant == 9:
        doc["deltas"].append({"rho": first_symbol, "a": 1, "mult": "1"})
    elif variant == 10:
        doc["symbols"][first_symbol]["duality"] = "self-dual"
    else:
        del doc["sigma"]
    return _canonical_text(doc)


MALFORMED_VARIANTS = 12


def cli_documents(seed: int, corpus_dir: Path) -> list[dict]:
    """The cli-batch document pool of a seed, each with its expectation.

    Each entry has ``text``, ``category`` (valid, invalid, malformed or
    bool), ``unitary`` and, for valid documents, the Knapp-Stein ``rank``
    (``None`` for corpus files, whose rank the benchmark does not know).
    Valid and invalid documents are canonical, so ``serialize(parse(text))``
    must give ``text`` back.
    """
    rng = random.Random(f"cli-batch/{seed}")
    docs: list[dict] = []

    def add(text: str, category: str, unitary: bool, rank: int | None = None) -> None:
        docs.append({"text": text, "category": category, "unitary": unitary, "rank": rank})

    classical = []
    for i in range(180):
        doc, rank = classical_document(FAMILIES[i % 3], rng)
        classical.append(doc)
        add(_canonical_text(doc), "valid", False, rank)
    unitary = rng.sample(unitary_cases(), 40)
    for doc, rank in unitary:
        add(_canonical_text(doc), "valid", True, rank)
    for path in sorted(corpus_dir.glob("*.json")):
        valid = path.name.endswith("-valid.json")
        add(path.read_text(), "valid" if valid else "invalid", path.name.startswith("unitary"))

    # Domain violations: the sigma rank does not fit the blocks, or a delta
    # factor is repeated.
    for doc in rng.sample(classical, 20) + [d for d, _ in rng.sample(unitary, 5)]:
        bad = json.loads(json.dumps(doc))
        bad["sigma"]["rank"] += 1
        add(_canonical_text(bad), "invalid", bad["family"] == "unitary")
    with_deltas = [d for d in classical if d["deltas"]]
    for doc in rng.sample(with_deltas, 5):
        bad = json.loads(json.dumps(doc))
        bad["deltas"].insert(0, dict(bad["deltas"][0]))
        add(_canonical_text(bad), "invalid", False)

    for variant in range(MALFORMED_VARIANTS):
        for doc in rng.sample(with_deltas, 2):
            add(_malformed_text(doc, variant), "malformed", False)

    bool_docs = 0
    while bool_docs < 18:
        base = rng.choice(classical + [d for d, _ in unitary])
        variant = _bool_variant(base, rng)
        if variant is not None:
            add(_canonical_text(variant), "bool", base["family"] == "unitary")
            bool_docs += 1
    return docs


def cli_stream(seed: int, docs: list[dict]) -> list[tuple[int, str]]:
    """``cli-batch``: every (document, command) pair in a seeded order."""
    rng = random.Random(f"cli-batch-order/{seed}")
    pairs = [(i, cmd) for i in range(len(docs)) for cmd in COMMANDS]
    rng.shuffle(pairs)
    return pairs


def cold_files(seed: int, corpus_dir: Path, count: int) -> list[Path]:
    """The committed corpus's valid files in a seeded rotation."""
    rng = random.Random(f"cold/{seed}")
    files = sorted(corpus_dir.glob("*-valid.json"))
    out: list[Path] = []
    while len(out) < count:
        rng.shuffle(files)
        out.extend(files)
    return out[:count]


def digest(*parts) -> str:
    """Short SHA-256 of the inputs, recorded with every result."""
    text = json.dumps(parts, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
