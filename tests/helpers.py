"""Shared builders for the test suite."""

from __future__ import annotations

import hashlib
from itertools import combinations_with_replacement
from typing import Iterator

from rgroups import (
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    JordanData,
    Parameter,
    ParameterEntry,
    Summand,
    canonicalize,
    random_instance,
    tensor_type,
    verify_theorem,
)
from rgroups.instances import _LAMBDAS, FORMAT_VERSION, Instance, serialize_instance
from rgroups.weyl import SignedPerm, SignedPermGroup, compose

CLASSICAL_FAMILIES = (
    Family.SYMPLECTIC,
    Family.ODD_ORTHOGONAL,
    Family.EVEN_ORTHOGONAL,
)


def orth(label: str, dim: int = 1) -> CuspidalSymbol:
    return CuspidalSymbol(label, dim, DualityType.ORTHOGONAL)


def sympl(label: str, dim: int = 2) -> CuspidalSymbol:
    return CuspidalSymbol(label, dim, DualityType.SYMPLECTIC)


def pair(label: str, dim: int = 1) -> CuspidalSymbol:
    return CuspidalSymbol(label, dim, DualityType.NOT_SELF_DUAL, label + "t")


def self_dual_symbol(label: str, duality: DualityType, dim: int) -> CuspidalSymbol:
    return CuspidalSymbol(label, dim, duality)


def jordan_parity_ok(rho: CuspidalSymbol, a: int, group: GroupSpec) -> bool:
    """Whether rho (x) S_a is self-dual of the dual group's type: the
    block-side parity condition, read from the symbol and ``tensor_type``
    rather than from ``Summand.duality``."""
    return rho.self_dual and tensor_type(rho.duality, a) is group.dual_type


# Unitary builders.  A conjugate-self-dual symbol of sign lambda is a
# conjugate ``CuspidalSymbol`` of type ORTHOGONAL (lambda = +1) or
# SYMPLECTIC (lambda = -1); the signs below come from the formulas
# lambda (-1)^(a+1) and (-1)^(n+1), independently of ``tensor_type``.


def parity_sign(exponent: int) -> int:
    """(-1)**exponent."""
    return -1 if exponent % 2 else 1


def twisted_sign(lam: int, a: int) -> int:
    """The sign of rho (x) S_a for rho of sign lam: lam (-1)^(a+1)."""
    return lam * parity_sign(a + 1)


def sign_condition(lam: int, a: int, n: int) -> bool:
    """Block-side sign condition for U(n): the twisted sign is (-1)^(n+1)."""
    return twisted_sign(lam, a) == parity_sign(n + 1)


def sign_of(duality: DualityType) -> int:
    """The sign a conjugate-self-dual symbol or summand of this type carries."""
    return {DualityType.ORTHOGONAL: 1, DualityType.SYMPLECTIC: -1}[duality]


def U(n: int) -> GroupSpec:
    return GroupSpec(Family.UNITARY, n)


def csd(label: str, lam: int, dim: int = 1, matches: bool = True) -> CuspidalSymbol:
    duality = DualityType.ORTHOGONAL if lam == 1 else DualityType.SYMPLECTIC
    return CuspidalSymbol(label, dim, duality, conjugate=True, lambda_matches=matches)


def ncsd(label: str, dim: int = 1) -> CuspidalSymbol:
    return CuspidalSymbol(label, dim, DualityType.NOT_SELF_DUAL, label + "t", conjugate=True)


def filler_sigma(rank: int, extra: Summand | None = None) -> JordanData:
    """Jordan data of U(rank): the optional block plus 1-dim fillers."""
    blocks = []
    used = 0
    if extra is not None:
        blocks.append(extra)
        used = extra.dim
    lam = parity_sign(rank + 1)
    for i in range(rank - used):
        blocks.append(Summand(csd(f"f{i}", lam), 1))
    return JordanData(U(rank), tuple(blocks))


def maximal_levi(delta: Summand, sigma: JordanData) -> InducingData:
    """The inducing datum of Res GL(dim delta, E) x U(sigma rank)."""
    return InducingData((DeltaFactor(delta, 1),), sigma)


def opposite_of(duality: DualityType) -> DualityType:
    if duality is DualityType.ORTHOGONAL:
        return DualityType.SYMPLECTIC
    if duality is DualityType.SYMPLECTIC:
        return DualityType.ORTHOGONAL
    raise ValueError(duality)


def entry_dimension(entry: ParameterEntry) -> int:
    """Dimension of a canonical entry, both members of a dual pair counted."""
    copies = 1 if entry.summand.self_dual else 2
    return copies * entry.multiplicity * entry.summand.dim


def total_dimension(psi: Parameter) -> int:
    return sum(map(entry_dimension, psi.entries))


def identity_element(degree: int) -> SignedPerm:
    return (tuple(range(degree)), (1,) * degree)


def invert(g: SignedPerm) -> SignedPerm:
    """Inverse of a signed permutation."""
    gp, gs = g
    inv = [0] * len(gp)
    for i, j in enumerate(gp):
        inv[j] = i
    return (tuple(inv), tuple(gs[inv[j]] for j in range(len(gp))))


def is_closed(group: SignedPermGroup) -> bool:
    """Whether the element set contains the identity and is closed under
    composition and inversion."""
    els = group.elements
    if not els:
        return False
    degree = len(next(iter(els))[0])  # every element has the group's degree
    if identity_element(degree) not in els:
        return False
    return all(compose(g, h) in els for g in els for h in els) and all(
        invert(g) in els for g in els
    )


# Whether r2, the second piece of the adjoint action in Shahidi's
# L-functions for a Levi GL x G, is Sym^2 (SO(2n+1)) rather than Lambda^2
# (Sp(2n), O(2n)).
R2_IS_SYMMETRIC_SQUARE = {
    Family.SYMPLECTIC: False,
    Family.ODD_ORTHOGONAL: True,
    Family.EVEN_ORTHOGONAL: False,
}


def pole_orders(pi: InducingData) -> list[int]:
    """For each self-dual delta = rho (x) S_a of ``pi``, the order of the
    pole at s = 0 of L(s, delta x phi_sigma) L(2s, delta, r2); delta
    induces reducibly exactly when it is 0 (Shahidi, Ann. of Math. 132,
    1990).  Classical families only.  Reads labels, a and rho's declared
    type, never a summand's duality or the product's rank-one rule.

    The Rankin-Selberg factor has a simple pole for each Jordan block
    rho' (x) S_b with rho' = rho^v (for self-dual rho, the same label) and
    b = a.  r2(rho (x) S_a) = Sym^2 rho (x) r2(S_a) + Lambda^2 rho (x)
    r2*(S_a), r2* the other square, and only an S_1 piece gives a pole at
    0: S_1 lies in Sym^2 S_a for odd a and in Lambda^2 S_a for even a.
    L(s, Sym^2 rho) has a pole exactly for orthogonal rho, L(s, Lambda^2
    rho) exactly for symplectic rho."""
    sym = R2_IS_SYMMETRIC_SQUARE[pi.sigma.group.family]
    orders = []
    for d in pi.deltas:
        rho, a = d.summand.rho, d.summand.a
        if not rho.self_dual:
            continue
        blocks = sum(b.rho.label == rho.label and b.a == a for b in pi.sigma.blocks)
        s1_in_r2 = (a % 2 == 1) == sym
        orders.append(blocks + (s1_in_r2 == (rho.duality is DualityType.ORTHOGONAL)))
    return orders


EntryTemplate = tuple[str, int, int]  # (kind, summand dim, multiplicity)


def entry_alphabet(
    family: Family, max_dim: int = 5, max_mult: int = 4
) -> list[EntryTemplate]:
    """All entry shapes (dual pair / same type / opposite type) allowed by
    the family's dual type within the given dimension and multiplicity
    bounds.  Symplectic-type summands only exist in even dimension, and
    opposite-type entries need even multiplicity."""
    dual = GroupSpec(family, 1).dual_type
    opp = opposite_of(dual)
    templates: list[EntryTemplate] = []
    for dim in range(1, max_dim + 1):
        for mult in range(1, max_mult + 1):
            templates.append(("pair", dim, mult))
    for dim in range(1, max_dim + 1):
        if dual is DualityType.SYMPLECTIC and dim % 2:
            continue
        for mult in range(1, max_mult + 1):
            templates.append(("same", dim, mult))
    for dim in range(1, max_dim + 1):
        if opp is DualityType.SYMPLECTIC and dim % 2:
            continue
        for mult in range(2, max_mult + 1, 2):
            templates.append(("opp", dim, mult))
    return templates


def realize_parameter(family: Family, combo: tuple[EntryTemplate, ...]) -> Parameter:
    """Concrete parameter for a multiset of entry templates, realized with
    fresh labels and trivial segment length a = 1."""
    dual = GroupSpec(family, 1).dual_type
    opp = opposite_of(dual)
    entries: list[tuple[Summand, int]] = []
    for idx, (kind, dim, mult) in enumerate(combo):
        label = f"s{idx}"
        if kind == "pair":
            rho = CuspidalSymbol(label, dim, DualityType.NOT_SELF_DUAL, label + "t")
            entries.append((Summand(rho, 1), mult))
            entries.append((Summand(rho.dual_partner(), 1), mult))
        else:
            rho = CuspidalSymbol(label, dim, dual if kind == "same" else opp)
            entries.append((Summand(rho, 1), mult))
    return canonicalize(entries)


def exhaustive_valid_parameters(
    family: Family,
    max_entries: int = 4,
    max_dim: int = 5,
    max_mult: int = 4,
) -> Iterator[tuple[Parameter, GroupSpec]]:
    """Every valid parameter with at most ``max_entries`` canonical
    entries, up to relabeling: the classification, centralizer and both
    R-group computations depend only on each entry's duality type,
    dimension and multiplicity, so enumerating those templates exhausts
    the semantic space."""
    templates = entry_alphabet(family, max_dim, max_mult)
    for size in range(1, max_entries + 1):
        for combo in combinations_with_replacement(templates, size):
            total = sum(
                (2 if kind == "pair" else 1) * dim * mult
                for kind, dim, mult in combo
            )
            if family is Family.SYMPLECTIC:
                if total % 2 == 0:
                    continue
                rank = (total - 1) // 2
            else:
                if total % 2 or total < 2:
                    continue
                rank = total // 2
            yield realize_parameter(family, combo), GroupSpec(family, rank)


# The fuzz criterion and the benchmark's fuzz traffic replay this stream by
# seed, so a refactor of the generator must leave every instance unchanged.
STREAM_DIGEST = "0bc1b1f2c79a23bf7d3a7984a942e06e6ff7118a24abc658e49e6f0114ff17a0"


# And what verification returns on that stream: both ranks and every
# witness row, through the result's repr.
VERIFY_DIGEST = "3ef2573e7269386a480f50bfa2e517457150a4e5ac1ac2ec6bce9f4a3ea756a3"

STREAM_BOUNDS = [FuzzBounds(family=family) for family in CLASSICAL_FAMILIES] + [
    FuzzBounds(max_deltas=0, max_dim=1, max_a=1, max_mult=1),
    FuzzBounds(max_deltas=9, max_dim=2, max_a=2, family=Family.ODD_ORTHOGONAL),
]


def stream_digest() -> str:
    """SHA-256 of the serialized instances of the pinned stream."""
    digest = hashlib.sha256()
    for b in STREAM_BOUNDS:
        for seed in range(1000):
            inst = Instance(random_instance(seed, b))
            digest.update(serialize_instance(inst).encode())
    return digest.hexdigest()


def verify_digest() -> str:
    """SHA-256 of the reprs of ``verify_theorem`` over the pinned stream."""
    digest = hashlib.sha256()
    for b in STREAM_BOUNDS:
        for seed in range(1000):
            digest.update(repr(verify_theorem(random_instance(seed, b))).encode())
    return digest.hexdigest()


# The writer's reference: the instance document as a dict, which
# ``json.dumps(doc, indent=2)`` writes as ``serialize_instance`` must
# (without its final newline).  It builds the document apart from the
# product's writer, which formats text straight from the instance, so
# the parity tests compare two independent paths.
def _symbol_doc(sym: CuspidalSymbol) -> dict:
    duality = sym.duality.value
    if sym.conjugate:
        duality = "conjugate-self-dual" if sym.self_dual else "not-conjugate-self-dual"
    doc = {"dim": sym.dim, "duality": duality}
    if sym.dual_label is not None:
        doc["dual"] = sym.dual_label
    elif sym.conjugate:
        doc["lambda"] = _LAMBDAS[sym.duality]
    if not sym.lambda_matches:
        doc["lambda_matches"] = False
    return doc


def instance_document(inst: Instance) -> dict:
    """Canonical JSON-ready dictionary for an instance: a label holds the
    symbol of its last direct use, and a dual partner only fills a gap."""
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
        "family": inst.data.sigma.group.family.value,
        "symbols": {k: symbols[k] for k in sorted(symbols)},
        "sigma": {
            "rank": inst.data.sigma.group.rank,
            "blocks": [[b.rho.label, b.a] for b in inst.data.sigma.blocks],
        },
        "deltas": [
            {"rho": d.summand.rho.label, "a": d.summand.a, "mult": d.multiplicity}
            for d in sorted(inst.data.deltas, key=lambda d: d.summand.sort_key())
        ],
    }
