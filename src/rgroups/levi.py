"""Both R-groups of a discrete series of a standard Levi subgroup.

A discrete series pi of a standard Levi GL(n_1) x ... x GL(n_r) x G_m is
given by segment data delta_i = delta(rho_i, a_i) with multiplicities and
a residual discrete series sigma described by its Jordan blocks.  Two
independent computations are provided: the Knapp-Stein rank counts the
inequivalent self-dual delta_i that induce reducibly against sigma, and
the Arthur rank assembles the parameter of pi and reads the rank off its
classification.  The package's central claim is that the two always
agree; ``verify_theorem`` checks one instance and ``random_instance``
feeds the fuzz harness.

For U(m) the same code runs on conjugate-self-dual data, under the same
delta rules: any number of delta factors of any multiplicity, each
Res GL_k(E) block adding 2k to the ambient rank.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import count

from .centralizer import ElementaryTwoGroup, arthur_r_group, rank_group
from .errors import BoundsInfeasible, InvalidInducingData
from .jordan import JordanData, _symbol_violations, validate_jordan
from .params import _NOT_SELF_DUAL, _ORTHOGONAL, _SP_FAMILY, _SYMPLECTIC, _UNITARY
from .params import (
    CuspidalSymbol,
    DualityType,
    Family,
    GroupSpec,
    Parameter,
    Summand,
    canonicalize,
)
from .validation import ValidationReport, Value, Violation, report, slot_setters


class DeltaFactor(Value):
    """A segment factor delta(rho, a) occurring ``multiplicity`` times."""

    __slots__ = __match_args__ = ("summand", "multiplicity")

    def __init__(self, summand: Summand, multiplicity: int) -> None:
        if multiplicity < 1:
            raise ValueError(f"multiplicity must be positive, got {multiplicity}")
        _set_delta_summand(self, summand)
        _set_delta_multiplicity(self, multiplicity)


_set_delta_summand, _set_delta_multiplicity = slot_setters(DeltaFactor)


class InducingData(Value):
    """The inducing datum: delta factors plus residual Jordan data."""

    __match_args__ = ("deltas", "sigma")
    __slots__ = (*__match_args__, "_report")
    # The report of `validate_inducing`, outside the value (see `Value`).
    _report: ValidationReport | None

    def __init__(self, deltas: tuple[DeltaFactor, ...], sigma: JordanData) -> None:
        _set_inducing_deltas(self, deltas)
        _set_inducing_sigma(self, sigma)
        _set_inducing_report(self, None)

    def ambient_group(self) -> GroupSpec:
        """GL(k) adds k to the rank of G_m; Res GL_k(E) adds 2k to U(m)."""
        group = self.sigma.group
        gl_rank = 0
        for d in self.deltas:
            gl_rank += d.summand.dim * d.multiplicity
        if group.family is _UNITARY:
            gl_rank *= 2
        return GroupSpec(group.family, group.rank + gl_rank)


_set_inducing_deltas, _set_inducing_sigma, _set_inducing_report = slot_setters(InducingData)


def _delta_rules(pi: InducingData) -> ValidationReport:
    """The delta-level rules: equivalent delta factors must be merged; a
    delta's symbol must be conjugate exactly for U(m), and its sign usable."""
    unitary = pi.sigma.group.family is _UNITARY
    violations = []
    seen: set[tuple[str, int]] = set()
    for d in pi.deltas:
        key = d.summand.sort_key()
        if key in seen:
            violations.append(
                Violation(
                    "repeated-delta",
                    f"delta factor {d.summand.describe()} appears twice;"
                    " equivalent factors must be merged into one multiplicity",
                )
            )
        seen.add(key)
        rho = d.summand.rho
        if rho.conjugate != unitary or not rho.lambda_matches:
            subject = f"delta symbol {rho.label!r}"
            violations += _symbol_violations(rho, pi.sigma.group.family, subject)
    return report(violations)


def validate_inducing(pi: InducingData) -> ValidationReport:
    """Report violations: invalid residual data or delta factors.  Run
    once and kept on ``pi``."""
    if pi._report is None:
        _set_inducing_report(pi, validate_jordan(pi.sigma) + _delta_rules(pi))
    return pi._report


def knapp_stein_r_group(pi: InducingData) -> ElementaryTwoGroup:
    """Knapp-Stein R-group rank from reducibility counts.

    Counts the delta factors with self-dual rho that induce reducibly
    against sigma.  Non-self-dual factors never count, and multiplicities
    are irrelevant.
    """
    validate_inducing(pi).require(InvalidInducingData, "knapp_stein_r_group")
    return rank_group(_witness(pi)[1])


def parameter_of_induced(pi: InducingData) -> Parameter:
    """Assemble the parameter of the induced representation.

    Each non-self-dual delta contributes its dual pair at its
    multiplicity; each self-dual delta contributes twice its multiplicity;
    the residual blocks contribute once each.  A self-dual delta that is
    itself a Jordan block merges to total multiplicity 2m + 1.
    """
    raw: list[tuple[Summand, int]] = []
    for d in pi.deltas:
        if d.summand.self_dual:
            raw.append((d.summand, 2 * d.multiplicity))
        else:
            raw.append((d.summand, d.multiplicity))
            raw.append((d.summand.dual_partner(), d.multiplicity))
    for block in pi.sigma.blocks:
        raw.append((block, 1))
    return canonicalize(raw)


class WitnessRow(Value):
    """Per-delta breakdown of the Knapp-Stein count."""

    __slots__ = __match_args__ = (
        "summand", "multiplicity", "self_dual", "same_type", "in_jordan", "counted"
    )

    def __init__(
        self, summand: Summand, multiplicity: int, self_dual: bool,
        same_type: bool, in_jordan: bool, counted: bool,
    ) -> None:
        _set_row_summand(self, summand)
        _set_row_multiplicity(self, multiplicity)
        _set_row_self_dual(self, self_dual)
        _set_row_same_type(self, same_type)
        _set_row_in_jordan(self, in_jordan)
        _set_row_counted(self, counted)


(_set_row_summand, _set_row_multiplicity, _set_row_self_dual, _set_row_same_type,
 _set_row_in_jordan, _set_row_counted) = slot_setters(WitnessRow)


class VerificationResult(Value):
    """Both ranks of one inducing datum and the witness rows of the count."""

    __slots__ = __match_args__ = ("ks_rank", "arthur_rank", "witness")

    def __init__(self, ks_rank: int, arthur_rank: int, witness: tuple[WitnessRow, ...]) -> None:
        _set_result_ks_rank(self, ks_rank)
        _set_result_arthur_rank(self, arthur_rank)
        _set_result_witness(self, witness)

    @property
    def agree(self) -> bool:
        return self.ks_rank == self.arthur_rank


(_set_result_ks_rank, _set_result_arthur_rank,
 _set_result_witness) = slot_setters(VerificationResult)


def verify_theorem(pi: InducingData) -> VerificationResult:
    """Run both R-group computations independently and compare."""
    validate_inducing(pi).require(InvalidInducingData, "verify_theorem")
    return _verify(pi, parameter_of_induced(pi))


def _verify(pi: InducingData, phi: Parameter) -> VerificationResult:
    """:func:`verify_theorem` for validated ``pi`` whose induced parameter
    ``phi`` is already assembled."""
    rows, ks = _witness(pi)
    arthur = arthur_r_group(phi, pi.ambient_group())
    return VerificationResult(ks, arthur.rank, rows)


def _witness(pi: InducingData) -> tuple[tuple[WitnessRow, ...], int]:
    """Witness rows of validated ``pi`` and the Knapp-Stein count: a delta
    induces reducibly iff it has the dual group's type (never true when
    not self-dual) and is not a Jordan block."""
    blocks, dual_type = pi.sigma.blocks, pi.sigma.group.dual_type
    rows, ks = [], 0
    for d in pi.deltas:
        summand = d.summand
        same_type = summand.duality is dual_type
        in_jordan = summand in blocks
        counted = same_type and not in_jordan
        ks += counted
        row = WitnessRow(summand, d.multiplicity, summand.self_dual, same_type, in_jordan, counted)
        rows.append(row)
    return tuple(rows), ks


class FuzzBounds(Value):
    """Bounds of :func:`random_instance`'s draws, in a classical family."""

    __slots__ = __match_args__ = ("max_deltas", "max_dim", "max_a", "max_mult", "family")

    def __init__(
        self, max_deltas: int = 5, max_dim: int = 4, max_a: int = 5, max_mult: int = 3,
        family: Family = _SP_FAMILY,
    ) -> None:
        if family is _UNITARY:
            raise ValueError("the fuzzer covers the three classical families")
        if min(max_dim, max_a, max_mult) < 1 or max_deltas < 0:
            raise BoundsInfeasible("bounds must be positive")
        _set_bounds_max_deltas(self, max_deltas)
        _set_bounds_max_dim(self, max_dim)
        _set_bounds_max_a(self, max_a)
        _set_bounds_max_mult(self, max_mult)
        _set_bounds_family(self, family)


(_set_bounds_max_deltas, _set_bounds_max_dim, _set_bounds_max_a, _set_bounds_max_mult,
 _set_bounds_family) = slot_setters(FuzzBounds)


_MAX_ATTEMPTS = 200


def _draw_self_dual_type(rng: random.Random, bounds: FuzzBounds) -> DualityType:
    # 1-dimensional symplectic symbols do not exist, so respect max_dim.
    if bounds.max_dim < 2:
        return _ORTHOGONAL
    return rng.choice((_ORTHOGONAL, _SYMPLECTIC))


def _draw_dim(rng: random.Random, duality: DualityType, bounds: FuzzBounds) -> int:
    if duality is _SYMPLECTIC:
        return 2 * rng.randint(1, bounds.max_dim // 2)
    return rng.randint(1, bounds.max_dim)


def _draw_a(rng: random.Random, parity: int, bounds: FuzzBounds) -> int | None:
    """A segment length of the requested parity within bounds, or None.
    ``choice`` reads only ``len`` and one item, so a range draws as a list."""
    choices = range(2 - parity, bounds.max_a + 1, 2)
    return rng.choice(choices) if choices else None


def _block_parity(duality: DualityType, dual_type: DualityType, same_type: bool) -> int:
    """Parity of a that makes rho (x) S_a match (or miss) ``dual_type``."""
    return int((duality is dual_type) == same_type)


# A classical family's dual type, the same at every rank.
_DUAL_TYPE = {f: GroupSpec(f, 1).dual_type for f in Family if f is not _UNITARY}


def _draw_jordan(
    rng: random.Random, bounds: FuzzBounds, fresh: Iterator[str]
) -> JordanData | None:
    """Propose residual Jordan data; None when the draw came out invalid."""
    family = bounds.family
    dual_type = _DUAL_TYPE[family]
    blocks: list[Summand] = []
    for _ in range(rng.randint(0, 3)):
        reuse = blocks and rng.random() < 0.3
        if reuse:
            base = rng.choice(blocks)
            rho = base.rho
            parity = base.a % 2
        else:
            duality = _draw_self_dual_type(rng, bounds)
            rho = CuspidalSymbol(next(fresh), _draw_dim(rng, duality, bounds), duality)
            parity = _block_parity(duality, dual_type, same_type=True)
        a = _draw_a(rng, parity, bounds)
        if a is None:
            continue
        candidate = Summand(rho, a)
        if candidate not in blocks:
            blocks.append(candidate)

    # The blocks fill the dual group's standard representation, of odd
    # dimension for Sp(2n) and of even dimension otherwise.
    total = 0
    for b in blocks:
        total += b.dim
    if total % 2 != (family is _SP_FAMILY):
        filler = CuspidalSymbol(next(fresh), 1, _ORTHOGONAL)
        blocks.append(Summand(filler, 1))
        total += 1
    sigma = JordanData(GroupSpec(family, total // 2), tuple(blocks))
    return sigma if validate_jordan(sigma).ok else None


def random_instance(seed: int, bounds: FuzzBounds = FuzzBounds()) -> InducingData:
    """Deterministically generate a valid inducing datum from a seed.

    The residual Jordan data is drawn first; delta factors are then drawn
    across all four classification buckets: non-self-dual pairs, Jordan
    blocks of sigma (irreducible inductions), same-type non-blocks
    (reducible inductions), and opposite-type factors.
    """
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        fresh = (f"g{i:03d}" for i in count(1))
        sigma = _draw_jordan(rng, bounds, fresh)
        if sigma is None:
            continue
        dual_type = sigma.group.dual_type
        deltas: list[DeltaFactor] = []
        used: set[tuple[str, int]] = set()
        for _ in range(rng.randint(0, bounds.max_deltas)):
            kind = rng.choice(("pair", "member", "same", "opposite"))
            summand: Summand | None = None
            if kind == "pair":
                dim = rng.randint(1, bounds.max_dim)
                label = next(fresh)
                rho = CuspidalSymbol(label, dim, _NOT_SELF_DUAL, dual_label=label + "t")
                summand = Summand(rho, rng.randint(1, bounds.max_a))
            elif kind == "member":
                candidates = [b for b in sigma.blocks if (b.rho.label, b.a) not in used]
                if candidates:
                    summand = rng.choice(candidates)
            else:
                same_type = kind == "same"
                duality = _draw_self_dual_type(rng, bounds)
                parity = _block_parity(duality, dual_type, same_type)
                a = _draw_a(rng, parity, bounds)
                if a is not None:
                    rho = CuspidalSymbol(
                        next(fresh), _draw_dim(rng, duality, bounds), duality
                    )
                    summand = Summand(rho, a)
            if summand is None or (key := (summand.rho.label, summand.a)) in used:
                continue
            used.add(key)
            deltas.append(DeltaFactor(summand, rng.randint(1, bounds.max_mult)))
        pi = InducingData(tuple(deltas), sigma)
        if validate_inducing(pi).ok:  # kept on pi; sigma's part is kept from _draw_jordan
            return pi
    raise BoundsInfeasible(
        f"no valid instance found within {_MAX_ATTEMPTS} attempts for {bounds}"
    )
