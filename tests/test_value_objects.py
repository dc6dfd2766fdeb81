"""The value objects: the contract of their ``Value`` base, what their
derived attributes and kept caches leave out of ``==``, ``hash``,
``repr`` and pickling, that they stay frozen, a differential check of
the one-pass ``canonicalize`` against the two-pass version it replaced,
and the factors and rank groups shared per shape."""

import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rgroups
from rgroups import (
    CentralizerDescriptor,
    Classification,
    CuspidalSymbol,
    DeltaFactor,
    DualityType,
    ElementaryTwoGroup,
    Factor,
    FactorKind,
    Family,
    FuzzBounds,
    GroupSpec,
    InducingData,
    JordanData,
    Parameter,
    ParameterEntry,
    Summand,
    VerificationResult,
    WitnessRow,
    arthur_r_group,
    canonicalize,
    centralizer,
    classify,
    unresolved_centralizer,
    validate_jordan,
    validate_parameter,
    weyl_quotient,
)
from rgroups.centralizer import _factor, rank_group
from rgroups.errors import FrozenInstanceError, InconsistentSymbol, RGroupError, UnpairedDual
from rgroups.instances import Instance
from rgroups.levi import validate_inducing
from rgroups.params import checked
from rgroups.validation import ValidationReport, Value, Violation
from rgroups.weyl import SignedPermGroup

from helpers import orth, pair

ORTH = DualityType.ORTHOGONAL
SYMPL = DualityType.SYMPLECTIC
NSD = DualityType.NOT_SELF_DUAL


# ---------------------------------------------------------------------------
# Derived attributes and frozen slots
# ---------------------------------------------------------------------------


def _with_derived(obj, **values):
    """A copy of ``obj`` whose derived attributes are overwritten."""
    clone = type(obj)(*(getattr(obj, name) for name in obj.__match_args__))
    for name, value in values.items():
        object.__setattr__(clone, name, value)
    return clone


def test_summand_derived_attributes_stay_out_of_eq_hash_repr():
    s = Summand(orth("a", 3), 2)
    assert (s.dim, s.duality) == (6, SYMPL)
    assert repr(s) == f"Summand(rho={s.rho!r}, a=2)"
    assert hash(s) == hash((s.rho, 2))
    other = _with_derived(s, dim=99, duality=ORTH)
    assert other == s and hash(other) == hash(s) and repr(other) == repr(s)


def test_group_spec_derived_attributes_stay_out_of_eq_hash_repr():
    g = GroupSpec(Family.SYMPLECTIC, 2)
    assert (g.dual_type, g.dual_dimension) == (ORTH, 5)
    assert repr(g) == "GroupSpec(family=<Family.SYMPLECTIC: 'sp'>, rank=2)"
    assert hash(g) == hash((Family.SYMPLECTIC, 2))
    other = _with_derived(g, dual_type=SYMPL, dual_dimension=99)
    assert other == g and hash(other) == hash(g) and repr(other) == repr(g)
    assert g != GroupSpec(Family.ODD_ORTHOGONAL, 2)
    assert {g: 1}[GroupSpec(Family.SYMPLECTIC, 2)] == 1


def _slotted_instances():
    s = Summand(orth("a"), 1)
    entry = ParameterEntry(s, 2)
    factor = Factor(FactorKind.FULL_ORTHOGONAL, 2, 1)
    psi = canonicalize([(s, 2), (Summand(orth("b"), 1), 1)])
    return [
        (orth("a"), "dim"),
        (s, "a"),
        (s, "dim"),
        (s, "duality"),
        (entry, "multiplicity"),
        (GroupSpec(Family.SYMPLECTIC, 1), "rank"),
        (GroupSpec(Family.SYMPLECTIC, 1), "dual_type"),
        (GroupSpec(Family.SYMPLECTIC, 1), "dual_dimension"),
        (factor, "size"),
        (CentralizerDescriptor((factor,), None), "factors"),
        (ElementaryTwoGroup(1), "rank"),
        (classify(psi, GroupSpec(Family.SYMPLECTIC, 1)), "dual_pairs"),
        (Violation("rule", "message"), "rule"),
        (ValidationReport(()), "violations"),
    ]


@pytest.mark.parametrize(
    "obj,name", _slotted_instances(), ids=lambda v: v if isinstance(v, str) else type(v).__name__
)
def test_slotted_value_objects_stay_frozen(obj, name):
    assert not hasattr(obj, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(obj, name, getattr(obj, name))


_GL2 = Factor(FactorKind.GENERAL_LINEAR, 2, 1)
_O2 = Factor(FactorKind.FULL_ORTHOGONAL, 2, 1)
_O2_EVEN = Factor(FactorKind.FULL_ORTHOGONAL, 2, 2)
_NOT_O = "determinant constraints apply only to full orthogonal factors, not GL(2)"
_EXPONENT = "constraint exponents equal source_dim mod 2; even source dimensions are dropped"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: CuspidalSymbol("x", 0, ORTH), "dim must be positive, got 0"),
        (lambda: CuspidalSymbol("x", -1, SYMPL, "y"), "dim must be positive, got -1"),
        (lambda: CuspidalSymbol("x", 3, SYMPL), "symplectic symbol 'x' must have even dimension"),
        (
            lambda: CuspidalSymbol("x", 1, SYMPL, "y", lambda_matches=False),
            "symplectic symbol 'x' must have even dimension",
        ),
        (
            lambda: CuspidalSymbol("x", 1, ORTH, conjugate=True, lambda_matches=False),
            "the two signs agree automatically in odd dimension",
        ),
        (
            lambda: CuspidalSymbol("x", 2, ORTH, lambda_matches=False),
            "only a conjugate-self-dual symbol has a sign to match",
        ),
        (
            lambda: CuspidalSymbol("x", 2, NSD, "y", True, lambda_matches=False),
            "only a conjugate-self-dual symbol has a sign to match",
        ),
        (lambda: CuspidalSymbol("x", 1, NSD), "non-self-dual symbol 'x' needs a dual_label"),
        (lambda: CuspidalSymbol("x", 1, NSD, "x"), "symbol 'x' cannot be its own dual"),
        (
            lambda: CuspidalSymbol("x", 1, ORTH, "y"),
            "self-dual symbol 'x' must not carry a dual_label",
        ),
        (lambda: Summand(orth("x"), 0), "a must be a positive integer, got 0"),
        (lambda: Summand(orth("x"), -2), "a must be a positive integer, got -2"),
        (lambda: ParameterEntry(Summand(orth("x"), 1), 0), "multiplicity must be positive, got 0"),
        (lambda: Factor(FactorKind.SYMPLECTIC, 0, 0), "factor size must be positive, got 0"),
        (lambda: Factor(FactorKind.SYMPLECTIC, 3, 0), "source_dim must be positive, got 0"),
        (lambda: CentralizerDescriptor((_O2,), ((1, 1),)), "constraint index 1 out of range"),
        (lambda: CentralizerDescriptor((_O2,), ((-1, 1),)), "constraint index -1 out of range"),
        (lambda: CentralizerDescriptor((_O2, _GL2), ((0, 1), (1, 1))), _NOT_O),
        (lambda: CentralizerDescriptor((_O2,), ((0, 3),)), _EXPONENT),
        (lambda: CentralizerDescriptor((_O2_EVEN,), ((0, 1),)), _EXPONENT),
        (lambda: CentralizerDescriptor((_GL2,), ((0, 2), (5, 1))), _NOT_O),
    ],
)
def test_value_object_checks_keep_their_messages(build, message):
    """Each check's exact message, and which check wins when several fail."""
    with pytest.raises(ValueError) as info:
        build()
    assert type(info.value) is ValueError
    assert str(info.value) == message


_REQUIRED = inspect.Parameter.empty
_X = Summand(orth("x"), 1)
_SIGMA_ARGS = (GroupSpec(Family.SYMPLECTIC, 1), (Summand(orth("y"), 3),))
_DATUM_ARGS = ((DeltaFactor(_X, 2),), JordanData(*_SIGMA_ARGS))
_ROW_ARGS = (_X, 2, True, True, False, True)

# Per class: the arguments of one build, the ``__init__`` parameters with
# their defaults, and every slot; the first slots are the init fields.
# For every two init fields of a class, some build gives them unequal
# values, so that a store into the wrong slot shows.
_VALUES = [
    (Violation, ("rule", "message"), {"rule": _REQUIRED, "message": _REQUIRED}, ()),
    (ValidationReport, ((Violation("r", "m"),),), {"violations": ()}, ()),
    (
        GroupSpec, (Family.UNITARY, 3), {"family": _REQUIRED, "rank": _REQUIRED},
        ("dual_type", "dual_dimension"),
    ),
    *(
        (
            CuspidalSymbol, args,
            {"label": _REQUIRED, "dim": _REQUIRED, "duality": _REQUIRED,
             "dual_label": None, "conjugate": False, "lambda_matches": True},
            (),
        )
        for args in (("p", 3, NSD, "q", True), ("u", 2, SYMPL, None, True, False))
    ),
    (Summand, (orth("x", 2), 3), {"rho": _REQUIRED, "a": _REQUIRED}, ("dim", "duality")),
    (ParameterEntry, (_X, 3), {"summand": _REQUIRED, "multiplicity": _REQUIRED}, ()),
    (
        Parameter, ((ParameterEntry(_X, 2), ParameterEntry(Summand(orth("z"), 1), 1)),),
        {"entries": _REQUIRED}, ("_checked",),
    ),
    (
        Classification,
        (
            (), (ParameterEntry(Summand(orth("x"), 2), 2),), (ParameterEntry(_X, 1),),
            (ParameterEntry(Summand(orth("y"), 1), 2),),
        ),
        {"dual_pairs": _REQUIRED, "opposite_type": _REQUIRED,
         "same_type_odd_mult": _REQUIRED, "same_type_even_mult": _REQUIRED},
        (),
    ),
    (
        Factor, (FactorKind.SYMPLECTIC, 4, 3),
        {"kind": _REQUIRED, "size": _REQUIRED, "source_dim": _REQUIRED}, (),
    ),
    (
        CentralizerDescriptor, ((_GL2, _O2), ((1, 1),)),
        {"factors": _REQUIRED, "det_constraint": None}, (),
    ),
    (ElementaryTwoGroup, (2,), {"rank": _REQUIRED}, ()),
    (JordanData, _SIGMA_ARGS, {"group": _REQUIRED, "blocks": _REQUIRED}, ("_report",)),
    (DeltaFactor, (_X, 2), {"summand": _REQUIRED, "multiplicity": _REQUIRED}, ()),
    (InducingData, _DATUM_ARGS, {"deltas": _REQUIRED, "sigma": _REQUIRED}, ("_report",)),
    *(
        (
            WitnessRow, args,
            {"summand": _REQUIRED, "multiplicity": _REQUIRED, "self_dual": _REQUIRED,
             "same_type": _REQUIRED, "in_jordan": _REQUIRED, "counted": _REQUIRED},
            (),
        )
        for args in (
            _ROW_ARGS, (_X, 1, True, False, False, False), (_X, 3, False, True, False, False)
        )
    ),
    (
        VerificationResult, (1, 0, (WitnessRow(*_ROW_ARGS),)),
        {"ks_rank": _REQUIRED, "arthur_rank": _REQUIRED, "witness": _REQUIRED}, (),
    ),
    (
        FuzzBounds, (3, 2, 4, 1, Family.ODD_ORTHOGONAL),
        {"max_deltas": 5, "max_dim": 4, "max_a": 5, "max_mult": 3, "family": Family.SYMPLECTIC},
        (),
    ),
    (
        SignedPermGroup, (frozenset({((0,), (1,)), ((0,), (-1,))}),),
        {"elements": _REQUIRED}, (),
    ),
    (
        Instance, (InducingData(*_DATUM_ARGS),),
        {"data": _REQUIRED}, (),
    ),
]


@pytest.mark.parametrize(
    "cls,args,params,extra", _VALUES, ids=[cls.__name__ for cls, *_ in _VALUES]
)
def test_hand_written_inits_match_their_fields(cls, args, params, extra):
    """Each value object takes its init fields in order, with the
    defaults, in one ``__init__`` that stores every slot, each init field
    in its own, and keeps the contract of its ``Value`` base."""
    signature = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.kind, p.default) for p in signature] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD, default)
        for name, default in params.items()
    ]
    assert cls.__match_args__ == tuple(params)
    assert cls.__slots__ == tuple(params) + extra
    assert not hasattr(cls, "__post_init__")

    obj = cls(*args)
    assert isinstance(obj, Value) and not hasattr(obj, "__dict__")
    given = [*args, *list(params.values())[len(args):]]
    assert [getattr(obj, name) for name in params] == given  # each store in its own slot
    values = [getattr(obj, name) for name in cls.__slots__]  # AttributeError if unset
    by_keyword = cls(**dict(zip(params, args)))
    assert by_keyword == obj and hash(by_keyword) == hash(obj)
    assert repr(by_keyword) == repr(obj)
    assert [getattr(by_keyword, name) for name in cls.__slots__] == values
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert type(twin) is cls and twin == obj and hash(twin) == hash(obj)
        assert [getattr(twin, name) for name in cls.__slots__] == values

    fields = tuple(getattr(obj, name) for name in cls.__match_args__)
    assert hash(obj) == hash(fields)
    assert obj != fields and fields != obj and obj != object()
    body = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, fields))
    assert repr(obj) == f"{cls.__name__}({body})"
    for name in cls.__slots__:
        with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)
    assert [getattr(obj, name) for name in cls.__slots__] == values


def test_the_table_covers_every_value_class():
    assert {cls for cls, *_ in _VALUES} == set(_value_classes())


def test_equal_fields_in_another_class_are_not_equal():
    delta, entry = DeltaFactor(_X, 2), ParameterEntry(_X, 2)
    assert delta.__match_args__ == entry.__match_args__ and hash(delta) == hash(entry)
    assert delta != entry and entry != delta


# Per class: three builders of fresh arguments, nested values included: a
# base, one that differs from it only in the first init field, and one that
# differs only in the last.
_EQ_CASES = [
    (
        Summand,
        lambda: (orth("x", 2), 3), lambda: (orth("y", 2), 3), lambda: (orth("x", 2), 5),
    ),
    (
        CuspidalSymbol,
        lambda: ("u", 2, SYMPL, None, True, True),
        lambda: ("v", 2, SYMPL, None, True, True),
        lambda: ("u", 2, SYMPL, None, True, False),
    ),
    (
        GroupSpec,
        lambda: (Family.SYMPLECTIC, 3),
        lambda: (Family.ODD_ORTHOGONAL, 3),
        lambda: (Family.SYMPLECTIC, 4),
    ),
    (
        Factor,
        lambda: (FactorKind.SYMPLECTIC, 4, 3),
        lambda: (FactorKind.FULL_ORTHOGONAL, 4, 3),
        lambda: (FactorKind.SYMPLECTIC, 4, 5),
    ),
    (
        ParameterEntry,
        lambda: (Summand(orth("x"), 1), 3),
        lambda: (Summand(orth("x"), 3), 3),
        lambda: (Summand(orth("x"), 1), 2),
    ),
    (
        DeltaFactor,
        lambda: (Summand(pair("p", 2), 1), 3),
        lambda: (Summand(pair("q", 2), 1), 3),
        lambda: (Summand(pair("p", 2), 1), 1),
    ),
]


@pytest.mark.parametrize(
    "cls,base,first,last", _EQ_CASES, ids=[cls.__name__ for cls, *_ in _EQ_CASES]
)
def test_eq_compares_every_field(cls, base, first, last):
    obj, twin = cls(*base()), cls(*base())
    assert twin is not obj and twin == obj and obj == twin and not obj != twin
    for other in (cls(*first()), cls(*last())):
        assert obj != other and other != obj
        assert not obj == other and not other == obj
    for value in (obj, cls(*first()), cls(*last())):
        assert hash(value) == hash(tuple(getattr(value, n) for n in cls.__match_args__))


def test_frozen_instance_error_is_not_a_domain_error():
    assert issubclass(FrozenInstanceError, AttributeError)
    assert not issubclass(FrozenInstanceError, RGroupError)


@pytest.mark.parametrize(
    "cls,fill",
    [
        (Parameter, lambda psi: checked(psi, GroupSpec(Family.SYMPLECTIC, 1))),
        (JordanData, validate_jordan),
        (InducingData, validate_inducing),
    ],
    ids=["Parameter", "JordanData", "InducingData"],
)
def test_kept_caches_stay_out_of_the_value(cls, fill):
    args = next(args for c, args, *_ in _VALUES if c is cls)
    obj, fresh = cls(*args), cls(*args)
    fill(obj)
    cache = cls.__slots__[-1]
    assert getattr(obj, cache) is not None and getattr(fresh, cache) is None
    assert obj == fresh and hash(obj) == hash(fresh) and repr(obj) == repr(fresh)
    for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert twin == obj and getattr(twin, cache) is None


def test_the_cli_imports_no_class_generation_machinery():
    """The value objects define no code at import, so a CLI run loads
    none of the modules that generate it."""
    probe = (
        "import rgroups.cli, sys;"
        " print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    src = str(Path(rgroups.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    )}
    run = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_kept_checking_pass_stays_out_of_parameter_eq_hash_repr():
    raw = [(Summand(orth("a"), 1), 2), (Summand(orth("b"), 1), 1)]
    psi, fresh = canonicalize(raw), canonicalize(raw)
    before = repr(psi)
    checked(psi, GroupSpec(Family.SYMPLECTIC, 1))
    assert psi._checked and fresh._checked is None
    assert psi == fresh and hash(psi) == hash(fresh) and repr(psi) == before
    with pytest.raises(FrozenInstanceError):
        psi.entries = ()


# ---------------------------------------------------------------------------
# The kept checking pass, by group
# ---------------------------------------------------------------------------


def _sp2_parameter():
    """2*a (+) b, valid for Sp(2): dual group SO(3)."""
    return canonicalize([(Summand(orth("a"), 1), 2), (Summand(orth("b"), 1), 1)])


@pytest.fixture
def passes(monkeypatch):
    """The groups of every checking pass run from here on."""
    groups = []
    check = rgroups.params._check_entries

    def counted(psi, group):
        groups.append(group)
        return check(psi, group)

    monkeypatch.setattr(rgroups.params, "_check_entries", counted)
    return groups


@pytest.mark.parametrize(
    "call", [validate_parameter, arthur_r_group, centralizer], ids=lambda f: f.__name__
)
def test_the_same_group_object_is_not_hashed_again(monkeypatch, passes, call):
    hashed = []
    real = GroupSpec.__hash__

    def counted(self):
        hashed.append(self)
        return real(self)

    psi, group = _sp2_parameter(), GroupSpec(Family.SYMPLECTIC, 1)
    first = call(psi, group)
    monkeypatch.setattr(GroupSpec, "__hash__", counted)
    assert call(psi, group) == first
    assert hashed == []
    assert passes == [group]


def test_an_equal_group_object_reuses_the_pass(passes):
    psi = _sp2_parameter()
    group, equal = GroupSpec(Family.SYMPLECTIC, 1), GroupSpec(Family.SYMPLECTIC, 1)
    assert group is not equal
    assert checked(psi, equal) is checked(psi, group)
    assert passes == [equal]


def test_alternating_groups_keep_only_the_last_pass(passes):
    """Only the last group's pass is kept: a group that comes back runs
    its pass again, and each result is its own group's."""
    psi = _sp2_parameter()
    g1, g2 = GroupSpec(Family.SYMPLECTIC, 1), GroupSpec(Family.ODD_ORTHOGONAL, 1)
    equal = GroupSpec(Family.SYMPLECTIC, 1)
    results = [checked(psi, g) for g in (g1, g2, g1, equal, g2)]
    assert passes == [g1, g2, g1, g2]
    assert results[3] is results[2]
    assert [r[0].ok for r in results] == [True, False, True, True, False]
    assert results[0] == results[2] and results[1] == results[4]


# ---------------------------------------------------------------------------
# canonicalize against the two-pass version it replaced
# ---------------------------------------------------------------------------


def _reference_register_symbols(symbols):
    registry = {}
    for sym in symbols:
        seen = registry.get(sym.label)
        if seen is None:
            registry[sym.label] = sym
        elif seen != sym:
            raise InconsistentSymbol(
                f"label {sym.label!r} declared with conflicting attributes"
            )
    for sym in registry.values():
        if sym.dual_label is None:
            continue
        partner = registry.get(sym.dual_label)
        if partner is None:
            continue
        if partner.dual_label != sym.label or partner.dim != sym.dim:
            raise InconsistentSymbol(
                f"dual pairing between {sym.label!r} and {sym.dual_label!r}"
                " is not a dimension-preserving involution"
            )
    return registry


def _reference_canonicalize(entries):
    merged = {}
    summand_at = {}
    for summand, mult in entries:
        if mult < 1:
            raise ValueError(f"multiplicity must be positive, got {mult}")
        key = summand.sort_key()
        if key in summand_at and summand_at[key] != summand:
            raise InconsistentSymbol(
                f"label {key[0]!r} declared with conflicting attributes"
            )
        summand_at.setdefault(key, summand)
        merged[key] = merged.get(key, 0) + mult

    _reference_register_symbols(s.rho for s in summand_at.values())

    canonical = []
    for key in sorted(merged):
        summand = summand_at[key]
        if summand.self_dual:
            canonical.append(ParameterEntry(summand, merged[key]))
            continue
        partner_key = (summand.rho.dual_label, summand.a)
        if partner_key < key:
            continue
        partner_mult = merged.get(partner_key)
        if partner_mult is None:
            raise UnpairedDual(
                f"{summand.describe()} has no dual partner"
                f" {summand.rho.dual_label!r} in the parameter"
            )
        if partner_mult != merged[key]:
            raise UnpairedDual(
                f"{summand.describe()} appears {merged[key]} times but its"
                f" dual appears {partner_mult} times"
            )
        canonical.append(ParameterEntry(summand, merged[key]))
    return Parameter(tuple(canonical))


def _outcome(fn, raw):
    try:
        psi = fn(raw)
    except (ValueError, InconsistentSymbol, UnpairedDual) as exc:
        return type(exc), str(exc)
    return psi, psi.describe()


def _intended_differences(raw):
    """The errors the two-pass version missed: a dual pair whose members
    disagree on ``conjugate``, and a pair member under the larger label
    whose partner is absent (it was dropped silently)."""
    first = {}
    for summand, _ in raw:
        first.setdefault(summand.rho.label, summand.rho)
    keys = {(s.rho.label, s.a) for s, _ in raw}
    out = set()
    for sym in first.values():
        partner = first.get(sym.dual_label)
        if (
            partner is not None
            and partner.dual_label == sym.label
            and partner.dim == sym.dim
            and partner.conjugate != sym.conjugate
        ):
            out.add((InconsistentSymbol, f"dual pairing between {sym.label!r} and"
                     f" {sym.dual_label!r} is not a dimension-preserving involution"))
    for summand, _ in raw:
        dual = summand.rho.dual_label
        if dual is not None and dual < summand.rho.label and (dual, summand.a) not in keys:
            out.add((UnpairedDual, f"{summand.describe()} has no dual partner"
                     f" {dual!r} in the parameter"))
    return out


LABELS = "abcd"


@st.composite
def _symbols(draw):
    """Any symbol on a four-letter alphabet, so that labels are declared
    twice with different attributes and pairings fail to mirror."""
    label = draw(st.sampled_from(LABELS))
    duality = draw(st.sampled_from([ORTH, SYMPL, NSD]))
    dim = draw(st.integers(1, 3))
    conjugate = draw(st.booleans())
    if duality is SYMPL and dim % 2 and not conjugate:
        dim += 1
    dual_label = None
    if duality is NSD:
        dual_label = draw(st.sampled_from([x for x in LABELS if x != label]))
    return CuspidalSymbol(label, dim, duality, dual_label, conjugate)


@st.composite
def _partners(draw, rho):
    """The dual partner of ``rho``, mirrored or with one attribute off:
    another dimension, a dual label that does not point back, or the
    other ``conjugate``."""
    mirror = rho.dual_partner()
    label, dim, back, conjugate = mirror.label, mirror.dim, mirror.dual_label, mirror.conjugate
    flaw = draw(st.sampled_from(["none", "none", "dim", "label", "conjugate"]))
    if flaw == "dim":
        dim += 1
    elif flaw == "label":
        back = draw(st.sampled_from([x for x in LABELS if x not in (label, back)]))
    elif flaw == "conjugate":
        conjugate = not conjugate
    return CuspidalSymbol(label, dim, NSD, back, conjugate)


@st.composite
def _raw_lists(draw):
    """Raw summand lists: repeated summands, at most one mult < 1, and
    non-self-dual summands with a partner (see ``_partners``) at an equal
    or another multiplicity, or with none."""
    pool = draw(st.lists(_symbols(), min_size=1, max_size=5))
    raw = []
    for _ in range(draw(st.integers(1, 6))):
        summand = Summand(draw(st.sampled_from(pool)), draw(st.integers(1, 3)))
        mult = draw(st.integers(1, 3))
        raw.append((summand, mult))
        if not summand.self_dual and draw(st.integers(0, 3)):
            partner = Summand(draw(_partners(summand.rho)), summand.a)
            raw.append((partner, draw(st.sampled_from([mult, draw(st.integers(1, 3))]))))
    bad = draw(st.integers(0, 3 * len(raw)))
    if bad < len(raw):
        raw[bad] = (raw[bad][0], draw(st.integers(-1, 0)))
    return draw(st.permutations(raw))


@settings(max_examples=500, deadline=None)
@given(_raw_lists())
def test_canonicalize_matches_two_pass_reference(raw):
    new, old = _outcome(canonicalize, raw), _outcome(_reference_canonicalize, raw)
    if new != old:  # a Parameter is compared by == and describe()
        assert new in _intended_differences(raw), (new, old)
    psi = new[0]
    if isinstance(psi, Parameter):  # built without the constructors' checks
        entries = tuple(ParameterEntry(e.summand, e.multiplicity) for e in psi.entries)
        assert Parameter(entries) == psi


def test_reference_differs_only_where_intended():
    p = CuspidalSymbol("p", 1, NSD, "q")
    q = CuspidalSymbol("q", 1, NSD, "p", conjugate=True)
    mismatch = [(Summand(p, 1), 1), (Summand(q, 1), 1)]
    late = [(Summand(pair("a").dual_partner(), 1), 1)]
    for raw in (mismatch, late):
        assert isinstance(_outcome(_reference_canonicalize, raw)[0], Parameter)
        assert _outcome(canonicalize, raw) in _intended_differences(raw)


# ---------------------------------------------------------------------------
# Objects shared per shape
# ---------------------------------------------------------------------------

GL, SO = FactorKind.GENERAL_LINEAR, FactorKind.SPECIAL_ORTHOGONAL
O, SP = FactorKind.FULL_ORTHOGONAL, FactorKind.SYMPLECTIC
SP8 = GroupSpec(Family.SYMPLECTIC, 4)  # dual dimension 9


def _sp8_parameter(odd: str, even: str, dual: str):
    """GL(2) x O(3) x O(2) in Sp(8): a pair of multiplicity 2, an odd
    and an even same-type multiplicity, each summand of dimension 1."""
    rho = pair(dual)
    return canonicalize([
        (Summand(orth(odd), 1), 3),
        (Summand(orth(even), 1), 2),
        (Summand(rho, 1), 2),
        (Summand(rho.dual_partner(), 1), 2),
    ])


def test_equal_shapes_share_their_factors_and_rank_groups():
    first, second = _sp8_parameter("a", "b", "p"), _sp8_parameter("x", "y", "q")
    assert first != second
    resolved = centralizer(first, SP8), centralizer(second, SP8)
    unresolved = unresolved_centralizer(first, SP8), unresolved_centralizer(second, SP8)
    for one, other in (resolved, unresolved):
        assert all(f is g for f, g in zip(one.factors, other.factors, strict=True))
    # the demoted SO factor is shared too, and its O twin is another object
    assert [f.kind for f in resolved[0].factors] == [GL, SO, O]
    assert resolved[0].factors[1] is not unresolved[0].factors[1]
    rank = arthur_r_group(first, SP8)
    assert rank.rank == 1
    assert rank is arthur_r_group(second, SP8) is weyl_quotient(resolved[1])
    assert rank is weyl_quotient(resolved[0]) is weyl_quotient(unresolved[1])


def test_shared_descriptors_keep_their_value():
    desc = centralizer(_sp8_parameter("a", "b", "p"), SP8)
    fresh = CentralizerDescriptor((Factor(GL, 2, 1), Factor(SO, 3, 1), Factor(O, 2, 1)), ())
    assert desc == fresh and hash(desc) == hash(fresh) and repr(desc) == repr(fresh)
    assert desc.describe() == fresh.describe() == "GL(2) x SO(3) x O(2)"
    assert weyl_quotient(desc) == ElementaryTwoGroup(1)
    assert hash(weyl_quotient(desc)) == hash(ElementaryTwoGroup(1))


def test_a_shared_factor_stays_frozen():
    shared = centralizer(_sp8_parameter("a", "b", "p"), SP8).factors[0]
    assert shared is centralizer(_sp8_parameter("x", "y", "q"), SP8).factors[0]
    with pytest.raises(FrozenInstanceError):
        shared.size = 5
    assert shared == Factor(GL, 2, 1)
    assert rank_group(1) is rank_group(1)
    with pytest.raises(FrozenInstanceError):
        rank_group(1).rank = 2
    assert rank_group(1).rank == 1


@pytest.mark.parametrize(
    "member", [*Family, *DualityType, *FactorKind], ids=lambda m: f"{type(m).__name__}.{m.name}"
)
def test_enum_members_hash_by_identity(member):
    """Members are singletons compared by identity, so tables and caches
    key on the members themselves, hashed as plain objects."""
    assert hash(member) == object.__hash__(member)
    if isinstance(member, FactorKind):
        assert _factor(member, 2, 1) is _factor(member, 2, 1)
        assert _factor(member, 2, 1).kind is member


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Factor(SP, 3, 1), "symplectic factors need even size"),
        (lambda: _factor(SP, 3, 1), "symplectic factors need even size"),
        (lambda: _factor(O, 0, 1), "factor size must be positive, got 0"),
        (lambda: ElementaryTwoGroup(-1), "rank must be non-negative, got -1"),
        (lambda: rank_group(-1), "rank must be non-negative, got -1"),
    ]
    + [
        (lambda family=family: GroupSpec(family, -1), "rank must be non-negative, got -1")
        for family in Family
    ],
)
def test_bad_shapes_raise_on_every_call(build, message):
    for _ in range(3):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def _value_classes():
    modules = [
        importlib.import_module(f"rgroups.{info.name}")
        for info in pkgutil.iter_modules(rgroups.__path__)
    ]
    return [
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, Value) and obj.__module__ == module.__name__
        and obj is not Value
    ]


def test_every_value_class_has_its_own_docstring():
    classes = _value_classes()
    assert len(classes) == 19
    for cls in classes:
        doc = vars(cls)["__doc__"]
        assert doc and doc.strip(), cls.__name__
