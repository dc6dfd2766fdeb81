"""Validation reports: violations are data, not exceptions.  Also
:class:`Value`, the base of every value object in the package."""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable

from .errors import FrozenInstanceError


class Value:
    """Base of the package's frozen value objects.

    A subclass declares ``__slots__``, every attribute it stores (derived
    ones and kept caches included), and ``__match_args__``, its init
    fields in order.  Its one ``__init__`` checks the arguments and stores
    each slot through the slot descriptor's ``__set__``, unpacked into a
    module global (``_set_*``) from :func:`slot_setters`: the frozen
    ``__setattr__`` refuses every assignment, and the setter costs less
    than ``object.__setattr__``.  From ``__match_args__`` the base gives
    the subclass, once: ``==`` only between instances of the same class,
    ``hash`` of the tuple of fields, the ``repr`` ``Name(field=value, ...)``,
    pickling and copying that rebuild through ``__init__`` (so its checks
    run again), and no assignment or deletion.  Slots outside
    ``__match_args__`` take no part in any of them.  No source is
    generated, so defining a subclass costs about what a plain class does.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        names = cls.__match_args__
        get = attrgetter(*names)
        fields = get if len(names) > 1 else lambda self: (get(self),)
        # ``==`` reads the first field before the rest: it settles most misses.
        first = attrgetter(names[0])
        rest = attrgetter(*names[1:]) if len(names) > 1 else lambda self: ()

        def __eq__(self, other):
            if self is other:
                return True
            if type(other) is cls:
                return first(self) == first(other) and rest(self) == rest(other)
            return NotImplemented

        def __hash__(self):
            return hash(fields(self))

        def __repr__(self):
            body = ", ".join(map("{}={!r}".format, names, fields(self)))
            return f"{cls.__qualname__}({body})"

        def __reduce__(self):
            return cls, fields(self)

        cls.__eq__, cls.__hash__, cls.__repr__, cls.__reduce__ = (
            __eq__, __hash__, __repr__, __reduce__
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def slot_setters(cls: type[Value]) -> tuple[Callable[[Any, Any], None], ...]:
    """The ``__set__`` of each of ``cls``'s slots, in ``__slots__`` order,
    to unpack into the module's ``_set_*`` globals: a slot added without
    a binding fails at import."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__)


class Violation(Value):
    """A single broken invariant, tagged with a short rule name."""

    __slots__ = __match_args__ = ("rule", "message")

    def __init__(self, rule: str, message: str) -> None:
        _set_violation_rule(self, rule)
        _set_violation_message(self, message)

    def __str__(self) -> str:
        return f"{self.rule}: {self.message}"


_set_violation_rule, _set_violation_message = slot_setters(Violation)


class ValidationReport(Value):
    """The violations one check found, in the order found; ``ok`` when
    there are none.  Build through :func:`report`."""

    __slots__ = __match_args__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()) -> None:
        _set_violations(self, violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, exc_type: type[Exception], context: str) -> None:
        """Raise ``exc_type`` listing all violations, after ``context``,
        unless the report is clean."""
        if self.violations:
            lines = "; ".join(str(v) for v in self.violations)
            raise exc_type(f"{context}: {lines}")

    def __add__(self, other: "ValidationReport") -> "ValidationReport":
        if not other.violations:
            return self
        return ValidationReport(self.violations + other.violations)


(_set_violations,) = slot_setters(ValidationReport)

CLEAN = ValidationReport()


def report(violations: list[Violation]) -> ValidationReport:
    """A report of ``violations``: the one shared :data:`CLEAN` when there
    are none, so that a clean check builds nothing."""
    return ValidationReport(tuple(violations)) if violations else CLEAN
