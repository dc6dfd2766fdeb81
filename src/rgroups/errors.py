"""Exception hierarchy shared by all modules."""


class RGroupError(Exception):
    """Base class for all domain errors raised by this package."""


class InconsistentSymbol(RGroupError):
    """The same cuspidal label was declared with conflicting attributes."""


class UnpairedDual(RGroupError):
    """A non-self-dual summand appears without its dual partner at equal
    multiplicity."""


class InvalidParameter(RGroupError):
    """A parameter failed validation against its target dual group."""


class InvalidInducingData(RGroupError):
    """Inducing data for a standard Levi subgroup failed validation."""


class UnresolvedConstraint(RGroupError):
    """The determinant constraint could not be resolved into a free product.

    Unreachable for parameters that pass validation; kept as a guard so a
    descriptor is never silently emitted with the constraint half-applied.
    """


class BoundExceeded(RGroupError):
    """Brute-force enumeration would exceed the configured size bounds."""


class NonElementaryQuotient(RGroupError):
    """The Weyl-group quotient is not elementary abelian of exponent 2.

    Signals a bug or an out-of-theory descriptor; never expected on valid
    inputs.
    """


class BoundsInfeasible(RGroupError):
    """Random-instance bounds admit no valid instance."""


class ParseError(RGroupError):
    """An instance file could not be parsed."""


class FrozenInstanceError(AttributeError):
    """An attribute of a value object was assigned or deleted.  Not an
    :class:`RGroupError`: it signals a bug, not bad input."""
