"""Symbolic calculator for Knapp-Stein and Arthur R-groups of classical
p-adic groups (Sp, SO(2n+1), O(2n) and U(n)), with a brute-force
Weyl-quotient oracle."""

from .centralizer import (
    CentralizerDescriptor,
    ElementaryTwoGroup,
    Factor,
    FactorKind,
    arthur_r_group,
    centralizer,
    unresolved_centralizer,
)
from .jordan import JordanData, validate_jordan
from .levi import (
    DeltaFactor,
    FuzzBounds,
    InducingData,
    VerificationResult,
    WitnessRow,
    knapp_stein_r_group,
    parameter_of_induced,
    random_instance,
    verify_theorem,
)
from .params import (
    Classification,
    CuspidalSymbol,
    DualityType,
    Family,
    GroupSpec,
    Parameter,
    ParameterEntry,
    Summand,
    canonicalize,
    classify,
    tensor_type,
    validate_parameter,
)
from .weyl import weyl_of_factor, weyl_quotient

__all__ = [
    "CentralizerDescriptor",
    "Classification",
    "CuspidalSymbol",
    "DeltaFactor",
    "DualityType",
    "ElementaryTwoGroup",
    "Factor",
    "FactorKind",
    "Family",
    "FuzzBounds",
    "GroupSpec",
    "InducingData",
    "JordanData",
    "Parameter",
    "ParameterEntry",
    "Summand",
    "VerificationResult",
    "WitnessRow",
    "arthur_r_group",
    "canonicalize",
    "centralizer",
    "classify",
    "knapp_stein_r_group",
    "parameter_of_induced",
    "random_instance",
    "tensor_type",
    "unresolved_centralizer",
    "validate_jordan",
    "validate_parameter",
    "verify_theorem",
    "weyl_of_factor",
    "weyl_quotient",
]
