"""Exact Hall-algebra computations for quivers with loops over prime fields."""

from .cache import CacheStore
from .cplx import Complex, ComplexCategory, LocElement
from .dh import DHAlgebra, DHElement, ReducedDHElement
from .hall import HallAlgebra, HallElement, TensorElement
from .quiver import (
    ChargeError,
    ConditionAError,
    ConditionBError,
    Quiver,
    QuiverError,
    parse_quiver,
)
from .repcat import (
    Bounds,
    CacheCorruption,
    EnumerationTooLarge,
    IsoClass,
    Rep,
    RepCategory,
)
from .scalar import Scalar, ScalarDomainError, ScalarRing
from .uq import GeneratorTable, RelationVerifier

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CacheCorruption",
    "CacheStore",
    "ChargeError",
    "Complex",
    "ComplexCategory",
    "ConditionAError",
    "ConditionBError",
    "DHAlgebra",
    "DHElement",
    "EnumerationTooLarge",
    "GeneratorTable",
    "HallAlgebra",
    "HallElement",
    "IsoClass",
    "LocElement",
    "Quiver",
    "QuiverError",
    "ReducedDHElement",
    "Rep",
    "RepCategory",
    "RelationVerifier",
    "Scalar",
    "ScalarDomainError",
    "ScalarRing",
    "TensorElement",
    "parse_quiver",
]
