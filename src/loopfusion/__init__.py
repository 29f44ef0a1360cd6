"""Exact fusion rings, affine alcove reduction and loop-group dimension formulas."""

from .affine_weyl import (
    AffineContext,
    AlcoveReduction,
    alcove_reduce,
    on_wall,
    total_degree,
)
from .errors import LoopFusionError, NumericalError, ResourceError, ValidationError
from .finite_reps import (
    VirtualCharacter,
    WeightMultiplicities,
    character_ratio,
    tensor_decompose,
    weight_multiplicities,
    weyl_dimension,
)
from .fusion import (
    FusionElement,
    LevelWeight,
    SMatrix,
    alcove_weights,
    conjugate_weight,
    fuse_kw,
    fuse_s,
    s_matrix,
)
from .induction import InductionResult, homomorphism_check, induce, induce_virtual
from .rootdata import AlgebraSpec, RootSystem, build_root_system, enumerate_weyl, pairing, weyl_orbit
from .verlinde import (
    CohomologyReport,
    Surface,
    cohomology_report,
    factorization_check,
    verlinde_dimension,
    verlinde_dimension_s,
)

__version__ = "0.1.0"

__all__ = [
    "AffineContext",
    "AlcoveReduction",
    "AlgebraSpec",
    "CohomologyReport",
    "FusionElement",
    "InductionResult",
    "LevelWeight",
    "LoopFusionError",
    "NumericalError",
    "ResourceError",
    "RootSystem",
    "SMatrix",
    "Surface",
    "ValidationError",
    "VirtualCharacter",
    "WeightMultiplicities",
    "alcove_reduce",
    "alcove_weights",
    "build_root_system",
    "character_ratio",
    "cohomology_report",
    "conjugate_weight",
    "enumerate_weyl",
    "factorization_check",
    "fuse_kw",
    "fuse_s",
    "homomorphism_check",
    "induce",
    "induce_virtual",
    "on_wall",
    "pairing",
    "s_matrix",
    "tensor_decompose",
    "total_degree",
    "verlinde_dimension",
    "verlinde_dimension_s",
    "weight_multiplicities",
    "weyl_dimension",
    "weyl_orbit",
    "__version__",
]
