"""Multilinear dyadic operators on finite dyadic grids.

Step functions on [0, 1) at a fixed dyadic depth, their Haar transforms,
multilinear paraproducts and Haar multipliers, commutators with a
multiplying function, the classical sublinear companions (maximal
function, square function, BMO functionals, stopping-time decomposition),
and a seeded harness that searches for operator norm lower bounds.

Two scalar modes are supported everywhere: exact rational arithmetic in
the field extended by sqrt(2), used to verify identities with zero
tolerance, and float64 for norm experiments.
"""

__version__ = "0.1.0"

from .errors import (
    DyadicOpsError,
    ResolutionError,
    RootExceedsHeight,
    ShapeError,
)
from .scalars import FLOAT64, RATIONAL, Exact
from .core import (
    DyadicInterval,
    HaarSpectrum,
    StepFunction,
    UNIVERSE,
    analyze,
    haar_eval,
    inner_product,
    interval_family,
    lp_norm,
    lp_norm_pow,
    pairing,
    pointwise_product,
    synthesize,
    weak_lp_quasinorm,
    weak_lp_quasinorm_pow,
)
from .sublinear import (
    CZDecomposition,
    bmo2_via_haar,
    bmo2_via_haar_sq,
    bmo_norm,
    bmo_norm_pow,
    bstar_seminorm,
    cz_decompose,
    maximal,
    square_function,
    square_function_sq,
)
from .paraproducts import (
    AlphaVector,
    admissible_alphas,
    localized_average_residual,
    paraproduct,
    pi_paraproduct,
    product_decomposition_residual,
)
from .multipliers import (
    COMMUTATOR_CONVENTION,
    SymbolSequence,
    commutator,
    multilinear_multiplier,
)
from .normlab import (
    ExperimentReport,
    ExponentTuple,
    OperatorDescriptor,
    SamplerSpec,
    adjoint_residual,
    estimate_operator_norm,
    extremal_tuple,
    necessity_case,
    random_rational_step,
    sharp_forms,
    sharp_ratio,
    weak_type_ratio,
)

__all__ = [
    "__version__",
    "DyadicOpsError",
    "ResolutionError",
    "RootExceedsHeight",
    "ShapeError",
    "FLOAT64",
    "RATIONAL",
    "Exact",
    "DyadicInterval",
    "HaarSpectrum",
    "StepFunction",
    "UNIVERSE",
    "analyze",
    "haar_eval",
    "inner_product",
    "interval_family",
    "lp_norm",
    "lp_norm_pow",
    "pairing",
    "pointwise_product",
    "synthesize",
    "weak_lp_quasinorm",
    "weak_lp_quasinorm_pow",
    "CZDecomposition",
    "bmo2_via_haar",
    "bmo2_via_haar_sq",
    "bmo_norm",
    "bmo_norm_pow",
    "bstar_seminorm",
    "cz_decompose",
    "maximal",
    "square_function",
    "square_function_sq",
    "AlphaVector",
    "admissible_alphas",
    "localized_average_residual",
    "paraproduct",
    "pi_paraproduct",
    "product_decomposition_residual",
    "COMMUTATOR_CONVENTION",
    "SymbolSequence",
    "commutator",
    "multilinear_multiplier",
    "ExperimentReport",
    "ExponentTuple",
    "OperatorDescriptor",
    "SamplerSpec",
    "adjoint_residual",
    "estimate_operator_norm",
    "extremal_tuple",
    "necessity_case",
    "random_rational_step",
    "sharp_forms",
    "sharp_ratio",
    "weak_type_ratio",
]
