"""Exact and high-precision verification of strange evaluations of the
Gauss hypergeometric series via contiguity-operator reduction.

The exact layer (rationals, polynomials, truncated series, differential
operators) computes the reduction data q0, r0 of the order-ell contiguity
composition by three independent routes; the numeric layer evaluates both
closed-form identities at the roots of the terminating series
F(1-a, -ell, 2-c; x) to arbitrary precision.
"""

from .errors import (
    BranchCutError,
    DegenerateConnectionError,
    GammaPoleError,
    InternalInconsistencyError,
    NonConvergenceError,
    ParameterError,
    UnsupportedOperatorError,
)
from .hyp import (
    HypParams,
    QRPair,
    euler_transform_series,
    hyp_series,
    q0_by_reversal,
    q0_r0_by_series,
    q0_r0_general_b,
    terminating_poly,
)
from .numeric import (
    EvalContext,
    EvalResult,
    RootSet,
    find_roots,
    gamma_c,
    hyp2f1_num,
    rgamma_c,
)
from .operators import (
    DiffOp,
    FactoredRemainder,
    GenericityFlags,
    ReductionData,
    apply_to_genseries,
    build_H,
    build_L,
    factor_remainder,
    genericity_flags,
    h_remainder,
    ore_mul,
    right_reduce,
)
from .poly import Poly, RatFunc
from .scalars import format_rational, is_integer, parse_rational, poch
from .series import GenSeries, TruncatedSeries, binomial_series
from .verify import (
    GosperReport,
    SweepReport,
    VerifyReport,
    gosper_check,
    incomplete_beta_check,
    sweep,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "BranchCutError",
    "DegenerateConnectionError",
    "DiffOp",
    "EvalContext",
    "EvalResult",
    "FactoredRemainder",
    "GammaPoleError",
    "GenSeries",
    "GenericityFlags",
    "GosperReport",
    "HypParams",
    "InternalInconsistencyError",
    "NonConvergenceError",
    "ParameterError",
    "Poly",
    "QRPair",
    "RatFunc",
    "ReductionData",
    "RootSet",
    "SweepReport",
    "TruncatedSeries",
    "UnsupportedOperatorError",
    "VerifyReport",
    "apply_to_genseries",
    "binomial_series",
    "build_H",
    "build_L",
    "euler_transform_series",
    "factor_remainder",
    "find_roots",
    "format_rational",
    "gamma_c",
    "genericity_flags",
    "gosper_check",
    "h_remainder",
    "hyp2f1_num",
    "hyp_series",
    "incomplete_beta_check",
    "is_integer",
    "ore_mul",
    "parse_rational",
    "poch",
    "q0_by_reversal",
    "q0_r0_by_series",
    "q0_r0_general_b",
    "rgamma_c",
    "right_reduce",
    "sweep",
    "terminating_poly",
    "verify_theorem",
    "__version__",
]
