"""Simulation and analysis toolkit for a mass-conserving nonlocal dynamics.

The state is a field represented by weighted value atoms; the package
integrates the induced atom dynamics exactly, computes decreasing
rearrangements and Lyapunov energies, and predicts / validates the
long-time limit step profiles.
"""

from .dynamics import (
    IntegratorConfig,
    Termination,
    Trajectory,
    characteristic_flow,
    integrate,
    verify_trajectory,
)
from .energy import (
    EnergyLimit,
    dissipation_constant,
    dissipation_rate,
    energy_limit,
    lyapunov,
)
from .errors import (
    ConfigError,
    DenominatorVanishingError,
    EvalDomainError,
    FieldError,
    InfeasibleMeasureError,
    NldynError,
    NoRootError,
    NotConvergedError,
    NumericalFailureError,
    QuadratureError,
)
from .exprparse import antiderivative, build_model, differentiate, evaluate, parse
from .field import (
    AtomField,
    distribution,
    from_samples,
    integral_of,
    l1_distance,
    mass,
    profile_l1_distance,
    rearrange,
    staircase,
)
from .model import (
    HypothesisClass,
    NonlinearityPair,
    builtin_model,
    classify_hypothesis,
    lambda_of,
    rhs,
    validate_pair,
)
from .omega import (
    OmegaPrediction,
    consistency_check,
    extract_limit,
    gfunction,
    predict_h1,
    predict_h3,
    sample_g_monotone,
)

__version__ = "0.1.0"

__all__ = [
    "AtomField",
    "ConfigError",
    "DenominatorVanishingError",
    "EnergyLimit",
    "EvalDomainError",
    "FieldError",
    "HypothesisClass",
    "InfeasibleMeasureError",
    "IntegratorConfig",
    "NldynError",
    "NoRootError",
    "NonlinearityPair",
    "NotConvergedError",
    "NumericalFailureError",
    "OmegaPrediction",
    "QuadratureError",
    "Termination",
    "Trajectory",
    "antiderivative",
    "build_model",
    "builtin_model",
    "characteristic_flow",
    "classify_hypothesis",
    "consistency_check",
    "differentiate",
    "dissipation_constant",
    "dissipation_rate",
    "distribution",
    "energy_limit",
    "evaluate",
    "extract_limit",
    "from_samples",
    "gfunction",
    "integral_of",
    "integrate",
    "l1_distance",
    "lambda_of",
    "lyapunov",
    "mass",
    "parse",
    "predict_h1",
    "predict_h3",
    "profile_l1_distance",
    "rearrange",
    "rhs",
    "sample_g_monotone",
    "staircase",
    "validate_pair",
    "verify_trajectory",
]
