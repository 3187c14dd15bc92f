"""Lattice-based detection and counting of shifted rational points near curves."""

__version__ = "0.1.0"

from .curves import (
    Curve,
    Jet,
    aux_g,
    eval_jet,
    nondegeneracy_order,
    parabola,
    resolve_curve,
    second_derivative_bound,
    veronese,
)
from .lattice import (
    ApproxParams,
    LatticeBasis,
    LatticeReduction,
    SuccessiveMinima,
    build_G,
    build_h,
    build_scaling,
    reduce_at,
    reduced_basis,
    shortest_sup,
    successive_minima_sup,
)
from .detector import (
    DerivedConstants,
    RationalWitness,
    WitnessReport,
    corollary_map,
    derive_constants,
    detect_witness,
    detect_witnesses,
    goodset_delta,
    in_good_set,
    verify_witness,
    verify_witnesses,
)
from .counting import CountResult, delta_coverage, enumerate_R, interval_union_measure
from .goodness import (
    GoodnessReport,
    IntegerMultivector,
    MinorSpec,
    ca_good_ratio,
    hodge_dual_basis,
    phi_closed_form,
    phi_minor,
    qnd_bound_check,
    scale_factor,
    skew_gradient,
)
from .harness import (
    DimResult,
    DivergenceSum,
    ScalingFit,
    dim_exponent,
    divergence_partial_sum,
    lower_bound_check,
    run_experiment,
    scaling_fit,
)
from .errors import CheckFailure, ConfigError, PreconditionError

__all__ = [
    "__version__",
    "ApproxParams", "CheckFailure", "ConfigError", "CountResult", "Curve",
    "DerivedConstants", "DimResult", "DivergenceSum", "GoodnessReport",
    "IntegerMultivector", "Jet", "LatticeBasis", "LatticeReduction", "MinorSpec",
    "PreconditionError", "RationalWitness", "ScalingFit", "SuccessiveMinima",
    "WitnessReport", "aux_g", "build_G", "build_h", "build_scaling",
    "ca_good_ratio", "corollary_map", "delta_coverage", "derive_constants",
    "detect_witness", "detect_witnesses", "dim_exponent", "divergence_partial_sum",
    "enumerate_R", "eval_jet", "goodset_delta", "hodge_dual_basis", "in_good_set",
    "interval_union_measure", "lower_bound_check", "nondegeneracy_order",
    "parabola", "phi_closed_form", "phi_minor", "qnd_bound_check",
    "reduce_at", "reduced_basis", "resolve_curve", "run_experiment", "scale_factor",
    "scaling_fit", "second_derivative_bound", "shortest_sup", "skew_gradient",
    "successive_minima_sup", "verify_witness", "verify_witnesses", "veronese",
]
