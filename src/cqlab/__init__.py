"""Numerical laboratory for the classical-to-quantum correspondence on
Gaussian ensembles of fields over a finite-dimensional real Hilbert space."""

__version__ = "0.1.0"

from .correspondence import (
    DensityOperator,
    ObservableMultiple,
    generalized_average,
    quantum_average,
    t2n_variable,
    t_state,
    t_state_extended,
    t_variable,
)
from .functionals import (
    CosQuadMinusOne,
    EvenPolynomial,
    Functional,
    Quadratic,
    SinQuad,
    SymmetricForm,
    amplify,
)
from .gaussian import (
    GaussianState,
    Moments,
    SampleBatch,
    chebyshev_tail,
    mc_average,
    pure_state_measure,
    sampling_workers,
)
from .hilbert import (
    SpectralDecomposition,
    outer_product,
    spectral_decompose,
    symmetric_from_entries,
    trace_product,
)
from .wick import (
    gaussian_integral_multilinear,
    moment_form,
    moment_mc_check,
    trace_forms,
)
from .experiments import (
    ExperimentConfig,
    SecondMomentState,
    alpha_sweep,
    analytic_average,
    closed_form_average,
    finite_qm_demo,
    nongaussian_experiment,
    pure_state_experiment,
    sub_alpha_states,
)

__all__ = [
    "CosQuadMinusOne", "DensityOperator", "EvenPolynomial",
    "ExperimentConfig", "Functional", "GaussianState", "Moments", "ObservableMultiple",
    "Quadratic", "SampleBatch", "SecondMomentState", "SinQuad",
    "SpectralDecomposition", "SymmetricForm", "alpha_sweep", "amplify",
    "analytic_average", "chebyshev_tail", "closed_form_average",
    "finite_qm_demo", "gaussian_integral_multilinear", "generalized_average",
    "mc_average", "moment_form", "moment_mc_check",
    "nongaussian_experiment", "outer_product", "pure_state_experiment",
    "pure_state_measure", "quantum_average", "sampling_workers",
    "spectral_decompose", "sub_alpha_states", "symmetric_from_entries",
    "t2n_variable", "t_state", "t_state_extended", "t_variable",
    "trace_forms", "trace_product",
]
