"""Heat semigroup on configuration spaces: simulation and desk-scale verification."""

from .kernel import (
    BoundCertificate,
    BoundReport,
    HeatKernelParams,
    chapman_kolmogorov_residual,
    density,
    fit_condition_certificate,
    tail_mass,
    tau,
    verify_dominating_bound,
)
from .points import (
    Configuration,
    Window,
    as_multiset,
    diffuse,
    poisson_points,
    sample_poisson,
    truncation_tail_bound,
)
from .metrics import MetricValue, b_n, d1, d_infty, d_k, flat_metric, rho, rho_bruteforce
from .harmonic import (
    DClassCertificate,
    IntegralSpec,
    KernelFunction,
    correlation_function,
    correlation_product_bound,
    inverse_k_transform,
    k_transform,
    k_transform_finite,
    lebesgue_poisson_integral,
    permanent,
    permanent_kernel,
    product_kernel,
    star_convolution,
    star_kernel,
    transfer_expectation,
    verify_d_class,
)
from .profiles import BoxIndicator, ConstantProfile, GaussianBump, SmoothedIndicator
from .semigroup import (
    ConfigurationFunctional,
    CylinderFunction,
    ExpFunctional,
    KPolynomialFunctional,
    SemigroupEstimate,
    SmoothBump,
    WindowedConstant,
    WindowedCount,
    WindowedExponential,
    apply_exact_exponential,
    apply_mc,
    feller_probe,
    generator_exact,
    generator_residual,
    invariance_test,
    lift_kernel,
    outer_exp_neg_sum,
    outer_linear,
    outer_square,
)
from .process import (
    PathBundle,
    bn_refinement_medians,
    collision_report,
    marginal_ks,
    oscillation_check,
    simulate_paths,
)
from .errors import CapabilityError, CapacityError, EvaluationError, SolverError

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
