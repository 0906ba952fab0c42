"""Smoothness-adaptive online/stochastic convex optimization toolkit.

Loss catalog with self-bounding residuals, euclidean/entropy mirror
geometries, online mirror descent with theory step sizes, certified
regularized ERM with a stability probe, hard lower-bound distributions,
Rademacher/bound calculators, and a CLI experiment harness.
"""

from .losses import (
    LossSpec,
    NonSmoothLossError,
    make_absolute,
    make_piecewise_quadlin,
    make_smooth_ramp,
    make_squared,
    make_squared_unhalved,
    pair_bound_residual,
    self_bound_residual,
)
from .geometry import (
    MirrorSetup,
    ball_radius,
    bregman_divergence,
    check_feasible,
    default_start,
    dual_norm,
    entropy_setup,
    euclidean_setup,
    is_feasible,
    mirror_step,
    regularizer_grad,
    regularizer_value,
)
from .online import (
    BatchRun,
    InstanceStream,
    OnlineTrace,
    adaptive_stream,
    average_regret,
    averaged_iterate,
    fixed_stream,
    hindsight_average_loss,
    iid_stream,
    regret_bound,
    run_mirror_descent,
    run_mirror_descent_batch,
    stepsize_for,
)
from .batch import (
    Dataset,
    SolveReport,
    StabilityReport,
    excess_risk,
    lambda_for,
    solve_regularized_erm,
    stability_probe,
)
from .distributions import (
    HardDistribution,
    RegimeGenerator,
    SeparableSynthetic,
    SparseGenerator,
    erm_exact,
    hard_absolute,
    hard_gaussian,
    hard_quadlin,
    lower_bound_applies,
    lower_bound_value,
    quadlin_minimizer_closed_form,
    regime_generator,
    separable_synthetic,
    sparse_generator,
)
from .bounds import (
    FunctionClassSpec,
    RademacherEstimate,
    empirical_rademacher,
    lipschitz_excess_bound,
    margin_bound,
    margin_empirical_error,
    smooth_risk_bound,
)

__version__ = "0.1.0"
