"""Stressed distributions under the order-2 transport metric, and the
reverse sensitivity of model inputs to those stresses."""

from .distributions import (
    DEFAULT_GRID_N,
    DensityCurve,
    Empirical,
    Gamma,
    Lognormal,
    Normal,
    QuantileGrid,
    cdf_and_density,
    discretize,
    excess_jumps,
    flat_segments,
    midpoint_grid,
    wasserstein2,
)
from .errors import (
    DegenerateGridError,
    InputColumnError,
    NoSolutionError,
    NotConvergedError,
    UtilityDomainError,
    ValidationError,
    WstressError,
)
from .isotonic import pav, spav
from .kde import kde_density, silverman_bandwidth, weighted_quantile
from .reweight import SampleSet, WeightSet, rn_weights, stressed_cdf, stressed_expectation
from .risk_measures import (
    CustomUtility,
    DistortionWeight,
    HARAUtility,
    alpha_beta_weight,
    es_weight,
    eval_rm,
    expected_utility,
    make_gamma,
    mean_sd,
    mean_weight,
    rvar_weight,
    var,
    var_plus,
)
from .scenario import ScenarioOutput, SpatialConfig, generate, table1_stresses
from .sensitivity import (
    SensitivityResult,
    bivariate_reverse_sensitivity,
    delta_measure,
    reverse_sensitivity,
)
from .stress_solvers import (
    IntegralStress,
    LinearConstraint,
    MeanVarRm,
    QuadraticConstraint,
    RmConstraint,
    RmStress,
    StressedModel,
    UtilityRm,
    VarStress,
    multiplier_search,
    solve,
    solve_coherent,
    solve_integral,
    solve_mean_var_rm,
    solve_rm,
    solve_utility_rm,
    solve_var,
)

__version__ = "0.1.0"
