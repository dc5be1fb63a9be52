"""Causal effect estimation when a confounder is missing not at random.

The missing-probability model is identified through a moment equation
that uses the treatment as an auxiliary variable, assuming missingness is
independent of treatment given the confounders and outcome. Inverse
probability of observation weights then correct the propensity and
outcome fits, yielding outcome-regression, IPW, and doubly robust
effect estimators with joint sandwich standard errors.
"""

from .data import (
    Dataset,
    MissingnessSummary,
    Schema,
    emit_csv,
    load_csv,
    missingness_summary,
    resample,
)
from .errors import (
    AllReplicationsFailed,
    BadConfig,
    BadValue,
    ConvergenceError,
    DataError,
    DimensionMismatch,
    EmptyData,
    EquivalenceViolated,
    ExtremeWeight,
    MissingnessDegenerate,
    MnarError,
    NoConvergence,
    NonFiniteEvaluation,
    QuadratureFailure,
    RankDeficient,
    SchemaMismatch,
    Separation,
    SingularJacobian,
    TooFewDonors,
    TooManyFailures,
)
from .estimators import (
    AteEstimate,
    BootstrapResult,
    MiOptions,
    bootstrap_ci,
    cc_parameter_fit,
    impute_pmm,
    mi_parameter_fit,
    rubin_combine,
    tau_cc,
    tau_mi,
    tau_wee_dr,
    tau_wee_ipw,
    tau_wee_or,
)
from .glm import (
    BERNOULLI,
    GAUSSIAN,
    LinearModelParams,
    ModelSpec,
    design_matrix,
    fit_model,
)
from .simlab import (
    Example1Params,
    MonteCarloReport,
    ScenarioConfig,
    TargetMetrics,
    emit_raw,
    emit_report,
    example1_grid_compare,
    example1_observed_density,
    generate_table1,
    generate_table2,
    run_monte_carlo,
)
from .solver import (
    EquationSystem,
    SolveOptions,
    average_psi,
    numeric_jacobian,
    sandwich_covariance,
    solve_root,
)
from .wee import (
    FitDiagnostics,
    FittedModels,
    GSpec,
    WeeStack,
    default_G,
    fit_wee,
    missing_weights,
)

__version__ = "1.0.0"
