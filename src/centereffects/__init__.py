"""Center-specific treatment effects from multicenter randomized trials.

Estimates the average treatment effect in the population underlying each
center of a multicenter trial, with influence-curve and bootstrap inference,
assumption diagnostics, and a full Monte Carlo evaluation harness.

Importing the package before numpy gives BLAS one thread: it sets
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS and
VECLIB_MAXIMUM_THREADS to "1", each only if unset, before numpy loads. With a
BLAS that reads one of them (OpenBLAS, MKL, Apple Accelerate), results then do
not depend on the thread count, and ``run_study``'s worker processes do not
compete for cores. A value the user has set is kept, so setting a variable in
the shell opts out. The settings reach the whole process and its
subprocesses: OMP_NUM_THREADS=1 also holds every OpenMP library the program
loads after the import to one thread. When numpy was imported first, its BLAS
has already read its settings, and nothing is set.
"""
import os as _os
import sys as _sys

_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                          "VECLIB_MAXIMUM_THREADS")
#: BLAS is known to run one thread: numpy loads below, after these settings
_ONE_BLAS_THREAD = "numpy" not in _sys.modules
if _ONE_BLAS_THREAD:
    for _name in _BLAS_THREAD_VARIABLES:
        _os.environ.setdefault(_name, "1")
    _ONE_BLAS_THREAD = all(_os.environ[_name] == "1" for _name in _BLAS_THREAD_VARIABLES)

from .dataset import (  # noqa: E402  (numpy loads here, after the thread settings)
    CellCounts,
    TrialDataset,
    cell_counts,
    from_arrays,
    load_csv,
    save_csv,
    validate_positivity,
)
from .errors import (
    AliasedColumnsWarning,
    BootstrapError,
    CenterEffectsError,
    ComparatorError,
    ConfigError,
    ConvergenceWarning,
    DataError,
    DegenerateFitError,
    DivisionError,
    EmptyFitError,
    EmptyInputError,
    InsufficientDataError,
    MissingDataError,
    NoDonorError,
    NumericalError,
    ParameterError,
    ParseError,
    PositivityError,
    SaturatedModelError,
    SchemaError,
    SeparationWarning,
    ShapeError,
    SpecError,
    StudyError,
    TestError,
    UsageError,
)
from .estimators import (
    EstimateRecord,
    FittedNuisances,
    FixedNuisances,
    KnownProbabilities,
    NuisanceConfig,
    center_contrasts,
    estimate_chi,
    estimate_comparators,
    estimate_contrast,
    estimate_mean,
    estimate_phi,
    estimate_psi,
    estimate_tau,
)
from .inference import (
    TestResult,
    add_interval,
    ancova_center_outcome_test,
    bootstrap_se,
    default_assumption_specs,
    estimate_effects,
    homogeneity_test,
    normal_quantile,
    se_from_influence,
    wald_ci,
)
from .nuisance import (
    DesignSpec,
    LinearFit,
    LogisticFit,
    MultinomialFit,
    build_design,
    fit_logistic,
    fit_multinomial,
    fit_ols,
    predict,
    reference_softmax,
)
from .simulation import (
    OracleReport,
    Scenario,
    StudyReport,
    default_nuisance_configs,
    generate_dataset,
    run_study,
    true_center_ates,
    true_center_ates_quadrature,
)

__version__ = "1.0.0"

__all__ = [
    "AliasedColumnsWarning",
    "BootstrapError",
    "CellCounts",
    "CenterEffectsError",
    "ComparatorError",
    "ConfigError",
    "ConvergenceWarning",
    "DataError",
    "DegenerateFitError",
    "DesignSpec",
    "DivisionError",
    "EmptyFitError",
    "EmptyInputError",
    "EstimateRecord",
    "FittedNuisances",
    "FixedNuisances",
    "InsufficientDataError",
    "KnownProbabilities",
    "LinearFit",
    "LogisticFit",
    "MissingDataError",
    "MultinomialFit",
    "NoDonorError",
    "NuisanceConfig",
    "NumericalError",
    "OracleReport",
    "ParameterError",
    "ParseError",
    "PositivityError",
    "SaturatedModelError",
    "Scenario",
    "SchemaError",
    "SeparationWarning",
    "ShapeError",
    "SpecError",
    "StudyError",
    "StudyReport",
    "TestError",
    "TestResult",
    "TrialDataset",
    "UsageError",
    "add_interval",
    "ancova_center_outcome_test",
    "bootstrap_se",
    "build_design",
    "cell_counts",
    "center_contrasts",
    "default_assumption_specs",
    "default_nuisance_configs",
    "estimate_chi",
    "estimate_comparators",
    "estimate_contrast",
    "estimate_effects",
    "estimate_mean",
    "estimate_phi",
    "estimate_psi",
    "estimate_tau",
    "fit_logistic",
    "fit_multinomial",
    "fit_ols",
    "from_arrays",
    "generate_dataset",
    "homogeneity_test",
    "load_csv",
    "normal_quantile",
    "predict",
    "reference_softmax",
    "run_study",
    "save_csv",
    "se_from_influence",
    "true_center_ates",
    "true_center_ates_quadrature",
    "validate_positivity",
    "wald_ci",
]
