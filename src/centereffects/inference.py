"""Variance estimation, confidence intervals, and assumption tests.

Standard errors for the effect estimators come from their per-observation
influence contributions (sample variance over n); a nonparametric bootstrap
is available as an alternative. Two diagnostics probe the assumptions behind
pooling: an omnibus Wald test of equal center-specific effects and an
ANCOVA-style F test for center-outcome association given covariates and
treatment.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.special

from .dataset import TrialDataset, _integers, _is_number
from .errors import (
    BootstrapError,
    CenterEffectsError,
    ConfigError,
    InsufficientDataError,
    ParameterError,
    SaturatedModelError,
    SpecError,
    TestError,
)
from .estimators import COMPARATORS, MEAN_ESTIMATORS, _check_request, estimate_comparators
from .nuisance import DesignSpec, build_design, factor_cells, fit_ols_cells

HOMOGENEITY_ESTIMATORS = ("tau", "phi", "psi")


@dataclass(frozen=True)
class TestResult:
    """Outcome of one assumption test.

    ``df`` is an integer for the chi-square homogeneity test and a
    (numerator, denominator) pair for the F test.
    """

    statistic: float
    df: object
    p_value: float
    test: str  # "homogeneity_wald" | "ancova_f"

    def to_dict(self):
        df = list(self.df) if isinstance(self.df, tuple) else self.df
        return {
            "test": self.test,
            "statistic": self.statistic,
            "df": df,
            "p_value": self.p_value,
        }


# ---------------------------------------------------------------------------
# standard errors and Wald intervals
# ---------------------------------------------------------------------------


def se_from_influence(influence):
    """Influence-curve standard error: sqrt(sample variance / n)."""
    inf = np.asarray(influence, dtype=np.float64)
    if inf.ndim != 1 or inf.shape[0] < 2:
        raise InsufficientDataError(
            "influence-curve standard error needs at least 2 observations"
        )
    n = inf.shape[0]
    return float(np.sqrt(inf.var(ddof=1) / n))


def normal_quantile(alpha):
    """Upper z-quantile z_{1-alpha/2} for a two-sided interval."""
    if not (_is_number(alpha) and 0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
    return float(scipy.special.ndtri(1.0 - alpha / 2.0))


def wald_ci(value, se, alpha=0.05):
    """Symmetric normal-quantile interval value ± z_{1-alpha/2}·se as (ci_low, ci_high)."""
    if se < 0.0:
        raise ParameterError(f"standard error must be nonnegative, got {se}")
    half = normal_quantile(alpha) * se
    return float(value - half), float(value + half)


def add_interval(record, alpha=0.05):
    """Attach an SE and Wald interval to an estimate record.

    Estimates carrying an influence vector get the influence-curve SE;
    comparator records already carry their regression SE and keep it.
    """
    if record.influence is not None:
        se = se_from_influence(record.influence)
        method = "influence_curve"
    elif record.se is not None:
        se = record.se
        method = record.method or "ols"
    else:
        raise ParameterError("record has neither influence contributions nor an SE")
    ci_low, ci_high = wald_ci(record.value, se, alpha)
    return dataclasses.replace(record, se=float(se), ci_low=ci_low, ci_high=ci_high,
                               alpha=float(alpha), method=method)


def _check_estimators(estimators, arms):
    """(estimators, arms) as tuples; ParameterError unless the estimators are
    distinct known names, ``arms`` is two different integers and, when a
    comparator is among the estimators, those arms are 0 and 1."""
    estimators, known = tuple(estimators), MEAN_ESTIMATORS + COMPARATORS
    for estimator in estimators:
        if estimator not in known:
            raise ParameterError(f"unknown estimator {estimator!r}; expected one of {known}")
    if len(set(estimators)) != len(estimators):
        raise ParameterError(f"estimators must be distinct, got {list(estimators)}")
    try:
        pair = tuple(_integers("arms", *arms))
    except (TypeError, ParameterError):  # arms not a sequence, or not integers
        pair = ()
    if len(pair) != 2:
        raise ParameterError(f"arms must be two different integers, got {arms!r}")
    if pair[0] == pair[1]:
        raise ParameterError(f"a contrast needs two different arms, got {pair[0]} twice")
    if set(estimators) & set(COMPARATORS) and pair not in ((1, 0), (0, 1)):
        raise ParameterError("comparators require the contrast arms to be 0 and 1")
    return estimators, pair


def estimate_effects(data, estimators, arms, configs, alpha=0.05):
    """Interval-carrying contrast records for every requested estimator and center.

    The whole request, each model spec a configuration must hold included, is
    checked before anything is fitted. Then the comparators run, each checking
    its data before its fit: they read none of the dataset's fits, so their
    designs are freed before those fits accumulate. Every estimator gives one
    record per center 1..m, in the requested order. A comparator's one number,
    its sign flipped when ``arms`` is (0, 1), is repeated in every center; any
    other estimator uses ``configs[estimator]`` as its nuisance configuration.
    All estimators share the dataset's fits, so a nuisance model that several
    configurations specify alike is fit once. The records carry no influence
    columns: each goes once its SE is attached (``center_contrasts`` keeps them).
    """
    estimators, (a, a_prime) = _check_estimators(estimators, arms)
    normal_quantile(alpha)  # ParameterError for an alpha outside (0, 1)
    passes = {}
    for estimator in [e for e in estimators if e in MEAN_ESTIMATORS]:
        cfg = configs.get(estimator)
        if estimator != "tau" and cfg is None:
            raise ConfigError("nuisance configuration required")
        passes[estimator] = _check_request(data, estimator, range(1, data.m + 1),
                                           (a, a_prime), cfg, "dr")
    records = {}
    for estimator in [e for e in estimators if e in COMPARATORS]:
        rec = estimate_comparators(data, estimator)
        if (a, a_prime) == (0, 1):
            rec = dataclasses.replace(rec, value=-rec.value, arms=(0, 1))
        rec = add_interval(rec, alpha=alpha)
        records[estimator] = [dataclasses.replace(rec, center=c) for c in range(1, data.m + 1)]
    for estimator, run in passes.items():  # the (n, m) influence columns go before the next pass
        records[estimator] = [dataclasses.replace(add_interval(rec, alpha=alpha), influence=None)
                              for rec in run()]
    return [rec for estimator in estimators for rec in records[estimator]]


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def _resample(data, rng):
    """Whole-sample row resample with replacement, keeping center identities."""
    idx = rng.integers(0, data.n, size=data.n)
    return TrialDataset(
        covariates=data.covariates[idx],
        covariate_names=data.covariate_names,
        center=data.center[idx],
        arm=data.arm[idx],
        outcome=data.outcome[idx],
        center_labels=data.center_labels,
    )


def bootstrap_se(data, estimator, c, arms, cfg=None, variant="dr", replicates=1000, seed=0,
                 alpha=0.05):
    """Center ``c``'s mean (one arm) or contrast (two arms) record, with a
    nonparametric bootstrap SE and normal interval.

    The estimate is the one ``estimate_mean``/``estimate_contrast`` give for
    the same arguments. Rows are resampled with replacement from the whole
    sample, and each resample refits every nuisance model once (a contrast's
    two means share one fitted bundle). Resamples on which the estimator fails
    (e.g. an empty cell) are skipped and counted; more than 10% failures
    aborts. Deterministic given ``seed``: replicate r draws from a fresh
    generator keyed by (seed, r), so results do not depend on execution order.
    """
    replicates, seed = _integers("replicates and seed", replicates, seed)
    if replicates < 2 or seed < 0:
        raise ParameterError("bootstrap needs at least 2 replicates and a seed >= 0, got "
                             f"{replicates} and {seed}")
    normal_quantile(alpha)  # ParameterError before any resample
    point = _check_request(data, estimator, [c], arms, cfg, variant)()[0]
    values = []
    failures = 0
    for r in range(replicates):
        rng = np.random.default_rng((seed, r))
        try:
            resampled = _resample(data, rng)
            values.append(_check_request(resampled, estimator, [c], arms, cfg, variant)()[0].value)
        except (CenterEffectsError, np.linalg.LinAlgError):
            failures += 1
    if failures > 0.10 * replicates:
        raise BootstrapError(
            f"{failures} of {replicates} bootstrap resamples failed (>10%)"
        )
    se = float(np.std(np.asarray(values), ddof=1))
    ci_low, ci_high = wald_ci(point.value, se, alpha)
    return dataclasses.replace(point, se=se, ci_low=ci_low, ci_high=ci_high, alpha=float(alpha),
                               method="bootstrap")


# ---------------------------------------------------------------------------
# homogeneity of center-specific effects
# ---------------------------------------------------------------------------


def _homogeneity_request(data, estimator, a, a_prime, cfg):
    """The pass of a homogeneity test's m center contrasts, its request checked
    (m >= 2; tau, phi or psi; then the estimator's own checks)."""
    if data.m < 2:
        raise InsufficientDataError("homogeneity test needs at least 2 centers")
    if estimator not in HOMOGENEITY_ESTIMATORS:
        raise ParameterError(f"homogeneity test supports {', '.join(HOMOGENEITY_ESTIMATORS)} "
                             f"(got {estimator!r})")
    return _check_request(data, estimator, range(1, data.m + 1), (a, a_prime), cfg, "dr")


def homogeneity_test(data, estimator, a, a_prime, cfg=None):
    """Omnibus Wald test that all center-specific contrasts are equal.

    Builds the vector of per-center contrasts and its covariance from the
    per-observation influence contributions (shared nuisance fits are reused
    across centers, and their induced cross-center covariance is kept), then
    tests all differences against center 1 with a chi-square on m−1 degrees
    of freedom. Tests of several estimators on one dataset share their
    common nuisance fits through the dataset.
    """
    records = _homogeneity_request(data, estimator, a, a_prime, cfg)()
    deltas = np.array([rec.value for rec in records])
    influence = np.column_stack([rec.influence for rec in records])
    if not np.all(np.isfinite(influence)):
        raise TestError("non-finite influence contributions; the contrasts cannot be tested")

    # the statistic is invariant to one scale of influence and contrasts; a
    # power of two near 1/max|influence| keeps the covariance from overflowing
    # and is exact, so it changes no digit on data that does not overflow
    exponent = -np.frexp(np.abs(influence).max())[1]
    influence = np.ldexp(influence, exponent)
    sigma = np.cov(influence, rowvar=False, ddof=1) / data.n
    # D rows: contrast of each center against center 1
    diffs = np.ldexp(deltas[1:] - deltas[0], exponent)
    M = sigma[1:, 1:] - sigma[1:, :1] - sigma[:1, 1:] + sigma[0, 0]
    try:
        solved = scipy.linalg.solve(M, diffs, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError):
        solved = np.array([np.nan])
    if not np.all(np.isfinite(solved)):
        raise TestError("singular contrast covariance; consider collapsing small centers")
    statistic = float(diffs @ solved)
    if statistic < 0.0:
        statistic = 0.0
    df = data.m - 1
    p = float(scipy.special.chdtrc(df, statistic))
    return TestResult(statistic=statistic, df=df, p_value=p, test="homogeneity_wald")


# ---------------------------------------------------------------------------
# center-outcome association (ANCOVA-style F test)
# ---------------------------------------------------------------------------


def default_assumption_specs(data):
    """Default nested designs for the center-outcome association test.

    Base: intercept, covariate main effects, treatment, covariate×treatment.
    Extended: base plus center indicators, covariate×center, treatment×center.
    """
    covs = list(data.covariate_names)
    base = ["1"] + covs + ["A"] + [f"{x}:A" for x in covs]
    extended = base + ["C"] + [f"{x}:C" for x in covs] + ["A:C"]
    return DesignSpec(base), DesignSpec(extended)


def ancova_center_outcome_test(data, base_spec=None, extended_spec=None):
    """F test comparing outcome models with and without center terms.

    A small p-value indicates the outcome depends on center membership even
    after covariates and treatment, i.e. pooling across centers as if they
    shared one outcome law is suspect.

    Both models are fit by ``fit_ols_cells`` from per-center R factors of
    their designs: each center's rows are reduced to at most p + 1 rows over
    the columns nonzero in it, and the stacked factors are solved by fit_ols's
    pivoted QR, with its rank tolerance evaluated at n data rows. The degrees
    of freedom are n minus each model's detected rank, and the RSS are those
    of fit_ols up to roundoff.

    An outcome the extended model fits exactly leaves no residual variation
    to test against, and TestError is raised when the extended residuals are
    at roundoff level: ‖y − ŷ‖ ≤ max(n, p)·ε·‖y‖, fit_ols's relative rank
    tolerance with p the extended design's width. The scale is the
    uncentered ‖y‖ because the residuals' roundoff grows with it: a constant
    outcome has a centered sum of squares of exactly 0 but residuals of
    order ε·|y|.
    """
    if (base_spec is None) != (extended_spec is None):
        raise SpecError("supply both model specs or neither")
    if base_spec is None:
        base_spec, extended_spec = default_assumption_specs(data)

    Xb, base_names = build_design(base_spec, data)
    Xe, ext_names = build_design(extended_spec, data)
    if not set(base_names) <= set(ext_names):
        missing = sorted(set(base_names) - set(ext_names))
        raise SpecError(f"extended model must nest the base model; missing {missing}")

    fit_b = fit_ols_cells(factor_cells(Xb, data.outcome, data.center), column_names=base_names)
    fit_e = fit_ols_cells(factor_cells(Xe, data.outcome, data.center), column_names=ext_names)
    if fit_e.df_residual <= 0:
        raise SaturatedModelError(
            "extended model leaves no residual degrees of freedom"
        )
    df_num = fit_b.df_residual - fit_e.df_residual
    df_den = fit_e.df_residual
    if df_num <= 0:
        # the extra terms added no rank (e.g. a single center): nothing to test
        return TestResult(statistic=0.0, df=(0, df_den), p_value=1.0, test="ancova_f")
    y = data.outcome
    if fit_e.rss <= (max(data.n, Xe.shape[1]) * np.finfo(np.float64).eps) ** 2 * (y @ y):
        raise TestError(
            "the extended model fits the outcome exactly (residuals at roundoff "
            "level); the F test is undefined"
        )
    statistic = ((fit_b.rss - fit_e.rss) / df_num) / (fit_e.rss / df_den)
    if statistic < 0.0:
        statistic = 0.0
    p = float(scipy.special.fdtrc(df_num, df_den, statistic))
    return TestResult(
        statistic=float(statistic), df=(df_num, df_den), p_value=p, test="ancova_f"
    )
