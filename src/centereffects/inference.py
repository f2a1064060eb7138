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
import scipy.stats

from .dataset import TrialDataset
from .errors import (
    BootstrapError,
    CenterEffectsError,
    InsufficientDataError,
    ParameterError,
    SaturatedModelError,
    SpecError,
    TestError,
)
from .estimators import (
    COMPARATORS,
    center_contrasts,
    estimate_comparators,
    estimate_contrast,
    estimate_mean,
    with_interval_fields,
)
from .nuisance import DesignSpec, build_design, factor_cells, fit_ols_cells

HOMOGENEITY_ESTIMATORS = ("tau", "phi", "psi")


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a symmetric normal-quantile interval."""

    value: float
    se: float
    ci_low: float
    ci_high: float
    alpha: float
    method: str  # "influence_curve" | "bootstrap" | "ols"


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
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0,1), got {alpha}")
    return float(scipy.special.ndtri(1.0 - alpha / 2.0))


def wald_ci(value, se, alpha=0.05, method="influence_curve"):
    """Symmetric normal-quantile interval value ± z_{1-alpha/2}·se."""
    if se < 0.0:
        raise ParameterError(f"standard error must be nonnegative, got {se}")
    z = normal_quantile(alpha)
    half = z * se
    return IntervalEstimate(
        value=float(value),
        se=float(se),
        ci_low=float(value - half),
        ci_high=float(value + half),
        alpha=float(alpha),
        method=method,
    )


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
    interval = wald_ci(record.value, se, alpha=alpha, method=method)
    return with_interval_fields(
        record, interval.se, interval.ci_low, interval.ci_high, alpha, method
    )


def estimate_effects(data, estimators, arms, configs, alpha=0.05):
    """Interval-carrying contrast records for every requested estimator.

    A comparator gives one record with center 0, its sign flipped when
    ``arms`` is (0, 1); any other estimator gives one record per center,
    using ``configs[estimator]`` as its nuisance configuration. All
    estimators share one fitted-model memo, so a nuisance model that several
    configurations specify alike is fit once.
    """
    a, a_prime = arms
    fits = {}
    records = []
    for estimator in estimators:
        if estimator in COMPARATORS:
            if (a, a_prime) not in ((1, 0), (0, 1)):
                raise ParameterError("comparators require the contrast arms to be 0 and 1")
            rec = estimate_comparators(data, estimator)
            if (a, a_prime) == (0, 1):
                rec = dataclasses.replace(rec, value=-rec.value, arms=(0, 1))
            records.append(add_interval(rec, alpha=alpha))
        else:
            cfg = configs.get(estimator)
            contrasts = center_contrasts(data, estimator, a, a_prime, cfg, fits)
            records.extend(add_interval(rec, alpha=alpha) for rec in contrasts)
    return records


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimandSpec:
    """What to estimate: estimator, target center, and arm(s).

    One arm requests a mean; two arms request the contrast mean(c, arms[0])
    − mean(c, arms[1]).
    """

    estimator: str  # tau | phi | psi | chi
    center: int
    arms: tuple
    variant: str = "dr"

    def __post_init__(self):
        arms = tuple(int(a) for a in self.arms)
        if len(arms) not in (1, 2):
            raise ParameterError("estimand needs one arm (mean) or two (contrast)")
        object.__setattr__(self, "arms", arms)


def evaluate_estimand(data, spec, cfg=None, nuisances=None):
    """Compute the EstimateRecord an EstimandSpec describes."""
    if len(spec.arms) == 2:
        return estimate_contrast(
            data, spec.estimator, spec.center, spec.arms[0], spec.arms[1],
            cfg, variant=spec.variant, nuisances=nuisances,
        )
    return estimate_mean(
        data, spec.estimator, spec.center, spec.arms[0], cfg, spec.variant, nuisances
    )


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


def bootstrap_se(data, spec, cfg=None, replicates=1000, seed=0, alpha=0.05):
    """Nonparametric bootstrap SE and normal interval for one estimand.

    Rows are resampled with replacement from the whole sample and every
    nuisance model is refit inside each resample. Resamples on which the
    estimator fails (e.g. an empty cell) are skipped and counted; more than
    10% failures aborts. Deterministic given ``seed``: replicate r draws from
    a fresh generator keyed by (seed, r), so results do not depend on
    execution order.
    """
    if replicates < 2:
        raise ParameterError("bootstrap needs at least 2 replicates")
    point = evaluate_estimand(data, spec, cfg)
    values = []
    failures = 0
    for r in range(replicates):
        rng = np.random.default_rng((seed, r))
        try:
            resampled = _resample(data, rng)
            values.append(evaluate_estimand(resampled, spec, cfg).value)
        except (CenterEffectsError, np.linalg.LinAlgError):
            failures += 1
    if failures > 0.10 * replicates:
        raise BootstrapError(
            f"{failures} of {replicates} bootstrap resamples failed (>10%)"
        )
    se = float(np.std(np.asarray(values), ddof=1))
    return wald_ci(point.value, se, alpha=alpha, method="bootstrap")


# ---------------------------------------------------------------------------
# homogeneity of center-specific effects
# ---------------------------------------------------------------------------


def homogeneity_test(data, estimator, a, a_prime, cfg=None, fits=None):
    """Omnibus Wald test that all center-specific contrasts are equal.

    Builds the vector of per-center contrasts and its covariance from the
    per-observation influence contributions (shared nuisance fits are reused
    across centers, and their induced cross-center covariance is kept), then
    tests all differences against center 1 with a chi-square on m−1 degrees
    of freedom. ``fits`` is the fitted-model memo passed to
    ``center_contrasts``, so tests of several estimators on one dataset share
    their common nuisance fits.
    """
    m = data.m
    if m < 2:
        raise InsufficientDataError("homogeneity test needs at least 2 centers")
    if estimator not in HOMOGENEITY_ESTIMATORS:
        raise ParameterError(
            f"homogeneity test supports {', '.join(HOMOGENEITY_ESTIMATORS)} "
            f"(got {estimator!r})"
        )
    records = center_contrasts(data, estimator, a, a_prime, cfg, fits)
    deltas = np.array([rec.value for rec in records])
    influence = np.column_stack([rec.influence for rec in records])

    sigma = np.cov(influence, rowvar=False, ddof=1) / data.n
    # D rows: contrast of each center against center 1
    diffs = deltas[1:] - deltas[0]
    M = sigma[1:, 1:] - sigma[1:, :1] - sigma[:1, 1:] + sigma[0, 0]
    try:
        solved = scipy.linalg.solve(M, diffs, assume_a="sym")
    except (scipy.linalg.LinAlgError, ValueError):
        raise TestError(
            "singular contrast covariance; consider collapsing small centers"
        ) from None
    if not np.all(np.isfinite(solved)):
        raise TestError(
            "singular contrast covariance; consider collapsing small centers"
        )
    statistic = float(diffs @ solved)
    if statistic < 0.0:
        statistic = 0.0
    df = m - 1
    p = float(scipy.stats.chi2.sf(statistic, df))
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
    return DesignSpec.parse(base), DesignSpec.parse(extended)


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
    statistic = ((fit_b.rss - fit_e.rss) / df_num) / (fit_e.rss / df_den)
    if statistic < 0.0:
        statistic = 0.0
    p = float(scipy.stats.f.sf(statistic, df_num, df_den))
    return TestResult(
        statistic=float(statistic), df=(df_num, df_den), p_value=p, test="ancova_f"
    )
