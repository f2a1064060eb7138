"""Monte Carlo study: data generation, true-effect oracle, and replication.

The generative model draws three independent standard normal covariates,
assigns each subject to one of m centers through a reference-category
multinomial logit on (1, X1, X2, X3), randomizes treatment Bernoulli(0.5),
and produces a linear outcome with an X1-by-treatment interaction. A second
"strong" configuration doubles the X1 center-selection coefficients and the
outcome interaction, strengthening the separation between centers.

True center-specific effects are not available in closed form (the covariate
distribution within a center is a softmax-tilted normal), so an oracle
computes them by large-sample Monte Carlo, cross-checkable against an
independent Gauss-Hermite quadrature implementation.
"""
from __future__ import annotations

import functools
import numbers
import operator
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dataset import TrialDataset, _is_number
from .errors import (
    CenterEffectsError,
    InsufficientDataError,
    ParameterError,
    StudyError,
)
from .estimators import COMPARATORS, KnownProbabilities, NuisanceConfig
from .inference import _check_estimators, estimate_effects, normal_quantile
from .nuisance import reference_softmax

#: center-selection coefficients, rows k = 2..10, columns (1, X1, X2, X3)
DEFAULT_MEMBERSHIP_COEFFS = (
    (0.75, -0.36, -0.14, 0.36),
    (1.03, -0.18, 0.01, 0.18),
    (0.36, -0.32, -0.04, 0.44),
    (0.48, -0.13, -0.18, 0.35),
    (0.75, -0.47, 0.15, 0.34),
    (0.65, -0.42, -0.24, 0.37),
    (0.76, -0.52, -0.12, 0.34),
    (-0.09, -0.40, -0.09, 0.26),
    (1.46, -0.19, -0.16, 0.28),
)

#: outcome model (intercept, X1, X2, X3, A, X1:A)
DEFAULT_OUTCOME_COEFFS = (161.0, 62.0, -1.0, -1.0, -43.0, -21.0)

STRENGTHS = ("baseline", "strong")


def _float_rows(name, rows):
    """Rows of floats from lists of numbers; ParameterError naming ``name`` otherwise."""
    try:
        if all(_is_number(v) and np.isfinite(v) for row in rows for v in row):
            return tuple(tuple(float(v) for v in row) for row in rows)
    except TypeError:  # a row, or the whole, is not a list
        pass
    raise ParameterError(f"scenario {name} must hold only finite numbers")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one generative configuration.

    ``strength`` "strong" doubles (a) the X1 center-selection coefficients
    (the reading that reproduces the published operating characteristics)
    and (b) the magnitude of the outcome interaction.
    """

    n: int = 1000
    m: int = 10
    membership_coeffs: tuple = DEFAULT_MEMBERSHIP_COEFFS
    outcome_coeffs: tuple = DEFAULT_OUTCOME_COEFFS
    noise_sd: float = 36.0
    arm_prob: float = 0.5
    strength: str = "baseline"

    def __post_init__(self):
        for name in ("n", "m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
                raise ParameterError(f"scenario {name} must be an integer >= 1, got {value!r}")
        object.__setattr__(
            self, "membership_coeffs", _float_rows("membership_coeffs", self.membership_coeffs)
        )
        object.__setattr__(
            self, "outcome_coeffs", _float_rows("outcome_coeffs", [self.outcome_coeffs])[0]
        )
        rows = len(self.membership_coeffs)
        if rows != self.m - 1 or any(len(r) != 4 for r in self.membership_coeffs):
            raise ParameterError(
                f"membership coefficients must be (m-1) x 4; got {rows} rows for m={self.m}"
            )
        if len(self.outcome_coeffs) != 6:
            raise ParameterError("outcome coefficients must have 6 entries")
        if not (_is_number(self.arm_prob) and 0.0 < self.arm_prob < 1.0):
            raise ParameterError(f"arm_prob must lie in (0,1), got {self.arm_prob!r}")
        if not (_is_number(self.noise_sd) and 0.0 <= self.noise_sd < np.inf):
            raise ParameterError(f"noise_sd must be finite and nonnegative, got {self.noise_sd!r}")
        if self.strength not in STRENGTHS:
            raise ParameterError(f"strength must be one of {STRENGTHS}")

    # -- effective (strength-adjusted) parameters ----------------------------

    def effective_membership_coeffs(self):
        """(m-1, 4) array with the strong-scenario doubling applied."""
        coeffs = np.array(self.membership_coeffs, dtype=np.float64)
        if self.strength == "strong" and coeffs.size:
            coeffs[:, 1] *= 2.0  # the X1 column
        return coeffs

    def effective_outcome_coeffs(self):
        """(intercept, x1, x2, x3, arm, x1:arm) with the interaction doubled when strong."""
        out = list(self.outcome_coeffs)
        if self.strength == "strong":
            out[5] *= 2.0
        return tuple(out)

    @classmethod
    def baseline(cls, **overrides):
        return cls(strength="baseline", **overrides)

    @classmethod
    def strong(cls, **overrides):
        return cls(strength="strong", **overrides)

    def to_dict(self):
        return {
            **asdict(self),
            "membership_coeffs": [list(r) for r in self.membership_coeffs],
            "outcome_coeffs": list(self.outcome_coeffs),
        }

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ParameterError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**d)


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def _membership_probabilities(scenario, X):
    """Category-major (m, n) center probabilities at covariate rows X (n, 3)."""
    coeffs = scenario.effective_membership_coeffs()
    if scenario.m == 1:
        return np.ones((1, X.shape[0]))
    design = np.concatenate([np.ones((X.shape[0], 1)), X], axis=1)
    return reference_softmax(coeffs @ design.T, axis=0)


def _draw_centers(probs, u):
    """Inverse-CDF center draw from category-major (m, n) probabilities.

    Subject i draws 1 + the number of its first m − 1 cumulative probabilities
    below u[i]; the sums add the categories in order, one (n,) row at a time.
    """
    cum = np.zeros(len(u))
    ids = np.ones(len(u), dtype=np.int64)
    for p in probs[:-1]:
        cum += p
        ids += u > cum
    return ids


def generate_dataset(scenario, seed):
    """One simulated trial. Deterministic given ``seed``.

    Draw order: covariates (n x 3 standard normal), center-assignment
    uniforms, treatment uniforms, outcome noise.
    """
    rng = np.random.default_rng(seed)
    n = scenario.n
    X = rng.standard_normal((n, 3))
    centers = _draw_centers(_membership_probabilities(scenario, X), rng.random(n))
    arm = (rng.random(n) < scenario.arm_prob).astype(np.int64)
    noise = scenario.noise_sd * rng.standard_normal(n)
    b0, b1, b2, b3, barm, binter = scenario.effective_outcome_coeffs()
    y = (
        b0
        + b1 * X[:, 0]
        + b2 * X[:, 1]
        + b3 * X[:, 2]
        + barm * arm
        + binter * X[:, 0] * arm
        + noise
    )
    return TrialDataset(
        covariates=X,
        covariate_names=("x1", "x2", "x3"),
        center=centers,
        arm=arm,
        outcome=y,
        center_labels=tuple(range(1, scenario.m + 1)),
    )


# ---------------------------------------------------------------------------
# true-effect oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    """True center-specific average treatment effects and their precision."""

    values: tuple  # per center 1..m
    mc_se: tuple  # Monte Carlo SE per center (0 for quadrature)
    draws: int
    seed: int
    method: str  # "monte_carlo" | "quadrature"

    def to_dict(self):
        return {
            "true_ate": list(self.values),
            "mc_se": list(self.mc_se),
            "draws": self.draws,
            "seed": self.seed,
            "method": self.method,
        }


_ORACLE_CHUNK = 1_000_000  # draws per chunk: X, u and the centers are drawn whole
_ORACLE_BLOCK_VALUES = 2 ** 18  # float64 values (2 MiB) in one block of (m, rows) probabilities


def _integers(what, *values):
    """``values`` as Python ints; ParameterError naming ``what`` for any that is not an integer."""
    try:
        return [operator.index(v) for v in values]
    except TypeError:
        raise ParameterError(f"{what} must be integers, got {values}") from None


@functools.lru_cache(maxsize=32)
def true_center_ates(scenario, oracle_n=10_000_000, seed=0):
    """True ATE per center by large-sample Monte Carlo.

    The effect in center c is arm_coeff + interaction · E[X1 | C=c]; the
    conditional mean is accumulated over ``oracle_n`` draws in chunks of
    ``_ORACLE_CHUNK`` (deterministic given ``seed``). A chunk's covariates and
    uniforms are drawn whole, and its centers are assigned over row blocks of
    about ``_ORACLE_BLOCK_VALUES`` membership probabilities; a center depends
    only on its own row, so the blocks change no draw. Memory is one chunk of
    draws plus one block, whatever ``oracle_n``. ``oracle_n`` and ``seed``
    must be integers. Cached per (scenario, n, seed).
    """
    oracle_n, seed = _integers("oracle_n and seed", oracle_n, seed)
    if oracle_n < 1 or seed < 0:
        raise ParameterError(f"oracle needs oracle_n >= 1 and seed >= 0, got {oracle_n}, {seed}")
    rng = np.random.default_rng(seed)
    m = scenario.m
    block = max(1, _ORACLE_BLOCK_VALUES // m)
    count = np.zeros(m)
    sum_x1 = np.zeros(m)
    sum_x1sq = np.zeros(m)
    remaining = oracle_n
    while remaining > 0:
        size = min(_ORACLE_CHUNK, remaining)
        remaining -= size
        X = rng.standard_normal((size, 3))
        u = rng.random(size)
        centers = np.empty(size, dtype=np.int64)
        for start in range(0, size, block):
            b = slice(start, start + block)
            centers[b] = _draw_centers(_membership_probabilities(scenario, X[b]), u[b])
        x1 = X[:, 0]
        count += np.bincount(centers - 1, minlength=m)
        sum_x1 += np.bincount(centers - 1, weights=x1, minlength=m)
        sum_x1sq += np.bincount(centers - 1, weights=x1 * x1, minlength=m)
    if np.any(count == 0):
        empty = [int(c + 1) for c in np.nonzero(count == 0)[0]]
        raise InsufficientDataError(f"no oracle draws fell in centers {empty}")
    _, _, _, _, barm, binter = scenario.effective_outcome_coeffs()
    mean_x1 = sum_x1 / count
    var_x1 = np.maximum(sum_x1sq / count - mean_x1 ** 2, 0.0)
    values = barm + binter * mean_x1
    mc_se = abs(binter) * np.sqrt(var_x1 / count)
    return OracleReport(
        values=tuple(float(v) for v in values),
        mc_se=tuple(float(s) for s in mc_se),
        draws=oracle_n,
        seed=seed,
        method="monte_carlo",
    )


def true_center_ate(scenario, c, oracle_n=10_000_000, seed=0):
    """True ATE of one center (Monte Carlo oracle; see true_center_ates)."""
    if not 1 <= c <= scenario.m:
        raise ParameterError(f"center {c} outside 1..{scenario.m}")
    return true_center_ates(scenario, oracle_n, seed).values[c - 1]


def true_center_ates_quadrature(scenario, nodes=40):
    """Independent oracle: tensor-product Gauss-Hermite quadrature.

    Computes E[X1 | C=c] = E[X1 p_c(X)] / E[p_c(X)] over the standard normal
    covariate law on a ``nodes``³ grid; no randomness involved. Used to
    cross-check the Monte Carlo oracle.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()  # normalize the N(0,1) weights exactly
    g1, g2, g3 = np.meshgrid(x, x, x, indexing="ij")
    X = np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()])
    w1, w2, w3 = np.meshgrid(w, w, w, indexing="ij")
    weights = (w1 * w2 * w3).ravel()
    # row-major (N, m): BLAS then sums the N terms in the order it always has
    probs = np.ascontiguousarray(_membership_probabilities(scenario, X).T)
    mass = weights @ probs  # E[p_c(X)] per center
    tilted = (weights * X[:, 0]) @ probs  # E[X1 p_c(X)] per center
    _, _, _, _, barm, binter = scenario.effective_outcome_coeffs()
    values = barm + binter * (tilted / mass)
    return OracleReport(
        values=tuple(float(v) for v in values),
        mc_se=tuple(0.0 for _ in range(scenario.m)),
        draws=nodes ** 3,
        seed=0,
        method="quadrature",
    )


# ---------------------------------------------------------------------------
# study configuration
# ---------------------------------------------------------------------------

DEFAULT_ESTIMATORS = ("tau", "phi", "psi", "pooled", "fe1", "fe2")


def default_nuisance_configs(covariate_names, known_arm_prob=None):
    """Per-estimator nuisance specifications used by the study and the CLI.

    phi: within-arm outcome model with covariates and center indicators,
    intercept-only fitted treatment model. psi/chi: pooled covariate-only
    outcome model plus a covariate membership model; chi's treatment model is
    the known randomization probability when supplied, else fitted.
    """
    covs = list(covariate_names)
    main = ["1"] + covs
    if known_arm_prob is None:
        chi_treatment = ["1"]
    else:
        chi_treatment = KnownProbabilities.constant(known_arm_prob)
    return {
        "phi": NuisanceConfig(outcome_spec=main + ["C"], treatment_spec=["1"]),
        "psi": NuisanceConfig(
            outcome_spec=main, treatment_spec=["1"], membership_spec=main
        ),
        "chi": NuisanceConfig(
            outcome_spec=main, treatment_spec=chi_treatment, membership_spec=main
        ),
    }


# ---------------------------------------------------------------------------
# replication harness
# ---------------------------------------------------------------------------


def _replicate_records(data, estimators, arms, configs, alpha):
    """All requested contrast estimates on one dataset.

    Returns (records, center_sizes); records maps (center, estimator) to a
    (value, se, ci_low, ci_high) tuple, with center 0 for the single-number
    comparators.
    """
    records = {
        (rec.center, rec.estimator): (rec.value, rec.se, rec.ci_low, rec.ci_high)
        for rec in estimate_effects(data, estimators, arms, configs, alpha)
    }
    sizes = np.bincount(data.center - 1, minlength=data.m)
    return records, sizes


def _worker(args):
    scenario, master_seed, r, estimators, arms, configs, alpha = args
    try:
        data = generate_dataset(scenario, seed=(master_seed, r))
        return _replicate_records(data, estimators, arms, configs, alpha)
    except (CenterEffectsError, np.linalg.LinAlgError) as exc:
        return exc


@dataclass(frozen=True)
class CellSummary:
    """Operating characteristics of one estimator in one center."""

    center: int
    estimator: str
    true_value: float
    bias: float
    mse: float
    coverage: float
    avg_ci_width: float
    avg_se: float
    empirical_sd: float  # None when replicates == 1
    avg_n_c: float
    bias_mc_se: float  # Monte Carlo SE of the bias estimate

    def to_dict(self):
        return asdict(self)


@dataclass(frozen=True)
class StudyReport:
    """Aggregated simulation results.

    ``cells`` maps (center, estimator) to a CellSummary. ``generator``
    documents the random stream: each replicate r draws from a fresh
    generator seeded with (master_seed, r), so results are identical under
    any execution order or worker count.
    """

    scenario: Scenario
    cells: dict
    replicates: int
    seed: int
    arms: tuple
    alpha: float
    estimators: tuple
    failures: int
    oracle: OracleReport
    generator: str = "numpy default_rng(PCG64), seeded (master_seed, replicate)"

    def cell(self, center, estimator):
        return self.cells[(center, estimator)]

    def metric_table(self, metric):
        """(header, rows): one row per center, one column per estimator."""
        header = ["center"] + list(self.estimators)
        rows = []
        for c in range(1, self.scenario.m + 1):
            row = [c]
            for est in self.estimators:
                cell = self.cells[(c, est)]
                row.append(getattr(cell, metric))
            rows.append(row)
        return header, rows

    def to_dict(self):
        return {
            "scenario": self.scenario.to_dict(),
            "replicates": self.replicates,
            "seed": self.seed,
            "arms": list(self.arms),
            "alpha": self.alpha,
            "estimators": list(self.estimators),
            "failures": self.failures,
            "generator": self.generator,
            "oracle": self.oracle.to_dict(),
            "cells": [self.cells[k].to_dict() for k in sorted(self.cells)],
        }


def run_study(
    scenario,
    replicates=1000,
    estimators=DEFAULT_ESTIMATORS,
    master_seed=0,
    arms=(1, 0),
    alpha=0.05,
    oracle_n=10_000_000,
    oracle_seed=0,
    oracle=None,
    workers=1,
):
    """Replicate the design ``replicates`` times and aggregate per center.

    Per replicate r: generate a dataset seeded by (master_seed, r), estimate
    the requested center-specific contrasts with influence-curve SEs and
    (1−alpha) intervals, and compare against the oracle truth. Replicates on
    which any estimator fails are dropped and counted; more than 2% failures
    aborts the study. Deterministic given master_seed, for any ``workers``.

    The replicates go to an executor, ``workers`` processes when workers > 1
    and one thread otherwise, while the calling thread computes the oracle
    (unless ``oracle`` is supplied; it must hold m finite values). The
    oracle's large array operations release the GIL, so it runs beside the
    replicates. If the oracle fails or the call is interrupted, queued
    replicates are cancelled and the error is raised.
    """
    arms = (int(arms[0]), int(arms[1]))
    estimators = _check_estimators(estimators, arms)
    if replicates < 1:
        raise ParameterError("study needs at least 1 replicate")
    if workers < 1:
        raise ParameterError(f"workers must be at least 1, got {workers}")
    master_seed, oracle_seed, oracle_n = _integers(
        "seed, oracle_seed and oracle_n", master_seed, oracle_seed, oracle_n
    )
    if min(master_seed, oracle_seed) < 0 or oracle_n < 1:
        raise ParameterError("the study needs seed, oracle_seed >= 0 and oracle_n >= 1, got "
                             f"{master_seed}, {oracle_seed} and {oracle_n}")
    normal_quantile(alpha)  # ParameterError for an alpha outside (0, 1)

    if oracle is not None and (len(oracle.values) != scenario.m
                               or not np.all(np.isfinite(oracle.values))):
        raise ParameterError(f"oracle values must be {scenario.m} finite numbers")
    import concurrent.futures  # not at module level: analyze never needs it

    configs = default_nuisance_configs(("x1", "x2", "x3"), known_arm_prob=scenario.arm_prob)
    args = [(scenario, master_seed, r, estimators, arms, configs, alpha)
            for r in range(replicates)]
    pool = (concurrent.futures.ProcessPoolExecutor(max_workers=workers) if workers > 1
            else concurrent.futures.ThreadPoolExecutor(max_workers=1))
    with pool:
        try:
            outcomes = pool.map(_worker, args, chunksize=8)
            if oracle is None:
                oracle = true_center_ates(scenario, oracle_n, oracle_seed)
            results = list(outcomes)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    if arms == (0, 1):
        oracle = replace(oracle, values=tuple(-float(v) for v in oracle.values))

    failures = sum(1 for res in results if isinstance(res, Exception))
    if failures > 0.02 * replicates:
        raise StudyError(
            f"{failures} of {replicates} replicates failed (>2%); "
            "the scenario appears incompatible with the requested estimators"
        )
    kept = [res for res in results if not isinstance(res, Exception)]

    m = scenario.m
    size_sum = np.zeros(m)
    for _, sizes in kept:
        size_sum += sizes
    avg_sizes = size_sum / len(kept)

    cells = {}
    for estimator in estimators:
        comparator = estimator in COMPARATORS
        for c in range(1, m + 1):
            key = (0, estimator) if comparator else (c, estimator)
            vals, ses, lows, highs = np.array([rec[key] for rec, _ in kept]).T
            truth = float(oracle.values[c - 1])
            covered = (lows <= truth) & (truth <= highs)
            R = len(vals)
            cells[(c, estimator)] = CellSummary(
                center=c,
                estimator=estimator,
                true_value=truth,
                bias=float(vals.mean() - truth),
                mse=float(((vals - truth) ** 2).mean()),
                coverage=float(covered.mean()),
                avg_ci_width=float((highs - lows).mean()),
                avg_se=float(ses.mean()),
                empirical_sd=float(vals.std(ddof=1)) if R > 1 else None,
                avg_n_c=float(avg_sizes[c - 1]),
                bias_mc_se=float(vals.std(ddof=1) / np.sqrt(R)) if R > 1 else None,
            )

    return StudyReport(
        scenario=scenario,
        cells=cells,
        replicates=replicates,
        seed=int(master_seed),
        arms=arms,
        alpha=alpha,
        estimators=estimators,
        failures=failures,
        oracle=oracle,
    )
