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

import copy
import functools
import os
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import _ONE_BLAS_THREAD
from .dataset import TrialDataset, _integers, _is_number
from .errors import (
    CenterEffectsError,
    InsufficientDataError,
    NoDonorError,
    ParameterError,
    StudyError,
)
from .estimators import KnownProbabilities, NuisanceConfig
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
        if min(_integers("scenario n and m", self.n, self.m)) < 1:
            raise ParameterError(f"scenario n and m must be at least 1, got {self.n} and {self.m}")
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


def _membership_probabilities(scenario, X, _out=None):
    """Category-major (m, n) center probabilities at covariate rows X (n, 3).

    ``_out`` (private) holds the buffers to work in: the (n, 4) design with
    ones in column 0, the (m, n) probabilities, and the softmax's (1, n) max
    and sum.
    """
    coeffs = scenario.effective_membership_coeffs()
    n = X.shape[0]
    if scenario.m == 1:
        return np.ones((1, n))
    design, full, peak, total = _out or (np.ones((n, 4)), np.empty((scenario.m, n)), None, None)
    for j in range(3):  # a column at a time: a (n, 3) block copy is slower
        design[:, j + 1] = X[:, j]
    return reference_softmax(np.matmul(coeffs, design.T, out=full[1:]), axis=0,
                             _out=(full, peak, total))


def _draw_centers(probs, u, _out=None):
    """Inverse-CDF center draw from category-major (m, n) probabilities.

    Subject i draws 1 + the number of its first m − 1 cumulative probabilities
    below u[i]; the sums add the categories in order, one (n,) row at a time.
    ``_out`` (private) holds an (n,) float64 buffer for the running sum and an
    (n,) int64 one for the centers.
    """
    cum, ids = _out or (np.empty(len(u)), np.empty(len(u), dtype=np.int64))
    # counted in the narrowest type that holds m: adding each comparison's
    # byte mask to it takes about half the time of adding the mask to int64
    count = np.ones(len(u), dtype=np.min_scalar_type(len(probs)))
    cum.fill(0.0)
    for p in probs[:-1]:
        cum += p
        count += (u > cum).view(np.uint8)
    ids[:] = count
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


#: draws per chunk: the layout of the oracle's stream, in which each chunk draws
#: all its 3·size normals, then all its size uniforms
_ORACLE_CHUNK = 1_000_000
#: float64 values (512 KiB) in a block's widest per-row buffer: a block then fits
#: a core's L2 cache, and a chunk took about 7% less time than with 2¹⁸ values
_ORACLE_BLOCK_VALUES = 2 ** 16


def _oracle_chunk_sums(scenario, rng, size):
    """Count, Σx1 and Σx1² per center over ``size`` oracle draws, concatenated.

    The chunk's stream is its 3·size normals, then its size uniforms. ``rng``
    draws the normals into one block buffer only to reach the uniforms; a copy
    of its state at the chunk's start then draws each block's normals again,
    beside that block's uniforms from ``rng``. Each block continues the sums by
    one bincount with the sums so far in front: bitwise one bincount per chunk.
    Every per-block array is allocated once per chunk, and the widest per row
    (the m probabilities or the 4-column design) holds at most about
    ``_ORACLE_BLOCK_VALUES`` values. So the chunk's covariates are never held,
    and no block allocates an array large enough for glibc to trim and
    re-fault its heap after the block."""
    m = scenario.m
    rows = min(size, max(1, _ORACLE_BLOCK_VALUES // max(m, 4)))
    twin = copy.deepcopy(rng)
    X = np.empty((rows, 3))
    for done in range(0, size, rows):
        rng.standard_normal(out=X[:size - done])
    design, probs = np.ones((rows, 4)), np.empty(m * rows)
    peak, total, u, cum = np.empty((1, rows)), np.empty((1, rows)), np.empty(rows), np.empty(rows)
    keys = np.concatenate([np.arange(3 * m), np.empty(3 * rows, dtype=np.int64)])
    weights = np.empty(3 * (m + rows))
    sums = np.zeros(3 * m)
    for done in range(0, size, rows):
        r = min(rows, size - done)
        x = twin.standard_normal(out=X[:r])
        p = _membership_probabilities(
            scenario, x, (design[:r], probs[:m * r].reshape(m, r), peak[:, :r], total[:, :r]))
        k0, k1, k2 = keys[3 * m:3 * (m + r)].reshape(3, r)
        w0, w1, w2 = weights[3 * m:3 * (m + r)].reshape(3, r)
        _draw_centers(p, rng.random(out=u[:r]), (cum[:r], k0))  # centers 1..m into k0
        k0 -= 1
        np.add(k0, m, out=k1)
        np.add(k0, 2 * m, out=k2)
        weights[:3 * m] = sums
        w0.fill(1.0)
        w1[:] = x[:, 0]
        np.multiply(w1, w1, out=w2)
        sums = np.bincount(keys[:3 * (m + r)], weights=weights[:3 * (m + r)])
    return sums


@functools.lru_cache(maxsize=32, typed=True)
def true_center_ates(scenario, oracle_n=10_000_000, seed=0):
    """True ATE per center by large-sample Monte Carlo.

    The effect in center c is arm_coeff + interaction · E[X1 | C=c]; the
    conditional mean is accumulated over ``oracle_n`` draws in chunks of
    ``_ORACLE_CHUNK`` (deterministic given ``seed``), one at a time, and each
    chunk one block of rows at a time, so memory is one block's buffers (the
    widest about ``_ORACLE_BLOCK_VALUES`` values), whatever ``oracle_n``; the
    chunks only lay out the stream. ``oracle_n`` and ``seed`` must be
    integers. Cached per (scenario, n, seed) and their types, so a cached
    report never answers a call the integer check refuses (1 and True hash alike).
    """
    oracle_n, seed = _integers("oracle_n and seed", oracle_n, seed)
    if oracle_n < 1 or seed < 0:
        raise ParameterError(f"oracle needs oracle_n >= 1 and seed >= 0, got {oracle_n}, {seed}")
    rng = np.random.default_rng(seed)
    totals = sum(_oracle_chunk_sums(scenario, rng, min(_ORACLE_CHUNK, oracle_n - done))
                 for done in range(0, oracle_n, _ORACLE_CHUNK))
    count, sum_x1, sum_x1sq = np.split(totals, 3)
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
    (value, se, ci_low, ci_high) tuple.
    """
    records = {
        (rec.center, rec.estimator): (rec.value, rec.se, rec.ci_low, rec.ci_high)
        for rec in estimate_effects(data, estimators, arms, configs, alpha)
    }
    sizes = np.bincount(data.center - 1, minlength=data.m)
    return records, sizes


#: cgroup v2 CPU limit, "<quota|max> <period>"; os.sched_getaffinity ignores it
_CGROUP_CPU_MAX = "/sys/fs/cgroup/cpu.max"


def _cpu_quota():
    """CPUs the cgroup v2 quota allows, rounded up; None without a readable quota."""
    try:
        with open(_CGROUP_CPU_MAX) as f:
            quota, period = f.read().split()
        return max(1, -(-int(quota) // int(period)))
    except (OSError, ValueError):  # no cgroup v2 file, or "max": no quota
        return None


def _default_workers(replicates):
    """Replicate processes when ``workers`` is None: one per usable core (the
    affinity mask, within a cgroup v2 CPU quota), at most ``replicates``, when
    BLAS is known to run one thread and workers start by fork. Otherwise 1:
    each worker's BLAS threads would compete for the same cores, and under
    spawn or forkserver every worker re-imports ``__main__``, which a script
    without a ``__name__ == "__main__"`` guard cannot survive."""
    import multiprocessing  # not at module level: analyze never needs it

    start = (multiprocessing.get_start_method(allow_none=True)
             or multiprocessing.get_all_start_methods()[0])  # the first is the default
    if not _ONE_BLAS_THREAD or start != "fork":
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cores = os.cpu_count() or 1
    return min(cores, _cpu_quota() or cores, replicates)


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
    workers=None,
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
    replicates. ``workers`` None means one process per usable core when BLAS
    is known to run one thread (see the package docstring) and the start
    method is fork, and 1 otherwise.
    If the oracle fails or the call is interrupted, queued replicates are
    cancelled and the error is raised. Every worker has ended by the time
    run_study returns or raises.
    """
    estimators, arms = _check_estimators(estimators, arms)
    if arms not in ((1, 0), (0, 1)):  # generate_dataset codes arms 0 and 1
        raise ParameterError(f"simulated trials have arms 0 and 1, got arms {arms}")
    if "chi" in estimators and scenario.m < 2:
        raise NoDonorError("transport estimator needs at least two centers")
    (replicates,) = _integers("replicates", replicates)
    if replicates < 1:
        raise ParameterError("study needs at least 1 replicate")
    if workers is None:
        workers = _default_workers(replicates)
    (workers,) = _integers("workers", workers)
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
            # chunks of at most 8 replicates, and at least one for every worker
            outcomes = pool.map(_worker, args, chunksize=min(8, -(-replicates // workers)))
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
        for c in range(1, m + 1):
            vals, ses, lows, highs = np.array([rec[c, estimator] for rec, _ in kept]).T
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
