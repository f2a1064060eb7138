"""Acceptance suite: one end-to-end check per release criterion.

Run `pytest tests/test_acceptance.py -v -s` to get a visible PASS/FAIL line
per criterion. The two 1000-replicate studies, the large-sample robustness
sweep, and the test-calibration studies dominate the runtime (several
minutes total on one core). Every random quantity is driven by a fixed,
documented master seed, so reruns are bit-reproducible.
"""

import dataclasses
import time
import warnings

import numpy as np
import pytest
import scipy.stats

import centereffects as ce
from centereffects.estimators import (
    FittedNuisances,
    FixedNuisances,
    estimate_phi,
    estimate_psi,
    estimate_tau,
)
from centereffects.nuisance import build_design, fit_logistic, fit_multinomial, fit_ols


# ---------------------------------------------------------------------------
# frozen reference values for the replicated studies
#
# Per-center expectations at 1000 replicates, n=1000. The tolerance bands
# absorb the Monte Carlo noise of both this run and the reference run, so
# they are checks of reproduction, not of asymptotic truth.
# ---------------------------------------------------------------------------

ESTIMATOR_COLS = ("tau", "phi", "psi", "pooled", "fe1", "fe2")

STRONG_BIAS = {  # center -> (tau, phi, psi, pooled, fe1, fe2)
    1: (-0.31, -0.25, -0.16, 22.60, 22.61, 22.58),
    2: (0.41, 0.24, -0.15, -5.10, -5.09, -5.12),
    3: (-0.47, -0.38, -0.16, 8.83, 8.84, 8.81),
    4: (-0.04, -0.24, -0.13, -1.92, -1.91, -1.94),
    5: (-0.53, -0.12, -0.14, 12.97, 12.98, 12.95),
    6: (-0.42, -0.18, -0.13, -13.57, -13.56, -13.60),
    7: (0.43, 0.36, -0.18, -9.76, -9.75, -9.78),
    8: (-0.04, -0.16, -0.14, -17.57, -17.56, -17.59),
    9: (-0.67, -0.60, -0.13, -8.12, -8.11, -8.14),
    10: (0.03, -0.26, -0.14, 8.02, 8.03, 7.99),
}

STRONG_MSE = {  # center -> (tau, psi)
    1: (218.01, 35.97),
    2: (127.63, 22.51),
    3: (97.58, 19.13),
    4: (199.89, 31.35),
    5: (162.56, 27.06),
    6: (116.04, 21.29),
    7: (140.35, 24.11),
    8: (121.16, 20.88),
    9: (327.29, 40.93),
    10: (60.72, 13.12),
}

BASELINE_BIAS = {
    1: (-0.09, 0.15, -0.17, 6.00, 6.00, 5.96),
    2: (-0.04, 0.14, -0.14, -1.37, -1.38, -1.41),
    3: (-0.10, -0.20, -0.16, 2.21, 2.20, 2.17),
    4: (-0.94, -0.38, -0.11, -0.59, -0.59, -0.63),
    5: (-0.61, -0.06, -0.14, 3.32, 3.32, 3.28),
    6: (-0.51, -0.19, -0.13, -3.59, -3.60, -3.63),
    7: (0.08, -0.35, -0.16, -2.54, -2.54, -2.58),
    8: (0.41, 0.16, -0.15, -4.72, -4.73, -4.76),
    9: (0.81, 0.23, -0.15, -2.33, -2.34, -2.37),
    10: (-0.22, -0.35, -0.15, 2.03, 2.03, 1.99),
}

BASELINE_MSE = {
    1: (298.58, 14.68),
    2: (147.41, 9.49),
    3: (114.44, 8.90),
    4: (241.36, 11.83),
    5: (206.60, 9.79),
    6: (158.16, 9.90),
    7: (186.56, 9.68),
    8: (144.92, 10.04),
    9: (385.45, 16.10),
    10: (80.86, 6.89),
}

BIAS_TOL_ESTIMATOR = 1.0
BIAS_TOL_COMPARATOR = 2.0
MSE_RTOL = 0.15
COVERAGE_BAND = (0.92, 0.97)
SE_CALIBRATION_RTOL = 0.10
SIZE_BAND = (0.035, 0.065)

# fixed master seeds for each replicated component (documented; reruns are
# deterministic, and the algebraic/calibration checks below are seed-free)
STRONG_SEED = 41
BASELINE_SEED = 127
ROBUSTNESS_SEED = 123
HOMOGENEITY_SIZE_SEED = 1
ANCOVA_SIZE_SEED = 11
ORACLE_DRAWS = 10_000_000
ORACLE_SEED = 2


def report_line(num, ok, detail):
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def _run_study(scenario, estimators, master_seed):
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = ce.run_study(
            scenario,
            replicates=1000,
            estimators=estimators,
            master_seed=master_seed,
            oracle_n=ORACLE_DRAWS,
            oracle_seed=ORACLE_SEED,
        )
    return rep, time.time() - t0


@pytest.fixture(scope="module")
def strong_study():
    return _run_study(
        ce.Scenario.strong(),
        ("tau", "phi", "psi", "chi", "pooled", "fe1", "fe2"),
        STRONG_SEED,
    )


@pytest.fixture(scope="module")
def baseline_study():
    return _run_study(
        ce.Scenario.baseline(),
        ("tau", "phi", "psi", "pooled", "fe1", "fe2"),
        BASELINE_SEED,
    )


def worst_bias_deviations(rep, table):
    """(worst estimator deviation, worst comparator deviation) vs a table."""
    worst_est = worst_cmp = 0.0
    for c, refs in table.items():
        for j, est in enumerate(ESTIMATOR_COLS):
            dev = abs(rep.cell(c, est).bias - refs[j])
            if est in ("tau", "phi", "psi"):
                worst_est = max(worst_est, dev)
            else:
                worst_cmp = max(worst_cmp, dev)
    return worst_est, worst_cmp


def worst_mse_ratio(rep, table):
    worst = 0.0
    for c, (ref_tau, ref_psi) in table.items():
        worst = max(worst, abs(rep.cell(c, "tau").mse / ref_tau - 1.0))
        worst = max(worst, abs(rep.cell(c, "psi").mse / ref_psi - 1.0))
    return worst


def coverage_range(rep):
    values = [
        rep.cell(c, est).coverage
        for c in range(1, 11)
        for est in ("tau", "phi", "psi")
    ]
    return min(values), max(values)


# ---------------------------------------------------------------------------
# criteria 1-5: replicated-study reproduction
# ---------------------------------------------------------------------------


def test_criterion_01_strong_bias(strong_study):
    rep, elapsed = strong_study
    worst_est, worst_cmp = worst_bias_deviations(rep, STRONG_BIAS)
    ok = worst_est <= BIAS_TOL_ESTIMATOR and worst_cmp <= BIAS_TOL_COMPARATOR
    report_line(
        1, ok,
        f"strong bias: worst estimator deviation {worst_est:.2f} (tol "
        f"{BIAS_TOL_ESTIMATOR}), worst comparator deviation {worst_cmp:.2f} "
        f"(tol {BIAS_TOL_COMPARATOR}); 1000 replicates in {elapsed:.0f}s",
    )


def test_criterion_02_strong_mse(strong_study):
    rep, _ = strong_study
    worst = worst_mse_ratio(rep, STRONG_MSE)
    ordered = all(
        rep.cell(c, "psi").mse < rep.cell(c, "phi").mse < rep.cell(c, "tau").mse
        for c in range(1, 11)
    )
    ok = worst <= MSE_RTOL and ordered
    report_line(
        2, ok,
        f"strong MSE: worst tau/psi deviation {worst:.1%} (tol {MSE_RTOL:.0%}); "
        f"psi<phi<tau ordering in all centers: {ordered}",
    )


def test_criterion_03_strong_coverage(strong_study):
    rep, _ = strong_study
    lo, hi = coverage_range(rep)
    ok = COVERAGE_BAND[0] <= lo and hi <= COVERAGE_BAND[1]
    report_line(
        3, ok,
        f"strong coverage: all tau/phi/psi centers in [{lo:.3f}, {hi:.3f}] "
        f"(band {COVERAGE_BAND})",
    )


def test_criterion_04_se_calibration(strong_study):
    rep, _ = strong_study
    worst = max(
        abs(rep.cell(c, est).avg_se / rep.cell(c, est).empirical_sd - 1.0)
        for c in range(1, 11)
        for est in ("phi", "psi")
    )
    ok = worst <= SE_CALIBRATION_RTOL
    report_line(
        4, ok,
        f"influence-curve SE vs empirical SD (phi, psi): worst deviation "
        f"{worst:.1%} (tol {SE_CALIBRATION_RTOL:.0%})",
    )


def test_criterion_05_baseline_repeat(baseline_study):
    rep, elapsed = baseline_study
    worst_est, worst_cmp = worst_bias_deviations(rep, BASELINE_BIAS)
    worst_mse = worst_mse_ratio(rep, BASELINE_MSE)
    lo, hi = coverage_range(rep)
    ok = (
        worst_est <= BIAS_TOL_ESTIMATOR
        and worst_cmp <= BIAS_TOL_COMPARATOR
        and worst_mse <= MSE_RTOL
        and COVERAGE_BAND[0] <= lo
        and hi <= COVERAGE_BAND[1]
    )
    report_line(
        5, ok,
        f"baseline repeat of 1-3: bias devs {worst_est:.2f}/{worst_cmp:.2f}, "
        f"MSE dev {worst_mse:.1%}, coverage [{lo:.3f}, {hi:.3f}]; "
        f"1000 replicates in {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# criterion 6: algebraic identities
# ---------------------------------------------------------------------------


def random_dataset(rng):
    n = int(rng.integers(8, 51))
    m = int(rng.integers(1, 4))
    base_c = np.repeat(np.arange(1, m + 1), 2)
    base_a = np.tile([0, 1], m)
    centers = np.concatenate([base_c, rng.integers(1, m + 1, size=n - base_c.size)])
    arms = np.concatenate([base_a, rng.integers(0, 2, size=n - base_a.size)])
    return ce.from_arrays(
        covariates=rng.standard_normal((n, 2)),
        center=centers,
        arm=arms,
        outcome=rng.standard_normal(n) * 3.0 + 1.0,
    )


def test_criterion_06_algebraic_identities():
    rng = np.random.default_rng(106)

    # (a) dr -> ipw when the outcome predictions are identically zero, and
    #     dr -> om when the outcome predictions reproduce Y exactly (bitwise)
    reductions_exact = True
    for _ in range(10):
        d = random_dataset(rng)
        e = rng.uniform(0.2, 0.8, size=d.n)
        p = rng.uniform(0.2, 0.8, size=d.n)
        membership = np.column_stack([p, 1.0 - p]) if d.m == 2 else None
        for a in (0, 1):
            probs = {a: e if a == 1 else 1.0 - e}
            zero = FixedNuisances(outcome={a: np.zeros(d.n)}, arm_probabilities=probs,
                                  membership=membership)
            bare = FixedNuisances(arm_probabilities=probs, membership=membership)
            exact = FixedNuisances(outcome={a: d.outcome.copy()},
                                   arm_probabilities=probs, membership=membership)
            targets = [estimate_phi] + ([estimate_psi] if d.m == 2 else [])
            for fn in targets:
                for c in range(1, d.m + 1):
                    dr0 = fn(d, c, a, cfg=None, variant="dr", nuisances=zero)
                    ipw = fn(d, c, a, cfg=None, variant="ipw", nuisances=bare)
                    drx = fn(d, c, a, cfg=None, variant="dr", nuisances=exact)
                    om = fn(d, c, a, cfg=None, variant="om", nuisances=exact)
                    reductions_exact &= dr0.value == ipw.value
                    reductions_exact &= drx.value == om.value
                    reductions_exact &= np.array_equal(dr0.influence, ipw.influence)
                    reductions_exact &= np.array_equal(drx.influence, om.influence)

    # (b) phi collapses to tau under per-(center, arm) intercept-only outcome
    #     models and empirical within-center arm proportions
    worst_gap = 0.0
    checked = 0
    for _ in range(100):
        d = random_dataset(rng)
        counts = np.zeros((d.m, 2))
        for c in range(1, d.m + 1):
            for j, a in enumerate((0, 1)):
                counts[c - 1, j] = np.sum((d.center == c) & (d.arm == a))
        cfg = ce.NuisanceConfig(
            outcome_spec=["1", "C"],
            treatment_spec=ce.KnownProbabilities(counts / counts.sum(1, keepdims=True)),
        )
        for c in range(1, d.m + 1):
            for a in (0, 1):
                gap = abs(estimate_phi(d, c, a, cfg).value - estimate_tau(d, c, a).value)
                worst_gap = max(worst_gap, gap)
                checked += 1
    ok = reductions_exact and worst_gap < 1e-10 and checked >= 100
    report_line(
        6, ok,
        f"dr/ipw/om reductions bitwise: {reductions_exact}; phi=tau on "
        f"{checked} random cells, worst gap {worst_gap:.2e} (tol 1e-10)",
    )


# ---------------------------------------------------------------------------
# criterion 7: double robustness at large n
# ---------------------------------------------------------------------------


def test_criterion_07_double_robustness():
    # A single draw of either estimator at n=1e5 still carries per-center
    # sampling noise of the order of the 0.5 tolerance (the deliberately
    # broken outcome model leaves the 62*x1 signal in the weighted residual),
    # so the bound is checked on the Monte Carlo average over replicate
    # datasets: that is the estimator's systematic error, which double
    # robustness says must vanish.
    scenario = ce.Scenario.baseline(n=100_000)
    truth = np.asarray(ce.true_center_ates_quadrature(scenario).values)
    known = ce.KnownProbabilities.constant(0.5)
    configs = {
        "phi wrong outcome": ("phi", "dr", ce.NuisanceConfig(
            outcome_spec=["1", "x2", "x3"], treatment_spec=known)),
        "phi uncorrected (guard)": ("phi", "om", ce.NuisanceConfig(
            outcome_spec=["1", "x2", "x3"], treatment_spec=known)),
        "psi wrong outcome": ("psi", "dr", ce.NuisanceConfig(
            outcome_spec=["1", "x2", "x3"], treatment_spec=known,
            membership_spec=["1", "x1", "x2", "x3"])),
        "psi wrong membership": ("psi", "dr", ce.NuisanceConfig(
            outcome_spec=["1", "x1", "x2", "x3"], treatment_spec=known,
            membership_spec=["1"])),
    }
    replicates = 60
    errors = {name: [] for name in configs}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(replicates):
            data = ce.generate_dataset(scenario, seed=(ROBUSTNESS_SEED, r))
            for name, (est, variant, cfg) in configs.items():
                bundle = FittedNuisances(data, cfg)
                vals = [
                    ce.estimate_contrast(data, est, c, 1, 0, cfg, variant=variant,
                                         nuisances=bundle).value
                    for c in range(1, 11)
                ]
                errors[name].append(np.asarray(vals) - truth)

    bias = {name: np.mean(errs, axis=0) for name, errs in errors.items()}
    dev = {name: float(np.abs(b).max()) for name, b in bias.items()}
    # the uncorrected plug-in under the same wrong outcome model must be
    # visibly biased, otherwise the misspecification has no teeth
    guard = dev.pop("phi uncorrected (guard)")
    ok = all(v < 0.5 for v in dev.values()) and guard > 2.0
    report_line(
        7, ok,
        f"n=1e5, {replicates}-replicate average vs oracle: "
        + ", ".join(f"{k} {v:.2f}" for k, v in dev.items())
        + f" (tol 0.5); uncorrected plug-in bias {guard:.1f} (must exceed 2)",
    )


# ---------------------------------------------------------------------------
# criterion 8: efficiency ordering
# ---------------------------------------------------------------------------


def test_criterion_08_efficiency_ordering(strong_study):
    rep, _ = strong_study
    ok_phi = all(
        rep.cell(c, "psi").empirical_sd <= rep.cell(c, "phi").empirical_sd
        for c in range(1, 11)
    )
    ok_chi = all(
        rep.cell(c, "psi").empirical_sd <= rep.cell(c, "chi").empirical_sd
        for c in range(1, 11)
    )
    report_line(
        8, ok_phi and ok_chi,
        f"empirical SD ordering over 1000 replicates: sd(psi)<=sd(phi) all "
        f"centers: {ok_phi}; sd(psi)<=sd(chi) all centers: {ok_chi}",
    )


# ---------------------------------------------------------------------------
# criterion 9: test calibration under the respective nulls
# ---------------------------------------------------------------------------


def test_criterion_09_test_calibration():
    replicates = 1000
    # homogeneity null: no effect modification, so every center shares one
    # true effect even though membership still depends on the covariates
    flat = dataclasses.replace(
        ce.Scenario.baseline(),
        outcome_coeffs=(161.0, 62.0, -1.0, -1.0, -43.0, 0.0),
    )
    base = ce.Scenario.baseline()

    rej_wald = rej_f = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for r in range(replicates):
            d0 = ce.generate_dataset(flat, seed=(HOMOGENEITY_SIZE_SEED, r))
            rej_wald += ce.homogeneity_test(d0, "tau", 1, 0).p_value < 0.05
            d1 = ce.generate_dataset(base, seed=(ANCOVA_SIZE_SEED, r))
            spec_b, spec_e = ce.default_assumption_specs(d1)
            rej_f += ce.ancova_center_outcome_test(d1, spec_b, spec_e).p_value < 0.05
    size_wald = rej_wald / replicates
    size_f = rej_f / replicates

    # duplicated centers: identical per-center estimates, statistic exactly 0
    rng = np.random.default_rng(11)
    n1 = 60
    X = rng.normal(size=(n1, 2))
    arm = np.tile([0, 1], n1 // 2)
    y = 2.0 + X[:, 0] + 1.5 * arm + rng.normal(size=n1)
    dup = ce.from_arrays(
        np.vstack([X, X]),
        np.r_[np.ones(n1, dtype=int), np.full(n1, 2, dtype=int)],
        np.r_[arm, arm],
        np.r_[y, y],
    )
    dup_result = ce.homogeneity_test(dup, "tau", 1, 0)

    ok = (
        SIZE_BAND[0] <= size_wald <= SIZE_BAND[1]
        and SIZE_BAND[0] <= size_f <= SIZE_BAND[1]
        and dup_result.statistic == 0.0
        and dup_result.p_value == 1.0
    )
    report_line(
        9, ok,
        f"size at alpha=0.05 over {replicates} replicates: homogeneity Wald "
        f"{size_wald:.3f}, center-outcome F {size_f:.3f} (band {SIZE_BAND}); "
        f"duplicated-center statistic {dup_result.statistic!r}",
    )


# ---------------------------------------------------------------------------
# criterion 10: numerical kernels
# ---------------------------------------------------------------------------

# survival values computed independently with 50-digit arithmetic via the
# regularized incomplete gamma (chi-square) and beta (F) integrals
CHI2_SF_GRID = [
    (1, 0.1, 0.75182963404584928),
    (1, 1.0, 0.3173105078629141),
    (1, 5.0, 0.025347318677468264),
    (1, 20.0, 7.7442164310440836e-6),
    (2, 0.1, 0.95122942450071401),
    (2, 1.0, 0.60653065971263342),
    (2, 5.0, 0.082084998623898795),
    (2, 20.0, 4.5399929762484852e-5),
    (5, 0.1, 0.99983768338807738),
    (5, 1.0, 0.96256577324729637),
    (5, 5.0, 0.41588018699550792),
    (5, 20.0, 0.0012497305630313754),
    (9, 0.1, 0.9999999743696746),
    (9, 1.0, 0.9994375026978325),
    (9, 5.0, 0.83430826019340755),
    (9, 20.0, 0.017912404529843274),
]

F_SF_GRID = [
    (1, 10, 0.5, 0.49564750438311994),
    (1, 10, 1.0, 0.34089313230205987),
    (1, 10, 2.0, 0.18766987086960301),
    (1, 10, 5.0, 0.049332195639921774),
    (3, 40, 0.5, 0.68441377661914213),
    (3, 40, 1.0, 0.40279721823976768),
    (3, 40, 2.0, 0.12944169795428166),
    (3, 40, 5.0, 0.0048771714431924219),
    (9, 990, 0.5, 0.87510084470403297),
    (9, 990, 1.0, 0.43810922240889775),
    (9, 990, 2.0, 0.036336864427871147),
    (9, 990, 5.0, 1.3175885039349462e-6),
    (45, 900, 0.5, 0.99768689733913488),
    (45, 900, 1.0, 0.47399572522237452),
    (45, 900, 2.0, 0.00014007775471389078),
    (45, 900, 5.0, 2.23916115783229e-22),
]


def test_criterion_10_numerical_kernels():
    worst_glm = 0.0

    # exact-line OLS: points on y = 2 + 3x are recovered exactly
    x = np.arange(5.0)
    fit = fit_ols(np.column_stack([np.ones(5), x]), 2.0 + 3.0 * x)
    worst_glm = max(worst_glm, abs(fit.coefficients[0] - 2.0),
                    abs(fit.coefficients[1] - 3.0))

    # intercept-only logistic: three successes, one failure -> log 3
    fit = fit_logistic(np.ones((4, 1)), np.array([1.0, 1.0, 1.0, 0.0]))
    worst_glm = max(worst_glm, abs(fit.coefficients[0] - np.log(3.0)))

    # intercept-only multinomial on counts (10, 20, 10) -> (log 2, 0)
    cats = np.repeat([1, 2, 3], [10, 20, 10])
    fit = fit_multinomial(np.ones((40, 1)), cats)
    worst_glm = max(worst_glm, abs(fit.coefficients[0, 0] - np.log(2.0)),
                    abs(fit.coefficients[1, 0]))

    # multinomial probability rows sum to one
    rng = np.random.default_rng(5)
    d = ce.from_arrays(
        covariates=rng.standard_normal((200, 2)),
        center=np.concatenate([[1, 2, 3], rng.integers(1, 4, size=197)]),
        arm=rng.integers(0, 2, size=200),
        outcome=rng.standard_normal(200),
    )
    X, names = build_design(ce.DesignSpec(["1", "x1", "x2"]), d)
    mfit = fit_multinomial(X, d.center, column_names=names)
    probs = ce.predict(mfit, X)
    worst_norm = float(np.abs(probs.sum(axis=1) - 1.0).max())

    worst_chi2 = max(abs(float(scipy.stats.chi2.sf(xv, k)) - ref)
                     for k, xv, ref in CHI2_SF_GRID)
    worst_f = max(abs(float(scipy.stats.f.sf(xv, d1, d2)) - ref)
                  for d1, d2, xv, ref in F_SF_GRID)

    ok = worst_glm < 1e-8 and worst_norm < 1e-12 and worst_chi2 < 1e-8 and worst_f < 1e-8
    report_line(
        10, ok,
        f"closed-form GLM deviation {worst_glm:.1e} (tol 1e-8); probability "
        f"normalization {worst_norm:.1e} (tol 1e-12); p-value grid deviations "
        f"chi2 {worst_chi2:.1e}, F {worst_f:.1e} (tol 1e-8)",
    )
