"""Inference tests: influence-curve SEs, Wald intervals, bootstrap, and the
two model-checking tests.

P-value routes are validated against a frozen reference grid computed with
50-digit arithmetic (regularized incomplete gamma/beta), and test statistics
against second implementations built directly from OLS residual sums.
"""
import copy
import dataclasses
import pickle
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats

import centereffects.estimators as estimators_module
import centereffects.inference as inference_module
from centereffects import (
    AliasedColumnsWarning,
    BootstrapError,
    ConfigError,
    DegenerateFitError,
    DesignSpec,
    EmptyFitError,
    FittedNuisances,
    InsufficientDataError,
    KnownProbabilities,
    NuisanceConfig,
    ParameterError,
    PositivityError,
    Scenario,
    ShapeError,
    SpecError,
    TestError,
    add_interval,
    ancova_center_outcome_test,
    bootstrap_se,
    build_design,
    center_contrasts,
    default_nuisance_configs,
    estimate_comparators,
    estimate_contrast,
    estimate_effects,
    estimate_mean,
    estimate_phi,
    estimate_tau,
    fit_logistic,
    fit_ols,
    from_arrays,
    generate_dataset,
    homogeneity_test,
    normal_quantile,
    predict,
    se_from_influence,
    wald_ci,
)
from centereffects.inference import default_assumption_specs
from centereffects.nuisance import factor_cells, fit_ols_cells

Z_975 = 1.9599639845400545  # Phi^-1(0.975)


def simple_config():
    return NuisanceConfig(
        outcome_spec=["1", "x1"],
        treatment_spec=["1"],
        membership_spec=["1", "x1"],
    )


# ---------------------------------------------------------------------------
# SEs and intervals
# ---------------------------------------------------------------------------


def test_se_from_influence_by_hand():
    # var ddof=1 of (-1, 1) is 2; se = sqrt(2 / 2) = 1
    assert se_from_influence(np.array([-1.0, 1.0])) == 1.0


def test_se_from_influence_needs_two():
    with pytest.raises(InsufficientDataError):
        se_from_influence(np.array([4.0]))


def test_normal_quantile_frozen():
    assert normal_quantile(0.05) == pytest.approx(Z_975, abs=1e-14)
    assert normal_quantile(0.10) == pytest.approx(1.6448536269514722, abs=1e-14)


def test_wald_ci_by_hand():
    ci_low, ci_high = wald_ci(2.0, 1.0, alpha=0.05)
    assert ci_low == pytest.approx(2.0 - Z_975, abs=1e-12)
    assert ci_high == pytest.approx(2.0 + Z_975, abs=1e-12)


def test_wald_ci_rejects_negative_se():
    with pytest.raises(ParameterError):
        wald_ci(0.0, -1.0)


def test_add_interval_from_influence():
    # tau(1,1) on outcomes {2,4}: influence (-1.5, 1.5, 0), se = sqrt(2.25/3)
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 0], [2.0, 4.0, 1.0])
    rec = add_interval(estimate_tau(d, 1, 1))
    assert rec.se == pytest.approx(np.sqrt(3) / 2, abs=1e-12)
    assert rec.ci_low == pytest.approx(3.0 - Z_975 * np.sqrt(3) / 2, abs=1e-12)
    assert rec.ci_high == pytest.approx(3.0 + Z_975 * np.sqrt(3) / 2, abs=1e-12)
    assert rec.method == "influence_curve"
    assert rec.alpha == 0.05


def test_add_interval_keeps_comparator_se():
    d = from_arrays([[0.0]] * 4, [1, 1, 1, 1], [0, 0, 1, 1], [1.0, 3.0, 5.0, 9.0])
    rec = add_interval(estimate_comparators(d, "pooled"), alpha=0.10)
    assert rec.se == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rec.method == "ols"
    width = rec.ci_high - rec.ci_low
    assert width == pytest.approx(2 * 1.6448536269514722 * np.sqrt(5.0), abs=1e-10)


def test_add_interval_requires_se_or_influence():
    d = from_arrays([[0.0]] * 4, [1, 1, 1, 1], [0, 0, 1, 1], [1.0, 3.0, 5.0, 9.0])
    bare = estimate_comparators(d, "pooled")
    import dataclasses
    with pytest.raises(ParameterError):
        add_interval(dataclasses.replace(bare, se=None))


# ---------------------------------------------------------------------------
# bootstrap point estimates
# ---------------------------------------------------------------------------


def test_bootstrap_point_mean_and_contrast():
    # arm 1 outcomes 0, 2, .., 8 (mean 4); arm 0 outcomes 1, 3, .., 9 (mean 5)
    d = from_arrays([[0.0]] * 10, [1] * 10, [1, 0] * 5, np.arange(10.0))
    mean = bootstrap_se(d, "tau", 1, (1,), replicates=20, alpha=0.1)
    assert (mean.estimand, mean.arms, mean.value) == ("mean", (1,), 4.0)
    assert (mean.alpha, mean.method) == (0.1, "bootstrap")
    contrast = bootstrap_se(d, "tau", 1, (1, 0), replicates=20)
    assert (contrast.estimand, contrast.arms, contrast.value) == ("contrast", (1, 0), -1.0)
    assert contrast.influence.tobytes() == estimate_contrast(d, "tau", 1, 1, 0).influence.tobytes()


def test_bootstrap_arm_count():
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 0], [2.0, 4.0, 1.0])
    with pytest.raises(ParameterError):
        bootstrap_se(d, "tau", 1, (0, 1, 2), replicates=2)
    with pytest.raises(ParameterError):
        bootstrap_se(d, "tau", 1, (), replicates=2)


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def fitted_treatment(configs):
    """``configs`` with every fitted treatment model given a covariate: an
    intercept-only one comes from the arm counts without a fit."""
    return {est: dataclasses.replace(cfg, treatment_spec=["1", "x1"])
            for est, cfg in configs.items()}


def three_center_data(seed=41):
    rng = np.random.default_rng(seed)
    n = 300
    return from_arrays(
        rng.standard_normal((n, 1)), rng.integers(1, 4, size=n),
        np.tile([0, 1], n // 2), rng.standard_normal(n),
    )


def test_estimate_effects_fits_each_shared_model_once(monkeypatch):
    # psi and chi share the membership model, phi and psi the treatment
    # model: one dataset fits each of them once
    d = three_center_data()
    configs = fitted_treatment(default_nuisance_configs(d.covariate_names))
    estimators = ["tau", "phi", "psi", "chi"]
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    records = estimate_effects(d, estimators, (1, 0), configs)
    assert len(multinomial) == 1
    assert len(logistic) == 1 + d.m  # shared all-rows fit + chi's donor fits
    # the records leave their influence columns behind; center_contrasts gives
    # them again from the dataset's fits, with no further fit
    again = {est: center_contrasts(d, est, 1, 0, configs.get(est)) for est in estimators}
    assert (len(multinomial), len(logistic)) == (1, 1 + d.m)

    fresh = dataclasses.replace(d)  # its own fits: an independent computation
    for est in estimators:
        got = [rec for rec in records if rec.estimator == est]
        want = center_contrasts(fresh, est, 1, 0, configs.get(est))
        assert len(got) == len(want) == d.m
        for g, a, w in zip(got, again[est], want):
            with_interval = add_interval(w)
            for field in ("value", "se", "ci_low", "ci_high"):
                assert (np.float64(getattr(g, field)).tobytes()
                        == np.float64(getattr(with_interval, field)).tobytes())
            assert a.influence.tobytes() == w.influence.tobytes()


def test_estimate_effects_keeps_no_per_row_array_it_does_not_read():
    # the influence columns go once the SE is attached, and chi's donor pools
    # keep their fits and R factors, not a prediction on every row; under the
    # defaults the treatment model is not fit at all
    for fitted in (False, True):
        d = three_center_data()
        configs = default_nuisance_configs(d.covariate_names)
        configs = fitted_treatment(configs) if fitted else configs
        records = estimate_effects(d, ["tau", "phi", "psi", "chi", "pooled"], (1, 0), configs)
        assert len(records) == 5 * d.m and all(rec.influence is None for rec in records)
        per_row = [key for key, value in d._fits.items()
                   if getattr(value, "shape", ())[:1] == (d.n,)]
        kinds = {"outcome", "treatment", "membership"} if fitted else {"outcome", "membership"}
        assert {key[0] for key in per_row} == kinds
        assert all(key[2] is None for key in per_row)  # no donor pool's
        treatment = [key for key in d._fits if key[0] == "treatment"]
        assert (sum(key[2] is not None for key in treatment) == d.m) if fitted else not treatment


def test_estimate_effects_checks_each_request_once(monkeypatch):
    # one cell table per mean estimator, from the check before the first fit
    d = generate_dataset(Scenario.strong(), seed=1)
    configs = default_nuisance_configs(d.covariate_names)
    counts = _count_calls(monkeypatch, estimators_module, "cell_counts")
    estimate_effects(d, ["tau", "phi", "psi", "chi", "pooled", "fe1", "fe2"], (1, 0), configs)
    assert len(counts) == 4


@pytest.mark.parametrize("make", [three_center_data,
                                  lambda: generate_dataset(Scenario.strong(), seed=1)],
                         ids=["three centers", "strong"])
def test_intercept_only_treatment_model_comes_from_the_arm_counts(monkeypatch, make):
    # Pr[A = a] on all rows and outside each center is bit for bit the
    # prediction of fit_logistic on those rows, and no logistic model is fit
    d = make()
    configs = default_nuisance_configs(d.covariate_names)
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    nuis = FittedNuisances(d, configs["chi"])
    ones = np.ones((d.n, 1))
    for donor in [None, *range(1, d.m + 1)]:
        rows = slice(None) if donor is None else d.center != donor
        fit = fit_logistic(ones[rows], d.arm[rows].astype(np.float64))
        assert (fit.iterations, fit.converged) == (0, True)
        p1 = predict(fit, ones)
        for a, want in ((1, p1), (0, 1.0 - p1)):
            got = (nuis.arm_probability(a) if donor is None
                   else nuis.donor_arm_probability(donor, a))
            assert got.shape == (d.n,) and got.tobytes() == want.tobytes()
    estimate_effects(d, ["tau", "phi", "psi", "chi"], (1, 0), configs)
    assert logistic == []


def test_intercept_only_treatment_model_without_both_arms_raises_as_its_fit():
    # a sample or pool with one arm, no rows or other arms raises fit_logistic's
    # error, and the request gate refuses such a sample or pool before that
    d = three_center_data()
    cfg = default_nuisance_configs(d.covariate_names)["chi"]
    keep = (d.arm == 1) | (d.center == 1)  # centers 2 and 3 keep arm 1 only
    pools = from_arrays(d.covariates[keep], d.center[keep], d.arm[keep], d.outcome[keep])
    single = "^logistic outcome has a single class$"
    with pytest.raises(DegenerateFitError, match=single):
        FittedNuisances(pools, cfg).donor_arm_probability(1, 0)
    with pytest.raises(PositivityError, match="^donor pool of center 1 has no rows in arm 0$"):
        estimate_mean(pools, "chi", 1, 1, cfg)
    one_arm = from_arrays(d.covariates, d.center, np.ones(d.n, dtype=int), d.outcome)
    with pytest.raises(DegenerateFitError, match=single):
        FittedNuisances(one_arm, cfg).arm_probability(1)
    with pytest.raises(SpecError, match="arms coded"):
        estimate_mean(one_arm, "phi", 1, 1, cfg)
    one_center = from_arrays(d.covariates, np.ones(d.n, dtype=int), d.arm, d.outcome)
    with pytest.raises(EmptyFitError, match="zero rows"):
        FittedNuisances(one_center, cfg).donor_arm_probability(1, 1)
    arms_1_2 = from_arrays(d.covariates, d.center, d.arm + 1, d.outcome)
    with pytest.raises(ShapeError, match="coded 0/1"):
        FittedNuisances(arms_1_2, cfg).arm_probability(1)


@pytest.mark.parametrize("estimator", ["psi", "chi"])
def test_estimate_contrast_fits_each_shared_model_once(monkeypatch, estimator):
    # both arms' means share one bundle: one membership fit and one
    # treatment fit (the all-rows fit for psi, the donor fit for chi)
    d = three_center_data()
    cfg = fitted_treatment(default_nuisance_configs(d.covariate_names))[estimator]
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    rec = estimate_contrast(d, estimator, 2, 1, 0, cfg)
    assert len(multinomial) == 1
    assert len(logistic) == 1
    want = center_contrasts(dataclasses.replace(d), estimator, 1, 0, cfg)[1]
    assert np.float64(rec.value).tobytes() == np.float64(want.value).tobytes()
    assert rec.influence.tobytes() == want.influence.tobytes()


def test_bootstrap_contrast_fits_membership_once_per_resample(monkeypatch):
    d = three_center_data()
    cfg = default_nuisance_configs(d.covariate_names)["psi"]
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    replicates = 5
    bootstrap_se(d, "psi", 2, (1, 0), cfg, replicates=replicates, seed=0)
    assert len(multinomial) == 1 + replicates


def test_estimate_contrast_checks_both_arms_before_fitting(monkeypatch):
    d = three_center_data()
    cfg = default_nuisance_configs(d.covariate_names)["psi"]
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    with pytest.raises(ParameterError, match="arm 7 not present"):
        estimate_contrast(d, "psi", 1, 1, 7, cfg)
    assert multinomial == [] and logistic == []


@pytest.mark.parametrize("estimators, arms, message", [
    (["psi", "bogus"], (1, 0), r"'bogus'; expected one of .*'fe2'"),
    (["tau", "tau"], (1, 0), "distinct"),
    (["psi", "pooled"], (1, 2), "comparators require"),
], ids=["unknown", "repeated", "comparator-arms"])
def test_estimate_effects_checks_the_request_before_fitting(monkeypatch, estimators, arms,
                                                            message):
    d = three_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    with pytest.raises(ParameterError, match=message):
        estimate_effects(d, estimators, arms, configs)
    assert multinomial == [] and logistic == []


def test_contrast_of_an_arm_with_itself_is_rejected_before_fitting(monkeypatch):
    # mean(c, 1) − mean(c, 1) would be 0 with SE 0 for every estimator
    d = three_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    for estimator in ("tau", "phi", "psi", "chi"):
        cfg = configs.get(estimator)
        with pytest.raises(ParameterError, match="two different arms"):
            estimate_contrast(d, estimator, 1, 1, 1, cfg)
        with pytest.raises(ParameterError, match="two different arms"):
            center_contrasts(d, estimator, 0, 0, cfg)
        with pytest.raises(ParameterError, match="two different arms"):
            bootstrap_se(d, estimator, 1, (0, 0), cfg, replicates=2)
    for estimator in ("tau", "phi", "psi"):
        with pytest.raises(ParameterError, match="two different arms"):
            homogeneity_test(d, estimator, 1, 1, configs.get(estimator))
    assert multinomial == [] and logistic == []


@pytest.mark.parametrize("case, error, message", [
    ("empty cell", PositivityError, "empty cell: center 3, arm 1"),
    ("missing configuration", ConfigError, "nuisance configuration required"),
    ("missing treatment spec", ConfigError, "treatment model specification missing"),
    ("alpha 2", ParameterError, r"alpha must lie in \(0,1\), got 2"),
    ("alpha 'a'", ParameterError, r"alpha must lie in \(0,1\), got a"),
    ("three arms", SpecError, r"fitted treatment models require arms coded \{0,1\}"),
    ("one arm-0 row", InsufficientDataError, "comparators need at least 2 rows in arm 0"),
    ("unknown covariate", SpecError,
     re.escape("outcome_spec: unknown covariate 'x9' in design; covariates are ['x1']")),
    ("arm term on three arms", SpecError,
     r"outcome_spec: arm indicator term requires arms coded \{0,1\}"),
], ids=["empty-cell", "missing-config", "missing-treatment-spec", "alpha-2", "alpha-string", "fitted-treatment-three-arms",
        "comparator-one-arm-0-row", "unknown-covariate", "arm-term-on-three-arms"])
def test_estimate_effects_fits_nothing_before_a_request_error(monkeypatch, case, error, message):
    # phi's fault is found before psi's and chi's models are fitted, a fitted
    # treatment model's arm coding and a comparator's data before psi's, a
    # model spec that phi reads but its configuration lacks before psi's, and
    # a design that names a covariate the data lack, or an arm term on arms
    # other than 0 and 1, before any model of another estimator is fitted
    d = three_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    estimators, arms = ["psi", "chi", "phi"], (1, 0)
    if case == "empty cell":
        keep = ~((d.center == 3) & (d.arm == 1))
        d = from_arrays(d.covariates[keep], d.center[keep], d.arm[keep], d.outcome[keep])
    if case == "missing configuration":
        del configs["phi"]
    if case == "missing treatment spec":
        configs["phi"] = dataclasses.replace(configs["phi"], treatment_spec=None)
        estimators = ["psi", "phi"]
    if case == "three arms":
        d = from_arrays(d.covariates, d.center, np.tile([0, 1, 2], d.n // 3), d.outcome)
        estimators, arms = ["psi"], (2, 1)
    if case == "one arm-0 row":
        keep = (d.arm == 1) | (np.arange(d.n) == 0)
        d = from_arrays(d.covariates[keep], d.center[keep], d.arm[keep], d.outcome[keep])
        estimators = ["psi", "pooled"]
    if case == "unknown covariate":
        configs["psi"] = dataclasses.replace(configs["psi"], outcome_spec=["1", "x9"])
        estimators = ["phi", "psi", "fe1"]
    if case == "arm term on three arms":
        d = from_arrays(d.covariates, d.center, np.tile([0, 1, 2], d.n // 3), d.outcome)
        known = KnownProbabilities([[0.3, 0.3, 0.4]], arms=(0, 1, 2))
        configs = {name: dataclasses.replace(configs[name], treatment_spec=known)
                   for name in ("chi", "phi")}
        configs["phi"] = dataclasses.replace(configs["phi"], outcome_spec=["1", "x1", "A"])
        estimators = ["chi", "phi"]
    alpha = {"alpha 2": 2, "alpha 'a'": "a"}.get(case, 0.05)
    fits = [_count_calls(monkeypatch, estimators_module, name)
            for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells")]
    with pytest.raises(error, match=message):
        estimate_effects(d, estimators, arms, configs, alpha)
    assert fits == [[], [], [], []]


def test_only_a_fitted_treatment_model_needs_arms_0_and_1(monkeypatch):
    # on arms {0, 1, 2}, phi and psi (but not their om variants) and chi read
    # the fitted treatment model: refused before any fit; known probabilities run
    d = three_center_data()
    d = from_arrays(d.covariates, d.center, np.tile([0, 1, 2], d.n // 3), d.outcome)
    cfg = default_nuisance_configs(d.covariate_names)["psi"]
    fits = [_count_calls(monkeypatch, estimators_module, name)
            for name in ("fit_ols", "fit_logistic", "fit_multinomial")]
    for estimator, variant in [("phi", "dr"), ("phi", "ipw"), ("psi", "dr"), ("psi", "ipw"),
                               ("chi", "dr")]:
        with pytest.raises(SpecError, match="arms coded"):
            estimate_mean(d, estimator, 1, 2, cfg, variant)
    assert fits == [[], [], []]
    known = dataclasses.replace(cfg, treatment_spec=KnownProbabilities(
        [[0.3, 0.3, 0.4]], arms=(0, 1, 2)))
    for estimator, variant, config in [("phi", "om", cfg), ("psi", "om", cfg), ("psi", "dr", known)]:
        assert np.isfinite(estimate_mean(d, estimator, 1, 2, config, variant).value)


def ten_center_data(seed=43):
    rng = np.random.default_rng(seed)
    n = 400
    return from_arrays(rng.standard_normal((n, 2)), np.repeat(np.arange(1, 11), n // 10),
                       np.tile([0, 1], n // 2), rng.standard_normal(n))


@pytest.mark.parametrize("estimator", ["phi", "psi", "chi"])
@pytest.mark.parametrize("table, arms, error, message", [
    ([[0.5, 0.5]] * 3, (0, 1), SpecError, "^probability table has 3 center rows, data has 10$"),
    ([[0.5, 0.5]], (1, 2), ParameterError, "^arm 0 not covered by known probabilities$"),
], ids=["three-rows", "arms-1-2"])
def test_a_known_probability_table_that_does_not_fit_the_data_errors_before_any_fit(
        monkeypatch, estimator, table, arms, error, message):
    d = ten_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    configs[estimator] = dataclasses.replace(
        configs[estimator], treatment_spec=KnownProbabilities(table, arms=arms))
    fits = [_count_calls(monkeypatch, estimators_module, name)
            for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells")]
    with pytest.raises(error, match=message):
        estimate_effects(d, [estimator], (1, 0), configs)
    with pytest.raises(error, match=message):
        estimate_mean(d, estimator, 1, 0, configs[estimator])
    assert fits == [[], [], [], []]
    # an estimate that reads no treatment model does not read the table
    assert np.isfinite(estimate_mean(d, "phi", 1, 1, configs[estimator], "om").value)


def test_a_configuration_needs_only_the_specs_its_estimate_reads(monkeypatch):
    # a spec the estimate reads is refused before any fit, one it does not
    # read may be missing, and known arm probabilities are a treatment model
    d = three_center_data()
    cfg = default_nuisance_configs(d.covariate_names)["psi"]
    fits = [_count_calls(monkeypatch, estimators_module, name)
            for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells")]
    for estimator, variant, model in [("phi", "dr", "outcome"), ("phi", "ipw", "treatment"),
                                      ("psi", "om", "outcome"), ("psi", "ipw", "membership"),
                                      ("chi", "om", "treatment"), ("chi", "dr", "membership")]:
        config = dataclasses.replace(cfg, **{f"{model}_spec": None})
        with pytest.raises(ConfigError, match=f"^{model} model specification missing$"):
            estimate_mean(d, estimator, 1, 1, config, variant)
    assert fits == [[], [], [], []]
    for estimator, variant, unread in [("phi", "dr", ["membership"]), ("phi", "om", ["treatment"]),
                                       ("phi", "ipw", ["outcome"]), ("psi", "ipw", ["outcome"]),
                                       ("psi", "om", ["treatment", "membership"])]:
        config = dataclasses.replace(cfg, **{f"{model}_spec": None for model in unread})
        assert np.isfinite(estimate_mean(d, estimator, 1, 1, config, variant).value)
    known = dataclasses.replace(cfg, treatment_spec=KnownProbabilities.constant(0.5))
    assert np.isfinite(estimate_mean(d, "chi", 1, 1, known).value)


def test_bootstrap_checks_alpha_before_resampling(monkeypatch):
    d = three_center_data()
    resamples = _count_calls(monkeypatch, inference_module, "_resample")
    with pytest.raises(ParameterError, match="alpha"):
        bootstrap_se(d, "tau", 1, (1, 0), replicates=300, alpha=1.5)
    assert resamples == []


@pytest.mark.parametrize("kw", [
    {"replicates": 2.5}, {"replicates": "3"}, {"seed": 1.5}, {"seed": "a"}, {"seed": -1},
], ids=["replicates-float", "replicates-string", "seed-float", "seed-string", "seed-negative"])
def test_bootstrap_replicates_and_seed_are_integers(kw):
    d = three_center_data()
    with pytest.raises(ParameterError, match="replicates"):
        bootstrap_se(d, "tau", 1, (1, 0), **{"replicates": 3, **kw})


#: every per-center entry point: (whether it takes a center, call(data, center, arm))
INTEGER_ENTRY_POINTS = {
    "estimate_mean": (True, lambda d, c, a: estimate_mean(d, "tau", c, a)),
    "estimate_contrast": (True, lambda d, c, a: estimate_contrast(d, "tau", c, a, 0)),
    "center_contrasts": (False, lambda d, c, a: center_contrasts(d, "tau", a, 0)),
    "homogeneity_test": (False, lambda d, c, a: homogeneity_test(d, "tau", a, 0)),
    "bootstrap_se": (True, lambda d, c, a: bootstrap_se(d, "tau", c, (a, 0), replicates=2)),
    "per_center": (False, lambda d, c, a: KnownProbabilities.constant(0.5).per_center(a, d.m)),
}


@pytest.mark.parametrize("name, where, value", [
    (name, where, value)
    for name, (takes_center, _) in INTEGER_ENTRY_POINTS.items()
    for where in (("center", "arm") if takes_center else ("arm",))
    for value in (1.5, "1", True)
])
def test_centers_and_arms_must_be_integers(name, where, value):
    # int() would read each of these as 1, a valid center and arm
    call = INTEGER_ENTRY_POINTS[name][1]
    d = three_center_data()
    with pytest.raises(ParameterError, match=f"{where}s? must be (an integer|integers)"):
        call(d, value, 1) if where == "center" else call(d, 1, value)


def _bits(result):
    """A result's exact content: array bytes, and the repr of every other field."""
    if isinstance(result, list):
        return [_bits(r) for r in result]
    if isinstance(result, np.ndarray):
        return result.tobytes()
    return {k: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
            for k, v in vars(result).items()}


@pytest.mark.parametrize("name", list(INTEGER_ENTRY_POINTS))
def test_numpy_integer_centers_and_arms_give_the_same_results(name):
    # records hold Python ints, so their repr matches too
    call = INTEGER_ENTRY_POINTS[name][1]
    d = three_center_data()
    want = call(d, 1, 1)
    got = call(dataclasses.replace(d), np.int64(1), np.int64(1))
    assert _bits(got) == _bits(want)


def test_homogeneity_tests_share_fits_through_one_memo(monkeypatch):
    # phi and psi specify the same treatment model: three tests on one
    # dataset fit it once, and no statistic moves from a run on a fresh copy
    # of the dataset, which fits its own models
    d = three_center_data(seed=43)
    configs = fitted_treatment(default_nuisance_configs(d.covariate_names))
    estimators = ["tau", "phi", "psi"]
    unshared = [homogeneity_test(dataclasses.replace(d), est, 1, 0, configs.get(est))
                for est in estimators]
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    shared = [homogeneity_test(d, est, 1, 0, configs.get(est)) for est in estimators]
    assert len(logistic) == 1
    for got, want in zip(shared, unshared):
        assert np.float64(got.statistic).tobytes() == np.float64(want.statistic).tobytes()
        assert np.float64(got.p_value).tobytes() == np.float64(want.p_value).tobytes()
        assert got.df == want.df


def test_per_center_estimates_share_the_datasets_fits(monkeypatch):
    # a loop over the centers fits each of phi's models once, not once per center
    d = three_center_data()
    cfg = fitted_treatment(default_nuisance_configs(d.covariate_names))["phi"]
    logistic = _count_calls(monkeypatch, estimators_module, "fit_logistic")
    ols = _count_calls(monkeypatch, estimators_module, "fit_ols")
    for c in range(1, d.m + 1):
        estimate_phi(d, c, 1, cfg)
    assert len(logistic) == 1 and len(ols) == 1


def test_a_replaced_dataset_starts_with_no_fits(monkeypatch):
    d = three_center_data()
    cfg = default_nuisance_configs(d.covariate_names)["psi"]
    multinomial = _count_calls(monkeypatch, estimators_module, "fit_multinomial")
    first = estimate_contrast(d, "psi", 1, 1, 0, cfg)
    copy = dataclasses.replace(d)
    assert copy._fits == {} and d._fits
    second = estimate_contrast(copy, "psi", 1, 1, 0, cfg)
    assert len(multinomial) == 2
    assert np.float64(first.value).tobytes() == np.float64(second.value).tobytes()
    assert first.influence.tobytes() == second.influence.tobytes()


def test_a_pickled_or_copied_dataset_leaves_its_fits_behind():
    d = three_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    size = len(pickle.dumps(d))
    want = estimate_effects(d, ["phi", "psi", "chi"], (1, 0), configs)
    assert d._fits and len(pickle.dumps(d)) == size
    for other in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert other._fits == {} and other.center_labels == d.center_labels
        got = estimate_effects(other, ["phi", "psi", "chi"], (1, 0), configs)
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("arms", [(1, 0), (0, 1)])
def test_estimate_effects_repeats_a_comparator_in_every_center(arms):
    d = three_center_data()
    records = estimate_effects(d, ["pooled", "fe1", "fe2"], arms, {})
    for which in ("pooled", "fe1", "fe2"):
        got = [rec for rec in records if rec.estimator == which]
        assert [rec.center for rec in got] == list(range(1, d.m + 1))
        assert len({(rec.value, rec.se, rec.arms) for rec in got}) == 1
        want = estimate_comparators(d, which)
        sign = 1.0 if arms == (1, 0) else -1.0
        assert (got[0].value, got[0].se, got[0].arms) == (sign * want.value, want.se, arms)


def test_estimate_effects_runs_the_comparators_first_and_keeps_the_requested_order(monkeypatch):
    # the comparators read none of the dataset's fits, so they fit before any
    # mean-estimator model and their designs never stack on the memo
    d = three_center_data()
    configs = default_nuisance_configs(d.covariate_names)
    log = []

    def logged(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: log.append(name) or original(*a, **k))

    for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells",
                 "leave_one_out_coefficients"):
        logged(estimators_module, name)
    logged(inference_module, "estimate_comparators")
    requested = ["tau", "fe2", "phi", "pooled"]
    records = estimate_effects(d, requested, (1, 0), configs)
    assert log[:4] == ["estimate_comparators", "fit_ols"] * 2
    assert len(log) > 4 and "estimate_comparators" not in log[4:]
    assert [rec.estimator for rec in records] == [e for e in requested for _ in range(d.m)]

    def bits(recs):
        return [(float(rec.value).hex(), float(rec.se).hex()) for rec in recs]

    fresh = three_center_data()
    for estimator in requested:
        if estimator in ("fe2", "pooled"):
            want = [add_interval(estimate_comparators(fresh, estimator))] * fresh.m
        else:
            want = [add_interval(rec) for rec in
                    center_contrasts(fresh, estimator, 1, 0, configs.get(estimator))]
        assert bits(rec for rec in records if rec.estimator == estimator) == bits(want)


def test_a_mean_estimator_request_error_comes_before_the_comparators_data_error(monkeypatch):
    # phi's fitted treatment model and the comparators both need arms {0, 1}:
    # phi's request check runs first, and nothing is fitted
    d = three_center_data()
    d = from_arrays(d.covariates, d.center, np.tile([0, 1, 2], d.n // 3), d.outcome)
    configs = default_nuisance_configs(d.covariate_names)
    fits = [_count_calls(monkeypatch, estimators_module, name)
            for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells")]
    with pytest.raises(SpecError, match=r"fitted treatment models require arms coded \{0,1\}"):
        estimate_effects(d, ["phi", "pooled"], (1, 0), configs)
    assert SpecError.exit_code == 1
    assert fits == [[], [], [], []]


# ---------------------------------------------------------------------------
# bootstrap
# ---------------------------------------------------------------------------


def test_bootstrap_constant_outcome_zero_se():
    d = from_arrays([[0.0]] * 10, [1] * 10, [1, 0] * 5, [7.0] * 10)
    iv = bootstrap_se(d, "tau", 1, (1,), replicates=50, seed=0)
    assert iv.se == 0.0
    assert iv.value == 7.0
    assert iv.method == "bootstrap"


def test_bootstrap_single_row_degenerate():
    d = from_arrays([[0.0]], [1], [1], [5.0])
    iv = bootstrap_se(d, "tau", 1, (1,), replicates=20, seed=1)
    assert iv.se == 0.0


def test_bootstrap_close_to_influence_se():
    rng = np.random.default_rng(8)
    n = 200
    d = from_arrays(
        rng.standard_normal((n, 1)), [1] * n, rng.integers(0, 2, size=n),
        rng.standard_normal(n) * 2.0,
    )
    closed = add_interval(estimate_contrast(d, "tau", 1, 1, 0)).se
    boot = bootstrap_se(d, "tau", 1, (1, 0), replicates=400, seed=3).se
    assert abs(boot / closed - 1.0) < 0.20


def test_bootstrap_deterministic():
    rng = np.random.default_rng(9)
    d = from_arrays(
        rng.standard_normal((30, 1)), [1] * 30, rng.integers(0, 2, size=30),
        rng.standard_normal(30),
    )
    a = bootstrap_se(d, "tau", 1, (1, 0), replicates=60, seed=11)
    b = bootstrap_se(d, "tau", 1, (1, 0), replicates=60, seed=11)
    assert a.se == b.se and a.ci_low == b.ci_low
    c = bootstrap_se(d, "tau", 1, (1, 0), replicates=60, seed=12)
    assert c.se != a.se


def test_bootstrap_fails_when_center_keeps_vanishing():
    # center 2 has a single row out of 30: it is missing from ~36% of
    # resamples, far beyond the tolerated failure share
    centers = [1] * 29 + [2]
    arms = [0, 1] * 15
    d = from_arrays([[0.0]] * 30, centers, arms, list(np.arange(30.0)))
    with pytest.raises(BootstrapError):
        bootstrap_se(d, "tau", 2, (1,), replicates=100, seed=5)


# ---------------------------------------------------------------------------
# homogeneity test
# ---------------------------------------------------------------------------


def duplicated_center_data(rng, n_per=30):
    """Center 2 is an exact copy of center 1's rows."""
    x = rng.standard_normal((n_per, 1))
    a = np.tile([0, 1], n_per // 2)
    y = rng.standard_normal(n_per) + a * 2.0
    return from_arrays(
        np.vstack([x, x]),
        [1] * n_per + [2] * n_per,
        np.concatenate([a, a]),
        np.concatenate([y, y]),
    )


def test_homogeneity_exactly_zero_on_duplicated_centers():
    d = duplicated_center_data(np.random.default_rng(15))
    res = homogeneity_test(d, "tau", 1, 0)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.df == 1
    assert res.test == "homogeneity_wald"


def test_homogeneity_near_zero_duplicated_fitted_nuisances():
    d = duplicated_center_data(np.random.default_rng(16))
    cfg = NuisanceConfig(
        outcome_spec=["1", "x1", "C"],
        treatment_spec=["1"],
        membership_spec=["1", "x1"],
    )
    res_phi = homogeneity_test(d, "phi", 1, 0, cfg)
    assert res_phi.statistic < 1e-8
    cfg_pooled = simple_config()
    res_psi = homogeneity_test(d, "psi", 1, 0, cfg_pooled)
    assert res_psi.statistic < 1e-8


def test_homogeneity_two_centers_matches_z_test():
    # with m=2 the Wald statistic must equal the squared z statistic built
    # from the two contrasts and their influence covariance
    rng = np.random.default_rng(17)
    n = 120
    d = from_arrays(
        rng.standard_normal((n, 1)),
        np.concatenate([np.full(60, 1), np.full(60, 2)]),
        np.tile([0, 1], 60),
        rng.standard_normal(n) + np.repeat([0.0, 1.0], 60) * np.tile([0, 1], 60),
    )
    res = homogeneity_test(d, "tau", 1, 0)
    rec1 = estimate_contrast(d, "tau", 1, 1, 0)
    rec2 = estimate_contrast(d, "tau", 2, 1, 0)
    diff = rec2.value - rec1.value
    inf = rec2.influence - rec1.influence
    var = np.var(inf, ddof=1) / n
    np.testing.assert_allclose(res.statistic, diff**2 / var, rtol=1e-10)
    np.testing.assert_allclose(
        res.p_value, float(scipy.stats.chi2.sf(diff**2 / var, 1)), rtol=1e-12
    )


def test_homogeneity_requires_two_centers():
    d = from_arrays([[0.0]] * 4, [1] * 4, [0, 1, 0, 1], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(InsufficientDataError):
        homogeneity_test(d, "tau", 1, 0)


def test_homogeneity_rejects_chi():
    d = duplicated_center_data(np.random.default_rng(18))
    with pytest.raises(ParameterError):
        homogeneity_test(d, "chi", 1, 0)


def test_homogeneity_singular_covariance():
    # constant outcomes make every influence vector zero
    d = from_arrays(
        [[0.0]] * 8, [1, 1, 1, 1, 2, 2, 2, 2], [0, 1] * 4, [3.0] * 8
    )
    with pytest.raises(TestError):
        homogeneity_test(d, "tau", 1, 0)


def test_homogeneity_statistic_survives_outcome_scale_near_overflow():
    # at 1e152 the influence products overflow in the covariance unless the
    # influence is rescaled first; the statistic is scale-invariant
    rng = np.random.default_rng(5)
    n, m = 600, 6
    x = rng.standard_normal((n, 2))
    centers = rng.integers(1, m + 1, size=n)
    arms = rng.integers(0, 2, size=n)
    y = x[:, 0] + arms * (1.0 + 0.2 * centers) + rng.standard_normal(n)
    unit = homogeneity_test(from_arrays(x, centers, arms, y), "tau", 1, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = homogeneity_test(from_arrays(x, centers, arms, y * 1e152), "tau", 1, 0)
    assert huge.statistic == pytest.approx(unit.statistic, rel=1e-12)
    assert huge.p_value == pytest.approx(unit.p_value, rel=1e-10)


def test_homogeneity_rejects_non_finite_influence(monkeypatch):
    records = [SimpleNamespace(value=0.0, influence=np.array([1.0, -1.0, 0.0])),
               SimpleNamespace(value=1.0, influence=np.array([np.inf, 0.0, 1.0]))]
    monkeypatch.setattr(inference_module, "_homogeneity_request", lambda *args: lambda: records)
    with pytest.raises(TestError, match="non-finite influence"):
        homogeneity_test(SimpleNamespace(m=2, n=3), "tau", 1, 0)


def test_homogeneity_detects_heterogeneity():
    # center 2's effect is shifted by 5 outcome-sd units
    rng = np.random.default_rng(19)
    n = 400
    centers = np.concatenate([np.full(200, 1), np.full(200, 2)])
    arms = np.tile([0, 1], 200)
    y = rng.standard_normal(n) + arms * (1.0 + 5.0 * (centers == 2))
    d = from_arrays(rng.standard_normal((n, 1)), centers, arms, y)
    res = homogeneity_test(d, "tau", 1, 0)
    assert res.p_value < 1e-6


# ---------------------------------------------------------------------------
# center-outcome association test
# ---------------------------------------------------------------------------


def ancova_data(rng, center_effect=0.0, n_per=60, m=3):
    x = rng.standard_normal(n_per * m)
    centers = np.repeat(np.arange(1, m + 1), n_per)
    arms = np.tile([0, 1], n_per * m // 2)
    y = 1.0 + x + arms * 0.5 + center_effect * (centers == 2) + rng.standard_normal(n_per * m)
    return from_arrays(x.reshape(-1, 1), centers, arms, y)


def test_ancova_single_center_degenerate():
    rng = np.random.default_rng(22)
    d = from_arrays(
        rng.standard_normal((12, 1)), [1] * 12, [0, 1] * 6, rng.standard_normal(12)
    )
    res = ancova_center_outcome_test(d)
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    assert res.df[0] == 0


def test_ancova_statistic_matches_direct_rss_computation():
    rng = np.random.default_rng(23)
    d = ancova_data(rng, center_effect=0.8)
    res = ancova_center_outcome_test(d)
    base = DesignSpec(("1", "x1", "A", "x1:A"))
    extended = DesignSpec(("1", "x1", "A", "x1:A", "C", "x1:C", "A:C"))
    Xb, _ = build_design(base, d)
    Xe, _ = build_design(extended, d)
    fb = fit_ols(Xb, d.outcome)
    fe = fit_ols(Xe, d.outcome)
    q = (Xe.shape[1] - len(fe.dropped_columns)) - (Xb.shape[1] - len(fb.dropped_columns))
    f_stat = ((fb.rss - fe.rss) / q) / (fe.rss / fe.df_residual)
    np.testing.assert_allclose(res.statistic, f_stat, rtol=1e-10)
    assert res.df == (q, fe.df_residual)
    np.testing.assert_allclose(
        res.p_value, float(scipy.stats.f.sf(f_stat, q, fe.df_residual)), rtol=1e-12
    )
    assert res.test == "ancova_f"


def test_ancova_detects_center_effect():
    rng = np.random.default_rng(29)
    d = ancova_data(rng, center_effect=5.0)
    assert ancova_center_outcome_test(d).p_value < 0.01


def test_ancova_null_is_quiet():
    rng = np.random.default_rng(31)
    d = ancova_data(rng, center_effect=0.0)
    res = ancova_center_outcome_test(d)
    assert 0.0 <= res.p_value <= 1.0
    assert res.statistic >= 0.0


def test_ancova_specs_both_or_neither():
    d = ancova_data(np.random.default_rng(33))
    with pytest.raises(SpecError):
        ancova_center_outcome_test(d, base_spec=DesignSpec(("1", "A")))


def test_ancova_specs_must_nest():
    d = ancova_data(np.random.default_rng(34))
    with pytest.raises(SpecError):
        ancova_center_outcome_test(
            d,
            base_spec=DesignSpec(("1", "x1")),
            extended_spec=DesignSpec(("1", "A", "C")),
        )


def test_ancova_custom_nested_specs():
    d = ancova_data(np.random.default_rng(35), center_effect=4.0)
    res = ancova_center_outcome_test(
        d, base_spec=DesignSpec(("1", "A")), extended_spec=DesignSpec(("1", "A", "C"))
    )
    assert res.df[0] == 2  # two extra center columns
    assert res.p_value < 0.01


def _exact_outcome_data(outcome):
    rng = np.random.default_rng(1)
    n = 300
    x = rng.standard_normal((n, 2))
    arm = rng.integers(0, 2, n)
    return from_arrays(x, np.repeat([1, 2, 3], n // 3), arm, outcome(x, arm))


@pytest.mark.parametrize("outcome", [
    lambda x, a: np.full(len(a), 5.0),
    lambda x, a: np.full(len(a), 1e6),
    lambda x, a: np.zeros(len(a)),
    lambda x, a: 2.0 + 3.0 * x[:, 0] - a,
], ids=["constant_5", "constant_1e6", "zero", "linear"])
def test_ancova_rejects_outcome_fit_exactly_by_extended_model(outcome):
    # the residual sums of squares are roundoff (e.g. 2e-27 for y = 5), and
    # their ratio is no F statistic
    d = _exact_outcome_data(outcome)
    with pytest.raises(TestError, match="fits the outcome exactly"):
        ancova_center_outcome_test(d)


@pytest.mark.parametrize("scale, shift", [(3.5, -40.0), (-0.01, 1e4), (1e6, 2.0), (1.0, 1e6)])
def test_ancova_f_is_invariant_to_affine_outcome_change(scale, shift):
    d = ancova_data(np.random.default_rng(36), center_effect=0.4)
    moved = from_arrays(d.covariates, d.center, d.arm, scale * d.outcome + shift)
    ref = ancova_center_outcome_test(d)
    res = ancova_center_outcome_test(moved)
    # a shift of 1e6 residual SDs leaves residuals of relative accuracy ~ε·1e6
    assert res.df == ref.df
    np.testing.assert_allclose(res.statistic, ref.statistic, rtol=1e-7)
    np.testing.assert_allclose(res.p_value, ref.p_value, rtol=1e-7)


def _whole_design_ancova(d, base, extended):
    """The F test from the whole n x p designs, factored by ``factor_cells``."""
    fits = [fit_ols_cells(factor_cells(X.__getitem__, d.outcome, d.center), column_names=names)
            for X, names in (build_design(base, d), build_design(extended, d))]
    df_num, df_den = fits[0].df_residual - fits[1].df_residual, fits[1].df_residual
    if df_num <= 0:
        return inference_module.TestResult(statistic=0.0, df=(0, df_den), p_value=1.0,
                                           test="ancova_f")
    statistic = max(((fits[0].rss - fits[1].rss) / df_num) / (fits[1].rss / df_den), 0.0)
    return inference_module.TestResult(
        statistic=float(statistic), df=(df_num, df_den),
        p_value=float(scipy.special.fdtrc(df_num, df_den, statistic)), test="ancova_f")


def test_ancova_built_center_by_center_is_bitwise_the_whole_design_test():
    rng = np.random.default_rng(41)
    nested = (DesignSpec(("1", "x1", "A", "C")),
              DesignSpec(("1", "x1", "A", "C", "x1:C", "A:C", "x1:A:C")))
    for _ in range(40):
        m, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
        center = rng.integers(1, m + 1, int(rng.integers(6 * m, 30 * m)))
        n = len(center)
        arm = rng.integers(0, 2, n)
        arm[center == rng.integers(1, m + 1)] = 1  # a single-arm center
        x = rng.standard_normal((n, k))
        x[center == rng.integers(1, m + 1), 0] = 0.0  # x1 constant within a center
        d = from_arrays(x, center, arm, x @ rng.standard_normal(k) + rng.standard_normal(n)
                        + center)
        for specs in (default_assumption_specs(d), nested):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AliasedColumnsWarning)
                assert repr(ancova_center_outcome_test(d, *specs)) == repr(
                    _whole_design_ancova(d, *specs))


@pytest.mark.parametrize("base, extended, message", [
    (("1", "u1"), ("u2",), "base_spec: unknown covariate 'u1' in design; covariates are ['x1']"),
    (("1", "x1"), ("1", "x1", "C", "x1:A:u2"),
     "extended_spec: unknown covariate 'u2' in design; covariates are ['x1']"),
    (("1", "x1"), ("1", "A", "C"), "extended model must nest the base model; missing ['x1']"),
    (None, None, "base_spec: arm indicator term requires arms coded {0,1}"),
], ids=["base0-extended0-unknown covariate 'u1' in design",
        "base1-extended1-unknown covariate 'u2' in design",
        "base2-extended2-extended model must nest the base model; missing ['x1']",
        "None-None-arm indicator term requires arms coded {0,1}"])
def test_ancova_spec_errors_come_before_any_factorisation(monkeypatch, base, extended, message):
    d = ancova_data(np.random.default_rng(38))
    if base is None:  # the default specs hold A, and arm 2 is no indicator
        d = from_arrays(d.covariates, d.center, 2 * d.arm, d.outcome)
    else:
        base, extended = DesignSpec(base), DesignSpec(extended)
    calls = []
    for name in ("factor_cells", "fit_ols_cells"):
        monkeypatch.setattr(inference_module, name, lambda *a, _name=name, **k: calls.append(_name))
    with pytest.raises(SpecError, match=f"^{re.escape(message)}$"):
        ancova_center_outcome_test(d, base, extended)
    assert calls == []


def _assumption_data(rng, n, m):
    x = rng.standard_normal((n, 3))
    center, arm = rng.integers(1, m + 1, n), rng.integers(0, 2, n)
    return from_arrays(x, center, arm, x[:, 0] + arm * (1.0 + x[:, 1]) + rng.standard_normal(n))


def test_ancova_memory_stays_below_one_extended_design():
    # the whole design was built, and held about twice while its term blocks
    # were joined
    n, m, k = 4000, 40, 3
    d = _assumption_data(np.random.default_rng(39), n, m)
    width = 2 * k + 2 + (k + 2) * (m - 1)  # 203 extended columns
    tracemalloc.start()
    try:
        ancova_center_outcome_test(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * width * 8


@pytest.mark.parametrize("estimator", ["tau", "phi"])
def test_homogeneity_memory_stays_at_two_influence_matrices(estimator):
    # the stacked influence and np.cov's copy of it; n = 2**15 puts 8 centers in
    # each of the kernel's blocks, so its own temporaries stay below that
    n, m = 2 ** 15, 40
    d = _assumption_data(np.random.default_rng(40), n, m)
    cfg = default_nuisance_configs(d.covariate_names).get(estimator)
    homogeneity_test(d, estimator, 1, 0, cfg)  # the nuisance fits, memoised
    tracemalloc.start()
    try:
        homogeneity_test(d, estimator, 1, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * n * m * 8


# ---------------------------------------------------------------------------
# p-value routes against a frozen high-precision grid
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


def test_chi2_pvalue_route_matches_reference_grid():
    for k, x, ref in CHI2_SF_GRID:
        assert abs(float(scipy.stats.chi2.sf(x, k)) - ref) < 1e-8


def test_f_pvalue_route_matches_reference_grid():
    for d1, d2, x, ref in F_SF_GRID:
        assert abs(float(scipy.stats.f.sf(x, d1, d2)) - ref) < 1e-8


# ---------------------------------------------------------------------------
# p-value routes: bitwise scipy.stats
# ---------------------------------------------------------------------------

# 0, tiny, moderate, huge and overflowing (inf) statistics
ROUTE_STATISTICS = (0.0, 1e-300, 3e-16, 0.37, 1.0, 4.2, 57.0, 1e8, 1e300, np.inf)


@pytest.mark.parametrize("m", [2, 3, 6, 61, 400])
def test_homogeneity_p_value_is_bitwise_chi2_sf(monkeypatch, m):
    # centers 2..m get orthogonal influence (+1, -1 on two rows of their own),
    # so the contrast covariance is diagonal and no term of the quadratic form
    # overflows to -inf
    n = 2 * (m - 1)
    influence = np.zeros((n, m))
    for j in range(1, m):
        influence[2 * j - 2:2 * j, j] = (1.0, -1.0)
    direction = np.concatenate([[0.0], np.random.default_rng(m).uniform(0.5, 2.0, m - 1)])
    records = []
    monkeypatch.setattr(inference_module, "_homogeneity_request", lambda *args: lambda: records)
    data = SimpleNamespace(m=m, n=n)

    def contrasts(scale):
        return [SimpleNamespace(value=v * scale, influence=influence[:, j])
                for j, v in enumerate(direction)]

    records[:] = contrasts(1.0)
    unit = homogeneity_test(data, "tau", 1, 0).statistic
    seen = []
    for target in ROUTE_STATISTICS:
        records[:] = contrasts(1e200 if target == np.inf else np.sqrt(target / unit))
        with np.errstate(over="ignore"):
            res = homogeneity_test(data, "tau", 1, 0)
        assert res.df == m - 1
        assert res.p_value == float(scipy.stats.chi2.sf(res.statistic, m - 1))
        seen.append(res.statistic)
    assert seen[0] == 0.0 and 0.0 < seen[1] < 1e-299 and seen[-1] == np.inf
    assert 1e299 < seen[-2] < np.inf


@pytest.mark.parametrize("df_num, df_den", [
    (1, 1), (1, 30), (2, 7), (4, 294), (42, 9697), (295, 9697), (400, 99990),
])
def test_ancova_p_value_is_bitwise_f_sf(monkeypatch, df_num, df_den):
    d = ancova_data(np.random.default_rng(37))
    fits = []
    monkeypatch.setattr(inference_module, "factor_cells", lambda *args: None)
    monkeypatch.setattr(inference_module, "fit_ols_cells", lambda *a, **k: fits.pop(0))
    for target in ROUTE_STATISTICS:
        if target == 3e-16:  # the smallest nonzero statistic from rss near 1
            rss_base = np.nextafter(1.0, 2.0)
        else:
            rss_base = 1.0 + target * df_num / df_den
        fits[:] = [SimpleNamespace(rss=rss_base, df_residual=df_den + df_num),
                   SimpleNamespace(rss=1.0, df_residual=df_den)]
        res = ancova_center_outcome_test(d)
        assert res.df == (df_num, df_den)
        assert res.p_value == float(scipy.stats.f.sf(res.statistic, df_num, df_den))
    assert res.statistic == np.inf and res.p_value == 0.0

    # the extra terms add no rank: nothing to test
    fits[:] = [SimpleNamespace(rss=2.0, df_residual=df_den),
               SimpleNamespace(rss=1.0, df_residual=df_den)]
    res = ancova_center_outcome_test(d)
    assert (res.statistic, res.df, res.p_value) == (0.0, (0, df_den), 1.0)
