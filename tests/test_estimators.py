"""Point estimator tests.

Hand-evaluated examples pin each estimator formula with fixed nuisance values;
algebraic identities (variant reductions, crude-mean equality, location and
scale equivariance, center and row permutation, arm-code swap) are checked by
brute force on seeded or hypothesis-drawn random datasets.
"""
import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centereffects import (
    AliasedColumnsWarning,
    ComparatorError,
    ConfigError,
    DesignSpec,
    DivisionError,
    FittedNuisances,
    FixedNuisances,
    InsufficientDataError,
    KnownProbabilities,
    NoDonorError,
    NuisanceConfig,
    ParameterError,
    PositivityError,
    Scenario,
    SpecError,
    build_design,
    center_contrasts,
    default_nuisance_configs,
    estimate_chi,
    estimate_comparators,
    estimate_contrast,
    estimate_effects,
    estimate_mean,
    estimate_phi,
    estimate_psi,
    estimate_tau,
    fit_ols,
    from_arrays,
    generate_dataset,
    predict,
)
import centereffects.estimators as estimators_module
from centereffects.nuisance import factor_cells, fit_ols_cells


def simple_config(**kw):
    kw.setdefault("outcome_spec", ["1", "x1"])
    kw.setdefault("treatment_spec", ["1"])
    kw.setdefault("membership_spec", ["1", "x1"])
    return NuisanceConfig(**kw)


def random_dataset(rng, n=None, m=None):
    """Random dataset with every (center, arm) cell guaranteed nonempty."""
    if n is None:
        n = int(rng.integers(8, 51))
    if m is None:
        m = int(rng.integers(1, 4))
    # one guaranteed row per (center, arm) cell, remainder random
    base_c = np.repeat(np.arange(1, m + 1), 2)
    base_a = np.tile([0, 1], m)
    extra = n - base_c.size
    centers = np.concatenate([base_c, rng.integers(1, m + 1, size=extra)])
    arms = np.concatenate([base_a, rng.integers(0, 2, size=extra)])
    return from_arrays(
        covariates=rng.standard_normal((n, 2)),
        center=centers,
        arm=arms,
        outcome=rng.standard_normal(n) * 3.0 + 1.0,
    )


MEANS = ("tau", "phi", "psi", "chi")
ALL_ESTIMATORS = MEANS + ("pooled", "fe1", "fe2")

# invariance properties: few examples, small n, reproducible draws
invariance_settings = settings(
    max_examples=6, deadline=None, derandomize=True, database=None
)
seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(40, 120)
center_counts = st.integers(2, 4)


def effect_dataset(seed, n, m):
    """Random dataset with covariate-dependent outcomes and center-specific effects."""
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, n=n, m=m)
    y = d.covariates @ [1.0, -0.5] + d.arm * (1.0 + d.center) + rng.standard_normal(n)
    return from_arrays(d.covariates, d.center, d.arm, y)


def effects(d, arms=(1, 0)):
    """{(estimator, center): (value, se)} for all seven estimators by estimate_effects."""
    configs = default_nuisance_configs(d.covariate_names)
    return {
        (rec.estimator, rec.center): (rec.value, rec.se)
        for rec in estimate_effects(d, ALL_ESTIMATORS, arms, configs)
    }


def assert_effects_close(got, want, scale=1.0):
    assert got.keys() == want.keys()
    for key, (value, se) in want.items():
        assert got[key][0] == pytest.approx(scale * value, rel=1e-6, abs=1e-8), key
        assert got[key][1] == pytest.approx(abs(scale) * se, rel=1e-6, abs=1e-8), key


# ---------------------------------------------------------------------------
# crude estimator
# ---------------------------------------------------------------------------


def test_tau_constant_cell():
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 1], [3.0, 3.0, 3.0])
    assert estimate_tau(d, 1, 1).value == 3.0


def test_tau_hand_means_and_contrast():
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 0], [2.0, 4.0, 1.0])
    assert estimate_tau(d, 1, 1).value == 3.0
    assert estimate_tau(d, 1, 0).value == 1.0
    rec = estimate_contrast(d, "tau", 1, 1, 0)
    assert rec.value == 2.0
    assert rec.estimand == "contrast"
    assert rec.arms == (1, 0)


def test_tau_symmetric_cell_is_zero():
    d = from_arrays([[0.0]] * 2, [1, 1], [1, 1], [-1.0, 1.0])
    assert estimate_tau(d, 1, 1).value == 0.0


def test_tau_empty_cell():
    # arm 1 exists in the data but not in center 1
    d = from_arrays([[0.0]] * 3, [1, 2, 2], [0, 0, 1], [1.0, 2.0, 3.0])
    with pytest.raises(PositivityError):
        estimate_tau(d, 1, 1)


def test_tau_influence_by_hand():
    # influence = (n / n_cell) * I(cell) * (Y - value)
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 0], [2.0, 4.0, 1.0])
    rec = estimate_tau(d, 1, 1)
    np.testing.assert_allclose(rec.influence, [(3 / 2) * (2 - 3), (3 / 2) * (4 - 3), 0.0])
    assert abs(rec.influence.mean()) < 1e-12


def test_contrast_same_arm_rejected():
    # mean(c, a) − mean(c, a) is 0 with SE 0 whatever the data: not an estimate
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [1, 1, 0], [2.0, 4.0, 1.0])
    with pytest.raises(ParameterError, match="two different arms"):
        estimate_contrast(d, "tau", 1, 1, 1)


def test_bad_center_and_arm_rejected():
    d = from_arrays([[0.0]] * 2, [1, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(ParameterError):
        estimate_tau(d, 2, 1)
    with pytest.raises(ParameterError):
        estimate_tau(d, 1, 7)
    with pytest.raises(ParameterError):
        estimate_contrast(d, "nope", 1, 1, 0)
    # a center or arm that is not an integer is not truncated to one
    with pytest.raises(ParameterError, match="center must be an integer, got 1.9"):
        estimate_tau(d, 1.9, 1)
    with pytest.raises(ParameterError, match="center must be an integer, got '2'"):
        estimate_tau(d, "2", 1)
    with pytest.raises(ParameterError, match="arms must be integers, got 1.5, 0"):
        estimate_contrast(d, "tau", 1, 1.5, 0)


# ---------------------------------------------------------------------------
# augmented center-specific estimator
# ---------------------------------------------------------------------------


def phi_hand_data():
    # center 1 rows (A, Y) = (1,10), (0,0), (1,6), (0,2)
    return from_arrays([[0.0]] * 4, [1, 1, 1, 1], [1, 0, 1, 0], [10.0, 0.0, 6.0, 2.0])


def test_phi_hand_example():
    # fixed e = 0.5, g = 8: per-row terms 12, 8, 4, 8 -> mean 8
    d = phi_hand_data()
    nuis = FixedNuisances(
        outcome={1: np.full(4, 8.0)},
        arm_probabilities={1: np.full(4, 0.5)},
    )
    rec = estimate_phi(d, 1, 1, cfg=None, nuisances=nuis)
    assert rec.value == 8.0
    assert rec.estimator == "phi"
    np.testing.assert_allclose(rec.influence, [4.0, 0.0, -4.0, 0.0])


def test_phi_dr_with_zero_outcome_equals_ipw():
    rng = np.random.default_rng(21)
    for _ in range(10):
        d = random_dataset(rng)
        e = rng.uniform(0.2, 0.8, size=d.n)
        for a in (0, 1):
            nuis_zero = FixedNuisances(
                outcome={a: np.zeros(d.n)},
                arm_probabilities={a: e if a == 1 else 1.0 - e},
            )
            nuis_ipw = FixedNuisances(arm_probabilities={a: e if a == 1 else 1.0 - e})
            for c in range(1, d.m + 1):
                dr = estimate_phi(d, c, a, cfg=None, variant="dr", nuisances=nuis_zero)
                ipw = estimate_phi(d, c, a, cfg=None, variant="ipw", nuisances=nuis_ipw)
                assert dr.value == ipw.value
                np.testing.assert_array_equal(dr.influence, ipw.influence)
                assert ipw.estimator == "phi_ipw"


def test_phi_dr_with_exact_outcome_equals_om():
    # when the outcome model reproduces Y exactly, the weighted residual term
    # vanishes and dr == om bitwise
    rng = np.random.default_rng(22)
    for _ in range(10):
        d = random_dataset(rng)
        for a in (0, 1):
            nuis = FixedNuisances(
                outcome={a: d.outcome.copy()},
                arm_probabilities={a: np.full(d.n, 0.5)},
            )
            for c in range(1, d.m + 1):
                dr = estimate_phi(d, c, a, cfg=None, variant="dr", nuisances=nuis)
                om = estimate_phi(d, c, a, cfg=None, variant="om", nuisances=nuis)
                assert dr.value == om.value
                np.testing.assert_array_equal(dr.influence, om.influence)
                assert om.estimator == "phi_om"


def test_phi_equals_tau_under_saturated_nuisances():
    # intercept-only per-(c,a) outcome model plus empirical within-center
    # arm proportions collapse the augmented estimator to the crude mean
    rng = np.random.default_rng(106)
    checked = 0
    for _ in range(100):
        d = random_dataset(rng)
        counts = np.zeros((d.m, 2))
        for c in range(1, d.m + 1):
            for j, a in enumerate((0, 1)):
                counts[c - 1, j] = np.sum((d.center == c) & (d.arm == a))
        table = counts / counts.sum(axis=1, keepdims=True)
        cfg = NuisanceConfig(
            outcome_spec=["1", "C"],
            treatment_spec=KnownProbabilities(table),
        )
        for c in range(1, d.m + 1):
            for a in (0, 1):
                phi = estimate_phi(d, c, a, cfg)
                tau = estimate_tau(d, c, a)
                assert abs(phi.value - tau.value) < 1e-10
                checked += 1
    assert checked >= 100


def test_phi_zero_probability_names_row():
    d = phi_hand_data()
    e = np.array([0.5, 0.5, 0.0, 0.5])
    nuis = FixedNuisances(outcome={1: np.zeros(4)}, arm_probabilities={1: e})
    with pytest.raises(DivisionError, match="row 2"):
        estimate_phi(d, 1, 1, cfg=None, nuisances=nuis)


def test_phi_unknown_variant():
    d = phi_hand_data()
    with pytest.raises(ParameterError):
        estimate_phi(d, 1, 1, cfg=simple_config(), variant="aipw")


# ---------------------------------------------------------------------------
# pooled doubly robust estimator
# ---------------------------------------------------------------------------


def psi_hand_data():
    # rows (C, A, Y): (1,1,4), (1,0,0), (2,1,8), (2,0,2)
    return from_arrays([[0.0]] * 4, [1, 1, 2, 2], [1, 0, 1, 0], [4.0, 0.0, 8.0, 2.0])


def test_psi_hand_example():
    # fixed p_1 = 0.5, e_1 = 0.5, g_1 = 6: per-row terms 4, 6, 2, 0 -> mean 6
    d = psi_hand_data()
    nuis = FixedNuisances(
        outcome={1: np.full(4, 6.0)},
        arm_probabilities={1: np.full(4, 0.5)},
        membership=np.full((4, 2), 0.5),
    )
    rec = estimate_psi(d, 1, 1, cfg=None, nuisances=nuis)
    assert rec.value == 6.0
    assert rec.estimator == "psi"
    np.testing.assert_allclose(rec.influence, [-4.0, 0.0, 4.0, 0.0])
    assert abs(rec.influence.mean()) < 1e-12


def test_psi_rejects_center_terms_in_outcome_model():
    d = psi_hand_data()
    with pytest.raises(SpecError):
        estimate_psi(d, 1, 1, simple_config(outcome_spec=["1", "C"]))
    with pytest.raises(SpecError):
        estimate_psi(d, 1, 1, simple_config(outcome_spec=["1", "x1:C"]))


def test_psi_variant_reductions():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = random_dataset(rng, m=2)
        p = rng.uniform(0.2, 0.8, size=d.n)
        membership = np.column_stack([p, 1.0 - p])
        e = rng.uniform(0.3, 0.7, size=d.n)
        for a in (0, 1):
            probs = {a: e if a == 1 else 1.0 - e}
            zero = FixedNuisances(outcome={a: np.zeros(d.n)}, arm_probabilities=probs,
                                  membership=membership)
            ipw_nuis = FixedNuisances(arm_probabilities=probs, membership=membership)
            exact = FixedNuisances(outcome={a: d.outcome.copy()}, arm_probabilities=probs,
                                   membership=membership)
            for c in (1, 2):
                dr0 = estimate_psi(d, c, a, cfg=None, variant="dr", nuisances=zero)
                ipw = estimate_psi(d, c, a, cfg=None, variant="ipw", nuisances=ipw_nuis)
                assert dr0.value == ipw.value
                np.testing.assert_array_equal(dr0.influence, ipw.influence)
                drx = estimate_psi(d, c, a, cfg=None, variant="dr", nuisances=exact)
                om = estimate_psi(d, c, a, cfg=None, variant="om", nuisances=exact)
                assert drx.value == om.value
                np.testing.assert_array_equal(drx.influence, om.influence)


def test_psi_single_center_equals_phi():
    rng = np.random.default_rng(31)
    d = random_dataset(rng, m=1)
    cfg = simple_config()
    for a in (0, 1):
        psi = estimate_psi(d, 1, a, cfg)
        phi = estimate_phi(d, 1, a, cfg)
        assert psi.value == phi.value
        np.testing.assert_array_equal(psi.influence, phi.influence)


def test_psi_marginal_arm_probability_mixes_known_per_center_probabilities():
    # treatment is randomized within centers, so Pr[A=a | X] is
    # Σ_c Pr[C=c | X]·Pr[A=a | C=c]: bitwise the hand-built mixture when the
    # known probabilities vary, exactly the constant when they do not
    rng = np.random.default_rng(37)
    d = random_dataset(rng, m=3)
    table = [[0.3, 0.7], [0.5, 0.5], [0.8, 0.2]]
    nuis = FittedNuisances(d, simple_config(treatment_spec=KnownProbabilities(table)))
    P = nuis.membership()
    for a in (0, 1):
        e = np.array([row[a] for row in table])
        want = (P @ e) / P.sum(axis=1)
        assert nuis.marginal_arm_probability(a).tobytes() == want.tobytes()
        assert np.isfinite(estimate_psi(d, 2, a, nuis.cfg, nuisances=nuis).value)

    for known in (KnownProbabilities([[0.4, 0.6]] * 3), KnownProbabilities([[0.4, 0.6]])):
        nuis = FittedNuisances(d, simple_config(treatment_spec=known))
        for a, p in ((0, 0.4), (1, 0.6)):
            np.testing.assert_array_equal(nuis.marginal_arm_probability(a), np.full(d.n, p))


def test_psi_zero_marginal_probability():
    d = psi_hand_data()
    nuis = FixedNuisances(
        outcome={1: np.zeros(4)},
        arm_probabilities={1: np.array([0.5, 0.5, 0.0, 0.5])},
        membership=np.full((4, 2), 0.5),
    )
    with pytest.raises(DivisionError):
        estimate_psi(d, 1, 1, cfg=None, nuisances=nuis)


# ---------------------------------------------------------------------------
# transport-style estimator
# ---------------------------------------------------------------------------


def test_chi_hand_example():
    # rows (C,A,Y): (1,1,0), (2,1,4); p_1 = 0.5, e = 0.5, g = 0
    # single donor row contributes (0.5 / (0.5 * 0.5)) * 4 = 8
    d = from_arrays([[0.0]] * 2, [1, 2], [1, 1], [0.0, 4.0])
    nuis = FixedNuisances(
        outcome={1: np.zeros(2)},
        arm_probabilities={1: np.full(2, 0.5)},
        membership=np.full((2, 2), 0.5),
    )
    rec = estimate_chi(d, 1, 1, cfg=None, nuisances=nuis)
    assert rec.value == 8.0
    assert rec.estimator == "chi"
    assert abs(rec.influence.mean()) < 1e-12


def test_chi_constant_outcome():
    # identical covariate distributions, constant outcome: fitted donor model
    # predicts 9 everywhere, residuals vanish, so chi = 9 exactly
    d = from_arrays(
        [[0.0], [1.0], [0.0], [1.0]], [1, 1, 2, 2], [0, 1, 0, 1], [9.0, 9.0, 9.0, 9.0]
    )
    cfg = simple_config(outcome_spec=["1"], treatment_spec=["1"], membership_spec=["1"])
    for a in (0, 1):
        assert estimate_chi(d, 1, a, cfg).value == pytest.approx(9.0, abs=1e-12)


def test_chi_needs_two_centers():
    d = from_arrays([[0.0]] * 2, [1, 1], [0, 1], [1.0, 2.0])
    with pytest.raises(NoDonorError):
        estimate_chi(d, 1, 1, simple_config())


def test_chi_empty_donor_arm():
    # errors name a center by its label: center 1 is label 7
    d = from_arrays([[0.0]] * 3, [7, 7, 3], [0, 1, 0], [1.0, 2.0, 3.0])
    with pytest.raises(PositivityError, match="^donor pool of center 7 has no rows in arm 1$"):
        estimate_chi(d, 1, 1, simple_config())


def test_chi_fitted_treatment_model_needs_both_arms_in_each_donor_pool(monkeypatch):
    # only center A has arm-0 rows, so A's donor pool (B and C) has none and
    # its treatment model cannot be fit: the request fails before any fit
    rng = np.random.default_rng(3)
    center = np.repeat(["A", "B", "C"], 20)
    arm = np.where(center == "A", np.tile([0, 1], 30), 1)
    d = from_arrays(rng.standard_normal((60, 2)), center, arm, rng.standard_normal(60))
    cfg = default_nuisance_configs(d.covariate_names)["chi"]
    calls = []
    for name in ("fit_ols", "fit_logistic", "fit_multinomial", "factor_cells"):
        monkeypatch.setattr(estimators_module, name, lambda *a, _name=name, **k: calls.append(_name))
    with pytest.raises(PositivityError, match="^donor pool of center A has no rows in arm 0$"):
        estimate_mean(d, "chi", 1, 1, cfg)
    assert calls == []
    monkeypatch.undo()
    # known arm probabilities fit no treatment model: the pool needs arm 1 alone
    known = dataclasses.replace(cfg, treatment_spec=KnownProbabilities.constant(0.5))
    assert np.isfinite(estimate_mean(d, "chi", 1, 1, known).value)


def test_chi_overlap_violation():
    d = from_arrays([[0.0]] * 2, ["site-b", "site-a"], [1, 1], [0.0, 4.0])
    nuis = FixedNuisances(
        outcome={1: np.zeros(2)},
        arm_probabilities={1: np.full(2, 0.5)},
        membership=np.array([[0.5, 0.5], [1.0, 0.0]]),  # p_1 = 1 on the donor row
    )
    with pytest.raises(DivisionError, match="^membership probability for center site-b is 1 "
                                             r"at donor row 1 \(no overlap\)$"):
        estimate_chi(d, 1, 1, cfg=None, nuisances=nuis)


def donor_reference(d, spec, c, a):
    """Donor outcome prediction from fit_ols on the arm-a rows outside center c."""
    X, names = build_design(DesignSpec(spec), d)
    rows = (d.center != c) & (d.arm == a)
    return predict(fit_ols(X[rows], d.outcome[rows], column_names=names), X)


@pytest.mark.parametrize("m", [2, 3, 60])
@pytest.mark.filterwarnings("ignore::centereffects.AliasedColumnsWarning")  # m = 2: a 1-row pool
def test_donor_outcome_means_match_per_donor_fit_ols(m):
    rng = np.random.default_rng(m)
    counts = rng.integers(4, 12, size=(m, 2))
    counts[0, 1] = 1  # n_{1,1} = 1
    center = np.repeat(np.repeat(np.arange(1, m + 1), 2), counts.ravel())
    arm = np.repeat(np.tile([0, 1], m), counts.ravel())
    x = rng.standard_normal((len(arm), 2))
    d = from_arrays(x, center, arm, x @ [1.0, -2.0] + rng.standard_normal(len(arm)))
    spec = ["1", "x1", "x2", "x1:x2"]
    nuis = FittedNuisances(d, simple_config(outcome_spec=spec))
    for c in range(1, m + 1):
        for a in (0, 1):
            want = donor_reference(d, spec, c, a)
            np.testing.assert_allclose(nuis.donor_outcome_mean(c, a), want,
                                       rtol=1e-10, atol=1e-10 * np.abs(want).max())
    # each arm's centers are factored once, for every donor fit
    assert sum(key[0] == "outcome cells" for key in d._fits) == 2


@pytest.mark.parametrize("outside", [2.5, 1.0, -1.0])
def test_donor_fit_aliased_only_without_one_center(outside):
    # x1 equals ``outside`` except in center 2, so only center 2's donor pool
    # has x1 aliased with the intercept
    rng = np.random.default_rng(12)
    center, arm = np.repeat([1, 2, 3], 20), np.tile([0, 1], 30)
    x = np.column_stack([np.full(60, outside), rng.standard_normal(60)])
    x[center == 2, 0] = rng.standard_normal(20)
    d = from_arrays(x, center, arm, rng.standard_normal(60))
    spec = ["1", "x1", "x2"]
    nuis = FittedNuisances(d, simple_config(outcome_spec=spec))
    for a in (0, 1):
        with pytest.warns(AliasedColumnsWarning) as got:
            value = nuis.donor_outcome_mean(2, a)
        with pytest.warns(AliasedColumnsWarning) as want:
            reference = donor_reference(d, spec, 2, a)
        if outside == 2.5:
            np.testing.assert_allclose(value, reference, rtol=1e-10, atol=1e-10)
            assert [str(w.message) for w in got] == [str(w.message) for w in want]
            assert str(got[0].message) == "fit_ols: dropped aliased design column(s) 1"
        else:  # the norms tie exactly: roundoff picks the column, which moves
            # the predictions in center 2 but not the fitted values
            rows = (d.center != 2) & (d.arm == a)
            np.testing.assert_allclose(value[rows], reference[rows], rtol=1e-10, atol=1e-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error", AliasedColumnsWarning)
            for c in (1, 3):
                nuis.donor_outcome_mean(c, a)


def per_donor_chi_nuisances(d, cfg, centers, fitted):
    """FixedNuisances whose donor outcomes come one pool at a time, from
    fit_ols_cells on the arm's cell factors and predict; the other
    nuisances are ``fitted``'s."""
    X, names = build_design(cfg.outcome_spec, d)
    donor_outcome, donor_arm = {}, {}
    for a in (0, 1):
        rows = d.arm == a
        factors = factor_cells(X[rows].__getitem__, d.outcome[rows], d.center[rows])
        for c in centers:
            donor_outcome[c, a] = predict(fit_ols_cells(factors, c, column_names=names), X)
            donor_arm[c, a] = fitted.donor_arm_probability(c, a)
    return FixedNuisances(membership=fitted.membership(), donor_outcome=donor_outcome,
                          donor_arm_probabilities=donor_arm)


def one_row_cell_data(m):
    rng = np.random.default_rng(m)
    counts = rng.integers(4, 12, size=(m, 2))
    counts[0, 1] = 1  # n_{1,1} = 1
    center = np.repeat(np.repeat(np.arange(1, m + 1), 2), counts.ravel())
    arm = np.repeat(np.tile([0, 1], m), counts.ravel())
    x = rng.standard_normal((len(arm), 2))
    return from_arrays(x, center, arm, x @ [1.0, -2.0] + rng.standard_normal(len(arm)))


@pytest.mark.parametrize("m", [2, 3, 60])
@pytest.mark.filterwarnings("ignore::centereffects.AliasedColumnsWarning")  # m = 2: a 1-row pool
def test_chi_batched_donor_fits_match_one_pool_at_a_time(m):
    d = one_row_cell_data(m)
    cfg = simple_config(outcome_spec=["1", "x1", "x2", "x1:x2"], treatment_spec=["1"])
    got = center_contrasts(d, "chi", 1, 0, cfg)
    reference = per_donor_chi_nuisances(d, cfg, range(1, m + 1), FittedNuisances(d, cfg))
    for c, rec in enumerate(got, start=1):
        want = estimate_contrast(d, "chi", c, 1, 0, cfg, nuisances=reference)
        assert rec.value == pytest.approx(want.value, rel=1e-12, abs=0.0)
        np.testing.assert_allclose(rec.influence, want.influence, rtol=0.0,
                                   atol=1e-12 * np.abs(want.influence).max())
    # each arm's per-center R factors, not one fit per donor pool; the memo
    # keeps no n-row donor prediction: the membership model's is its only one
    assert sorted(key[2] for key in d._fits if key[0] == "outcome cells") == [0, 1]
    assert [key[0] for key, value in d._fits.items()
            if getattr(value, "shape", ())[:1] == (d.n,)] == ["membership"]


@pytest.mark.parametrize("outside", [2.5, 1.0, -1.0])
def test_chi_fits_only_the_requested_centers_pools(outside):
    # the data of test_donor_fit_aliased_only_without_one_center: only center
    # 2's donor pool has x1 aliased, so only an estimate for center 2 warns
    rng = np.random.default_rng(12)
    center, arm = np.repeat([1, 2, 3], 20), np.tile([0, 1], 30)
    x = np.column_stack([np.full(60, outside), rng.standard_normal(60)])
    x[center == 2, 0] = rng.standard_normal(20)
    d = from_arrays(x, center, arm, rng.standard_normal(60))
    cfg = simple_config(outcome_spec=["1", "x1", "x2"], membership_spec=["1", "x2"])
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasedColumnsWarning)
        estimate_chi(d, 1, 1, cfg)
    X, names = build_design(cfg.outcome_spec, d)
    for a in (0, 1):
        rows = d.arm == a
        with pytest.warns(AliasedColumnsWarning) as want:
            fit_ols_cells(factor_cells(X[rows].__getitem__, d.outcome[rows], d.center[rows]), 2,
                          column_names=names)
        with pytest.warns(AliasedColumnsWarning) as got:
            estimate_chi(d, 2, a, cfg)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]


def test_chi_rejects_center_terms_in_outcome_model():
    # a donor fit never sees the target center, so its indicator would be
    # dropped and the target rows predicted at an arbitrary donor's level
    d = random_dataset(np.random.default_rng(3), n=40, m=3)
    for spec in (["1", "C"], ["1", "x1:C"]):
        with pytest.raises(SpecError, match="center terms"):
            estimate_chi(d, 1, 1, simple_config(outcome_spec=spec))


def test_membership_model_rejects_center_terms():
    # Pr[C=c | X] with center indicators on the right fits C on itself
    for spec in (["1", "C"], ["1", "x1", "x1:C"], ["C"]):
        with pytest.raises(SpecError, match="membership model"):
            simple_config(membership_spec=spec)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


def test_influence_mean_zero_all_estimators():
    rng = np.random.default_rng(61)
    for _ in range(5):
        d = random_dataset(rng, n=60, m=3)
        cfg = simple_config()
        bundle = FittedNuisances(d, cfg)
        for c in range(1, 4):
            for a in (0, 1):
                for rec in (
                    estimate_tau(d, c, a),
                    estimate_phi(d, c, a, cfg, nuisances=bundle),
                    estimate_psi(d, c, a, cfg, nuisances=bundle),
                    estimate_chi(d, c, a, cfg, nuisances=bundle),
                ):
                    tol = 1e-8 * abs(rec.value) + 1e-10
                    assert abs(rec.influence.mean()) < tol
                    assert rec.influence.shape == (d.n,)


def test_influence_vector_read_only():
    d = phi_hand_data()
    rec = estimate_tau(d, 1, 1)
    with pytest.raises(ValueError):
        rec.influence[0] = 5.0


def test_location_equivariance():
    rng = np.random.default_rng(71)
    d = random_dataset(rng, n=50, m=2)
    shifted = from_arrays(d.covariates, d.center, d.arm, d.outcome + 100.0)
    cfg = simple_config()
    for c in (1, 2):
        for a in (0, 1):
            assert estimate_tau(shifted, c, a).value == pytest.approx(
                estimate_tau(d, c, a).value + 100.0, abs=1e-10)
            assert estimate_phi(shifted, c, a, cfg).value == pytest.approx(
                estimate_phi(d, c, a, cfg).value + 100.0, abs=1e-8)
            assert estimate_psi(shifted, c, a, cfg).value == pytest.approx(
                estimate_psi(d, c, a, cfg).value + 100.0, abs=1e-8)
        rec_d = estimate_contrast(d, "phi", c, 1, 0, cfg)
        rec_s = estimate_contrast(shifted, "phi", c, 1, 0, cfg)
        assert rec_s.value == pytest.approx(rec_d.value, abs=1e-8)


@invariance_settings
@given(seed=seeds, n=sizes, m=center_counts,
       scale=st.sampled_from([-3.5, -1.0, 0.25, 7.0]),
       shift=st.sampled_from([0.0, 5.0, -300.0]))
def test_scale_equivariance(seed, n, m, scale, shift):
    # Y -> s*Y + b scales every contrast by s and every SE by |s|: the shift
    # cancels in each contrast, and every outcome model has an intercept
    d = effect_dataset(seed, n, m)
    scaled = from_arrays(d.covariates, d.center, d.arm, d.outcome * scale + shift)
    assert_effects_close(effects(scaled), effects(d), scale)


def test_center_permutation_equivariance():
    rng = np.random.default_rng(83)
    d = random_dataset(rng, n=80, m=3)
    perm = {1: 3, 2: 1, 3: 2}
    d2 = from_arrays(
        d.covariates,
        [perm[int(c)] for c in d.center],
        d.arm,
        d.outcome,
    )
    # from_arrays relabels by first appearance; map original center c to its
    # canonical id in the permuted dataset
    relabel = {lab: i + 1 for i, lab in enumerate(d2.center_labels)}
    cfg = simple_config(outcome_spec=["1", "x1", "C"])
    for c in (1, 2, 3):
        c2 = relabel[perm[c]]
        for a in (0, 1):
            assert estimate_tau(d2, c2, a).value == pytest.approx(
                estimate_tau(d, c, a).value, abs=1e-12)
            assert estimate_phi(d2, c2, a, cfg).value == pytest.approx(
                estimate_phi(d, c, a, cfg).value, abs=1e-8)
            psi_cfg = simple_config()
            assert estimate_psi(d2, c2, a, psi_cfg).value == pytest.approx(
                estimate_psi(d, c, a, psi_cfg).value, abs=1e-5)
            assert estimate_chi(d2, c2, a, psi_cfg).value == pytest.approx(
                estimate_chi(d, c, a, psi_cfg).value, abs=1e-5)


@invariance_settings
@given(seed=seeds, n=sizes, m=center_counts)
def test_row_permutation_invariance(seed, n, m):
    d = effect_dataset(seed, n, m)
    order = np.random.default_rng(seed + 1).permutation(n)
    labels = np.asarray(d.center_labels)[d.center - 1]
    shuffled = from_arrays(
        d.covariates[order], labels[order], d.arm[order], d.outcome[order]
    )
    # from_arrays numbers centers by first appearance; compare by label
    ids = {label: c for c, label in enumerate(shuffled.center_labels, start=1)}
    got = effects(shuffled)
    want = {
        (est, ids[d.center_labels[c - 1]]): v for (est, c), v in effects(d).items()
    }
    assert_effects_close(got, want)


@invariance_settings
@given(seed=seeds, n=sizes, m=center_counts)
def test_arm_code_swap_invariance(seed, n, m):
    # recoding arms 0 <-> 1 and swapping the contrast arms changes nothing
    d = effect_dataset(seed, n, m)
    swapped = from_arrays(d.covariates, d.center, 1 - d.arm, d.outcome)
    assert_effects_close(effects(swapped, arms=(0, 1)), effects(d))


# ---------------------------------------------------------------------------
# all-centers evaluation
# ---------------------------------------------------------------------------


def test_center_contrasts_are_slices_of_per_center_estimates():
    d = random_dataset(np.random.default_rng(97), n=90, m=3)
    # each per-center estimate fits its own models, on a fresh copy of the dataset
    cfg = simple_config()
    for estimator in MEANS:
        for arms in ((1, 0), (0, 1)):
            records = center_contrasts(d, estimator, *arms, cfg)
            assert [rec.center for rec in records] == [1, 2, 3]
            for c, rec in enumerate(records, start=1):
                want = estimate_contrast(dataclasses.replace(d), estimator, c, *arms, cfg)
                assert (rec.estimator, rec.arms) == (want.estimator, want.arms)
                assert np.float64(rec.value).tobytes() == np.float64(want.value).tobytes()
                assert rec.influence.tobytes() == want.influence.tobytes()


def test_blocked_all_centers_pass_matches_per_center_estimates():
    # n = 30 000 runs the m = 10 centers in blocks of 8 and 2
    d = random_dataset(np.random.default_rng(11), n=30_000, m=10)
    assert estimators_module._INFORMATION_BLOCK_VALUES // d.n == 8
    cfg = simple_config()
    per_center = dataclasses.replace(d)  # its own fits, shared by its centers
    for estimator in MEANS:
        for arms in ((1,), (0,), (1, 0), (0, 1)):
            if len(arms) == 1:
                records = estimators_module._check_request(d, estimator, range(1, d.m + 1),
                                                           arms, cfg, "dr")()
            else:
                records = center_contrasts(d, estimator, *arms, cfg)
            assert [rec.center for rec in records] == list(range(1, d.m + 1))
            for c, rec in enumerate(records, start=1):
                if len(arms) == 1:
                    want = estimate_mean(per_center, estimator, c, *arms, cfg)
                else:
                    want = estimate_contrast(per_center, estimator, c, *arms, cfg)
                assert np.float64(rec.value).tobytes() == np.float64(want.value).tobytes()
                assert rec.influence.tobytes() == want.influence.tobytes()


def test_chi_pass_memory_stays_below_its_output_and_one_block():
    # with the dataset's fits in place, chi's pass holds its (n, m) output
    # and one block's temporaries of (n, 2) values; it measured 2.09 (n, m)
    # matrices (5.40 before the centers ran in blocks), and the bound leaves
    # a 20% margin
    d = generate_dataset(Scenario.strong(n=100_000), seed=3)
    cfg = default_nuisance_configs(d.covariate_names)["chi"]
    center_contrasts(d, "chi", 1, 0, cfg)
    tracemalloc.start()
    try:
        center_contrasts(d, "chi", 1, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * d.n * d.m * 8


def test_first_request_memory_holds_no_design():
    # the first estimate_effects call with all seven estimators fits every
    # model; with no design kept in the dataset's fits it measured 3.79 (n, m)
    # float64 matrices, against 5.19 when the fits memo kept each design
    d = generate_dataset(Scenario.strong(n=100_000), seed=3)
    configs = default_nuisance_configs(d.covariate_names)
    tracemalloc.start()
    try:
        estimate_effects(d, ALL_ESTIMATORS, (1, 0), configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * d.n * d.m * 8


def memo_arrays(value):
    """Every array a fits-memo value holds, in tuples and fit records too."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from memo_arrays(item)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from memo_arrays(getattr(value, field.name))


@pytest.mark.parametrize("treatment", [["1"], ["1", "x1"]], ids=["from-counts", "fitted"])
def test_fits_memo_keeps_no_design(treatment, monkeypatch):
    d = random_dataset(np.random.default_rng(41), n=120, m=4)
    configs = {name: dataclasses.replace(cfg, treatment_spec=treatment)
               for name, cfg in default_nuisance_configs(d.covariate_names).items()}
    estimate_effects(d, MEANS, (1, 0), configs)
    assert not [key for key in d._fits if key[0] == "design"]
    # the membership prediction is the memo's only (n, ·) matrix
    held = [(key, a.shape) for key, value in d._fits.items()
            for a in memo_arrays(value) if a.ndim == 2 and len(a) == d.n]
    assert held == [(("membership", configs["psi"].membership_spec, None, None), (d.n, d.m))]
    # with every fit memoised, only chi's donor predictions build a design
    built = []
    monkeypatch.setattr(estimators_module, "build_design",
                        lambda spec, data: built.append(spec) or build_design(spec, data))
    estimate_effects(d, ["tau", "phi", "psi"], (1, 0), configs)
    assert built == []
    estimate_effects(d, ["chi"], (1, 0), configs)
    chi = configs["chi"]
    assert set(built) == {chi.outcome_spec} | ({chi.treatment_spec} if treatment != ["1"] else set())


@pytest.mark.parametrize("m, n, seed", [(200, 2000, 8), (60, 400, 3)])
def test_many_centers_with_one_row_cells_give_finite_records(m, n, seed):
    # one row of each arm planted in every center; both seeds leave some
    # center with one row in each arm (151; 22 and 60)
    d = random_dataset(np.random.default_rng(seed), n=n, m=m)
    counts = np.zeros((m, 2), dtype=int)
    np.add.at(counts, (d.center - 1, d.arm), 1)
    assert counts.min() == 1 and (counts == 1).all(axis=1).any()
    records = estimate_effects(d, ALL_ESTIMATORS, (1, 0), default_nuisance_configs(d.covariate_names))
    assert len(records) == len(ALL_ESTIMATORS) * m
    for rec in records:
        assert np.isfinite([rec.value, rec.se, rec.ci_low, rec.ci_high]).all(), rec


@pytest.mark.parametrize("estimator", ["tau", "phi"])
def test_center_contrasts_name_first_empty_cell_center_by_center(estimator):
    # center 2 has no arm-0 rows and center 3 no arm-1 rows: going center by
    # center, (2, 0) comes before (3, 1)
    d = from_arrays(
        [[0.1], [0.4], [0.2], [0.9], [0.3], [0.7]],
        [1, 1, 2, 2, 3, 3], [0, 1, 1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
    )
    with pytest.raises(PositivityError, match="center 2, arm 0") as info:
        center_contrasts(d, estimator, 1, 0, simple_config())
    assert info.value.cells == ((2, 0),)


# ---------------------------------------------------------------------------
# comparators
# ---------------------------------------------------------------------------


def test_pooled_comparator_by_hand():
    # arm means 7 and 2 -> coefficient 5; rss 10 on 2 df, unscaled var 1
    d = from_arrays([[0.0]] * 4, [1, 1, 1, 1], [0, 0, 1, 1], [1.0, 3.0, 5.0, 9.0])
    rec = estimate_comparators(d, "pooled")
    assert rec.value == pytest.approx(5.0, abs=1e-12)
    assert rec.se == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert rec.estimator == "pooled"
    assert rec.arms == (1, 0)
    assert rec.influence is None


def test_single_center_pooled_equals_fe1():
    d = from_arrays([[0.0]] * 4, [1, 1, 1, 1], [0, 0, 1, 1], [1.0, 3.0, 5.0, 9.0])
    pooled = estimate_comparators(d, "pooled")
    fe1 = estimate_comparators(d, "fe1")
    assert pooled.value == fe1.value
    assert pooled.se == fe1.se


def test_fe2_uses_covariates():
    rng = np.random.default_rng(91)
    d = random_dataset(rng, n=40, m=2)
    fe1 = estimate_comparators(d, "fe1")
    fe2 = estimate_comparators(d, "fe2")
    assert fe1.value != fe2.value  # covariates shift the fit on noisy data


def test_estimate_comparators_takes_no_covariate_subset():
    # fe2 always adjusts for every covariate; a subset is fit_ols on build_design
    d = random_dataset(np.random.default_rng(91), n=40, m=2)
    with pytest.raises(TypeError, match="covariates"):
        estimate_comparators(d, "fe2", covariates=["x1"])


def test_comparator_aliased_arm():
    # x1 = 5 * A dominates the pivot, so the arm column is the one dropped
    d = from_arrays(
        [[0.0], [0.0], [5.0], [5.0]], [1, 1, 1, 1], [0, 0, 1, 1], [1.0, 2.0, 3.0, 4.0]
    )
    with pytest.warns(AliasedColumnsWarning):
        with pytest.raises(ComparatorError):
            estimate_comparators(d, "fe2")


def test_comparator_needs_two_rows_per_arm():
    d = from_arrays([[0.0]] * 3, [1, 1, 1], [0, 0, 1], [1.0, 2.0, 3.0])
    with pytest.raises(InsufficientDataError):
        estimate_comparators(d, "pooled")


def test_comparator_requires_binary_arms():
    d = from_arrays([[0.0]] * 4, [1, 1, 1, 1], [0, 0, 2, 2], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ComparatorError):
        estimate_comparators(d, "pooled")


def test_unknown_comparator():
    d = phi_hand_data()
    with pytest.raises(ParameterError):
        estimate_comparators(d, "fe3")


# ---------------------------------------------------------------------------
# known probabilities
# ---------------------------------------------------------------------------


def test_known_probabilities_validation():
    with pytest.raises(SpecError):
        KnownProbabilities([[0.0, 1.0]])
    with pytest.raises(SpecError):
        KnownProbabilities([[0.4, 0.4]])
    with pytest.raises(SpecError):
        KnownProbabilities([[0.3, 0.3, 0.4]])  # three columns, two arms


def test_known_probabilities_refuse_repeated_arms():
    # a repeated arm would read its first column: constant(0.3, arms=(1, 1))
    # gave Pr[A=1] = 0.7
    with pytest.raises(SpecError, match=r"^known probabilities need distinct arms, got \(1, 1\)$"):
        KnownProbabilities.constant(0.3, arms=(1, 1))
    with pytest.raises(SpecError, match=r"^known probabilities need distinct arms, got \(0, 1, 1\)$"):
        KnownProbabilities([[0.2, 0.3, 0.5]], arms=(0, 1, 1))
    with pytest.raises(SpecError, match="^treatment_spec: known probabilities need distinct arms"):
        NuisanceConfig(treatment_spec={"known": {"constant": 0.3, "arms": [1, 1]}})


def test_known_probabilities_lookup():
    kp = KnownProbabilities([[0.3, 0.7], [0.6, 0.4]])
    np.testing.assert_allclose(kp.per_center(1, 2), [0.7, 0.4])
    np.testing.assert_allclose(kp.per_center(0, 2), [0.3, 0.6])
    np.testing.assert_allclose(KnownProbabilities([[0.3, 0.7]]).per_center(0, 3), [0.3] * 3)
    with pytest.raises(SpecError, match="2 center rows, data has 3"):
        kp.per_center(0, 3)
    with pytest.raises(ParameterError):
        kp.per_center(2, 2)


def test_nuisance_config_reads_the_json_forms_of_known_probabilities():
    cfg = NuisanceConfig(treatment_spec={"known": {"constant": 0.3}})
    np.testing.assert_array_equal(cfg.treatment_spec.table, [[0.7, 0.3]])
    assert cfg.treatment_spec.arms == (0, 1)
    cfg = NuisanceConfig(treatment_spec={"known": {"table": [[0.4, 0.6]], "arms": [2, 1]}})
    assert cfg.treatment_spec.arms == (2, 1)
    for bad in ({}, {"known": {}}, {"known": 0.5}, {"known": {"constant": 0.5}, "arms": [0, 1]},
                {"known": {"constant": 0.5, "table": [[0.5, 0.5]]}}):
        with pytest.raises(ConfigError, match=r"^treatment_spec: must be a term list or "
                                              r"\{'known': \{'constant' or 'table'") as info:
            NuisanceConfig(treatment_spec=bad)
        assert type(info.value) is ConfigError
    with pytest.raises(SpecError, match="^treatment_spec: known constant probability"):
        NuisanceConfig(treatment_spec={"known": {"constant": "a"}})
    with pytest.raises(SpecError, match=r"^treatment_spec: known arm probabilities must lie"):
        NuisanceConfig(treatment_spec={"known": {"table": [[0.0, 1.0]]}})
    # only the treatment model may be known by design
    with pytest.raises(SpecError, match="^outcome_spec: must be a DesignSpec or a term list"):
        NuisanceConfig(outcome_spec={"known": {"constant": 0.5}})


@pytest.mark.parametrize("configs", [
    default_nuisance_configs(["x1", "x2"]),
    default_nuisance_configs(["x1", "x2"], known_arm_prob=0.3),
    {"table": NuisanceConfig(
        outcome_spec=["1", "x1"], membership_spec=["1"],
        treatment_spec=KnownProbabilities([[0.4, 0.6], [0.7, 0.3]], arms=(2, 5)))},
], ids=["defaults", "known-constant", "per-center-table"])
def test_nuisance_config_to_dict_round_trips(configs):
    for cfg in configs.values():
        payload = cfg.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert NuisanceConfig(**payload).to_dict() == payload
    if "phi" in configs:  # a field that is not set is left out
        assert list(configs["phi"].to_dict()) == ["outcome_spec", "treatment_spec"]
        assert configs["chi"].to_dict()["membership_spec"] == ["1", "x1", "x2"]
