"""Data-generation and study-harness tests.

The generator is validated against closed-form properties (noise-free
regression recovery, membership frequencies vs an independent quadrature of
the selection model) and the two oracles are cross-checked against each other.
"""
import multiprocessing
import threading
import time
import tracemalloc

import numpy as np
import pytest

import centereffects.simulation as simulation_module
from centereffects import (
    DesignSpec,
    InsufficientDataError,
    KnownProbabilities,
    NoDonorError,
    OracleReport,
    ParameterError,
    Scenario,
    StudyError,
    build_design,
    default_nuisance_configs,
    estimate_effects,
    fit_ols,
    generate_dataset,
    reference_softmax,
    run_study,
    true_center_ates,
    true_center_ates_quadrature,
)

TWO_CENTER_COEFFS = ((0.5, -0.3, 0.1, 0.2),)


def two_center_scenario(**kw):
    kw.setdefault("m", 2)
    kw.setdefault("membership_coeffs", TWO_CENTER_COEFFS)
    return Scenario(**kw)


# ---------------------------------------------------------------------------
# scenario plumbing
# ---------------------------------------------------------------------------


def test_scenario_defaults():
    sc = Scenario()
    assert sc.n == 1000 and sc.m == 10
    assert sc.noise_sd == 36.0 and sc.arm_prob == 0.5
    assert sc.strength == "baseline"
    assert len(sc.membership_coeffs) == 9


def test_scenario_roundtrip_and_hash():
    sc = Scenario.strong(n=500)
    back = Scenario.from_dict(sc.to_dict())
    assert back == sc
    assert hash(back) == hash(sc)


def test_scenario_validation():
    with pytest.raises(ParameterError):
        Scenario(n=0)
    with pytest.raises(ParameterError):
        Scenario(m=3)  # membership rows no longer match
    with pytest.raises(ParameterError):
        Scenario(arm_prob=1.0)
    with pytest.raises(ParameterError):
        Scenario(noise_sd=-1.0)
    with pytest.raises(ParameterError):
        Scenario(strength="extreme")
    with pytest.raises(ParameterError):
        Scenario.from_dict({"n": 100, "bogus": 1})
    with pytest.raises(ParameterError):
        Scenario(outcome_coeffs=(1.0, 2.0))


def test_strong_doubles_selection_column_and_interaction():
    base = Scenario.baseline()
    strong = Scenario.strong()
    eb = base.effective_membership_coeffs()
    es = strong.effective_membership_coeffs()
    np.testing.assert_array_equal(es[:, 1], 2.0 * eb[:, 1])  # x1 column doubled
    np.testing.assert_array_equal(es[:, [0, 2, 3]], eb[:, [0, 2, 3]])
    assert strong.effective_outcome_coeffs()[5] == 2.0 * base.effective_outcome_coeffs()[5]
    assert strong.effective_outcome_coeffs()[:5] == base.effective_outcome_coeffs()[:5]


# ---------------------------------------------------------------------------
# data generation
# ---------------------------------------------------------------------------


def test_generate_dataset_shapes_and_labels():
    d = generate_dataset(Scenario(), seed=(0, 0))
    assert d.n == 1000
    assert d.m == 10
    assert d.covariate_names == ("x1", "x2", "x3")
    assert d.center_labels == tuple(range(1, 11))
    assert set(np.unique(d.arm)) <= {0, 1}


def test_generate_dataset_deterministic():
    sc = Scenario.strong()
    a = generate_dataset(sc, seed=(7, 3))
    b = generate_dataset(sc, seed=(7, 3))
    np.testing.assert_array_equal(a.covariates, b.covariates)
    np.testing.assert_array_equal(a.center, b.center)
    np.testing.assert_array_equal(a.arm, b.arm)
    np.testing.assert_array_equal(a.outcome, b.outcome)
    c = generate_dataset(sc, seed=(7, 4))
    assert not np.array_equal(a.outcome, c.outcome)


def test_noise_free_outcome_recovers_coefficients():
    # with noise_sd = 0 the outcome is an exact linear function, so a single
    # regression recovers every generative coefficient to solver precision
    sc = Scenario(n=3000, noise_sd=0.0)
    d = generate_dataset(sc, seed=5)
    X, _ = build_design(DesignSpec(("1", "x1", "x2", "x3", "A", "x1:A")), d)
    fit = fit_ols(X, d.outcome)
    np.testing.assert_allclose(
        fit.coefficients, [161.0, 62.0, -1.0, -1.0, -43.0, -21.0], atol=1e-8
    )


def test_strong_scenario_doubles_interaction_in_data():
    sc = Scenario.strong(n=3000, noise_sd=0.0)
    d = generate_dataset(sc, seed=5)
    X, _ = build_design(DesignSpec(("1", "x1", "x2", "x3", "A", "x1:A")), d)
    fit = fit_ols(X, d.outcome)
    np.testing.assert_allclose(fit.coefficients[5], -42.0, atol=1e-8)


def test_membership_frequencies_match_quadrature():
    # independent route: P(C = c) = E[p_c(X)] over the standard normal law,
    # computed with tensor Gauss-Hermite quadrature built directly here
    sc = Scenario()
    nodes, w = np.polynomial.hermite_e.hermegauss(25)
    w = w / w.sum()
    g1, g2, g3 = np.meshgrid(nodes, nodes, nodes, indexing="ij")
    weights = (np.meshgrid(w, w, w, indexing="ij")[0]
               * np.meshgrid(w, w, w, indexing="ij")[1]
               * np.meshgrid(w, w, w, indexing="ij")[2]).ravel()
    coeffs = sc.effective_membership_coeffs()
    eta = coeffs[:, 0] + np.column_stack([g1.ravel(), g2.ravel(), g3.ravel()]) @ coeffs[:, 1:].T
    full = np.concatenate([np.zeros((eta.shape[0], 1)), eta], axis=1)
    full -= full.max(axis=1, keepdims=True)
    probs = np.exp(full)
    probs /= probs.sum(axis=1, keepdims=True)
    marginal = weights @ probs

    counts = np.zeros(10)
    draws = 0
    for rep in range(30):
        d = generate_dataset(sc, seed=(123, rep))
        counts += np.bincount(d.center, minlength=11)[1:]
        draws += d.n
    freq = counts / draws
    sds = np.sqrt(marginal * (1 - marginal) / draws)
    assert np.all(np.abs(freq - marginal) < 4.5 * sds)


def test_arm_frequency_tracks_arm_prob():
    sc = two_center_scenario(n=5000, arm_prob=0.3)
    d = generate_dataset(sc, seed=9)
    assert abs(d.arm.mean() - 0.3) < 4.5 * np.sqrt(0.3 * 0.7 / 5000)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def test_zero_interaction_oracle_is_exact():
    sc = Scenario(outcome_coeffs=(161.0, 62.0, -1.0, -1.0, -43.0, 0.0))
    mc = true_center_ates(sc, oracle_n=20_000, seed=0)
    assert mc.values == tuple([-43.0] * 10)
    assert mc.mc_se == tuple([0.0] * 10)
    quad = true_center_ates_quadrature(sc)
    assert quad.values == tuple([-43.0] * 10)


def _unblocked_oracle(scenario, oracle_n, seed):
    """(values, mc_se) of the Monte Carlo oracle with each chunk's centers
    drawn in one piece, from its (m, chunk) probability matrix."""
    rng = np.random.default_rng(seed)
    m = scenario.m
    count, sum_x1, sum_x1sq = np.zeros(m), np.zeros(m), np.zeros(m)
    remaining = oracle_n
    while remaining > 0:
        size = min(simulation_module._ORACLE_CHUNK, remaining)
        remaining -= size
        X = rng.standard_normal((size, 3))
        centers = simulation_module._draw_centers(
            simulation_module._membership_probabilities(scenario, X), rng.random(size))
        x1 = X[:, 0]
        count += np.bincount(centers - 1, minlength=m)
        sum_x1 += np.bincount(centers - 1, weights=x1, minlength=m)
        sum_x1sq += np.bincount(centers - 1, weights=x1 * x1, minlength=m)
    _, _, _, _, barm, binter = scenario.effective_outcome_coeffs()
    mean_x1 = sum_x1 / count
    var_x1 = np.maximum(sum_x1sq / count - mean_x1 ** 2, 0.0)
    values = barm + binter * mean_x1
    mc_se = abs(binter) * np.sqrt(var_x1 / count)
    return tuple(float(v) for v in values), tuple(float(s) for s in mc_se)


def sixty_center_scenario():
    rng = np.random.default_rng(60)
    coeffs = np.column_stack([rng.uniform(-0.5, 0.5, 59), rng.uniform(-0.4, 0.4, (59, 3))])
    return Scenario.strong(m=60, membership_coeffs=coeffs.tolist())


@pytest.mark.parametrize("scenario", [two_center_scenario(), Scenario.strong(),
                                      sixty_center_scenario()], ids=["m2", "m10", "m60"])
def test_blocked_oracle_draws_what_one_block_per_chunk_draws(monkeypatch, scenario):
    # a center depends only on its own row and the sums continue in row order,
    # so the blocks change no bit
    block = simulation_module._ORACLE_BLOCK_VALUES // scenario.m
    chunk = simulation_module._ORACLE_CHUNK
    for oracle_n in (block - 1, block + 1, chunk + 12_345):
        for seed in (0, 7):
            got = true_center_ates.__wrapped__(scenario, oracle_n, seed)
            assert (got.values, got.mc_se) == _unblocked_oracle(scenario, oracle_n, seed)
    # small sizes: one chunk short of full, whole chunks, many chunks with a
    # partial last one, blocks of one row (block values below m), a block
    # wider than its chunk, and chunks of 600 that are whole blocks (150, 60
    # and 10 rows at m = 2, 10 and 60)
    for chunk, block_values, draws in ((777, 50, (776, 2_331, 2_344)), (5, 7, (600, 2_344)),
                                       (777, 1, (2_344,)), (777, 2 ** 18, (776, 2_344)),
                                       (600, 600, (1_200, 2_344))):
        monkeypatch.setattr(simulation_module, "_ORACLE_CHUNK", chunk)
        monkeypatch.setattr(simulation_module, "_ORACLE_BLOCK_VALUES", block_values)
        for oracle_n, seed in zip(draws, (3, 0, 7)):
            got = true_center_ates.__wrapped__(scenario, oracle_n, seed)
            assert (got.values, got.mc_se) == _unblocked_oracle(scenario, oracle_n, seed)


def test_oracle_memory_is_one_block_whatever_oracle_n():
    # one block's buffers, at three chunks as at one. Holding a chunk's
    # covariates (23 MiB) and one block traced 32, 28 and 27 MiB at m = 2, 10
    # and 60
    for scenario in (two_center_scenario(), Scenario.strong(), sixty_center_scenario()):
        peaks = []
        for oracle_n in (1_000_000, 3_000_000):
            tracemalloc.start()
            try:
                true_center_ates.__wrapped__(scenario, oracle_n, 0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 4 * 2 ** 20, (scenario.m, peaks)
        assert abs(peaks[1] - peaks[0]) <= 2 ** 20, (scenario.m, peaks)


@pytest.mark.parametrize("scenario", [two_center_scenario(), Scenario.strong(),
                                      sixty_center_scenario()], ids=["m2", "m10", "m60"])
def test_oracle_chunk_leaves_the_generator_past_its_normals_and_uniforms(scenario):
    # the chunk's normals are drawn twice, by the generator and by a copy of
    # it; the generator itself must end where the stream's layout says
    block = simulation_module._ORACLE_BLOCK_VALUES // max(scenario.m, 4)
    for size in (1, block - 1, block, 2 * block + 5):
        rng, expected = np.random.default_rng(size), np.random.default_rng(size)
        simulation_module._oracle_chunk_sums(scenario, rng, size)
        expected.standard_normal((size, 3))
        expected.random(size)
        assert rng.bit_generator.state == expected.bit_generator.state, size


@pytest.mark.parametrize("oracle_n, seed", [(20000.7, 0), (20000.0, 0), (20_000, 1.0),
                                            ("20000", 0)])
def test_oracle_arguments_must_be_integers(oracle_n, seed):
    with pytest.raises(ParameterError, match="integers"):
        true_center_ates(two_center_scenario(), oracle_n, seed)


@pytest.mark.parametrize("first, then", [((20_000, 1), (20_000, True)),
                                         ((20_000, 0), (20_000.0, 0)),
                                         ((20_000, 0), (20_000, 0.0))],
                         ids=["seed-True", "oracle_n-float", "seed-float"])
def test_a_cached_oracle_call_does_not_answer_one_with_non_integers(first, then):
    # True == 1 and 20000.0 == 20000 hash alike: an untyped cache answered the
    # second call with the first call's report
    scenario = two_center_scenario()
    true_center_ates(scenario, *first)
    with pytest.raises(ParameterError, match="integers"):
        true_center_ates(scenario, *then)


@pytest.mark.parametrize("kw, named", [
    ({"oracle_n": 20000.5}, "oracle_n"), ({"oracle_seed": 1.0}, "oracle_seed"),
    ({"master_seed": 2.0}, "seed"), ({"replicates": 6.5}, "replicates"),
    ({"workers": 1.5}, "workers"),
], ids=["oracle_n", "oracle_seed", "seed", "replicates", "workers"])
def test_run_study_integer_arguments(kw, named):
    with pytest.raises(ParameterError, match=f"{named}.* must be (an integer|integers)"):
        small_study(**kw)


def test_quadrature_node_count_converged():
    sc = Scenario.strong()
    a = np.array(true_center_ates_quadrature(sc, nodes=40).values)
    b = np.array(true_center_ates_quadrature(sc, nodes=60).values)
    np.testing.assert_allclose(a, b, atol=1e-10)


def test_monte_carlo_oracle_agrees_with_quadrature_baseline():
    sc = Scenario.baseline()
    mc = true_center_ates(sc, oracle_n=10_000_000, seed=2)
    quad = true_center_ates_quadrature(sc)
    diff = np.abs(np.array(mc.values) - np.array(quad.values))
    assert diff.max() < 0.05


def test_monte_carlo_oracle_agrees_with_quadrature_strong():
    sc = Scenario.strong()
    mc = true_center_ates(sc, oracle_n=10_000_000, seed=2)
    quad = true_center_ates_quadrature(sc)
    diff = np.abs(np.array(mc.values) - np.array(quad.values))
    assert np.all(diff < 3.5 * np.array(mc.mc_se))


# ---------------------------------------------------------------------------
# nuisance defaults
# ---------------------------------------------------------------------------


def test_default_nuisance_configs_shape():
    cfgs = default_nuisance_configs(("x1", "x2", "x3"))
    assert set(cfgs) == {"phi", "psi", "chi"}
    assert "C" in cfgs["phi"].outcome_spec.terms
    assert "C" not in cfgs["psi"].outcome_spec.terms
    assert cfgs["psi"].membership_spec is not None
    known = default_nuisance_configs(("x1",), known_arm_prob=0.5)
    assert isinstance(known["chi"].treatment_spec, KnownProbabilities)


# ---------------------------------------------------------------------------
# study harness
# ---------------------------------------------------------------------------


def small_study(**kw):
    kw.setdefault("replicates", 6)
    kw.setdefault("estimators", ("tau", "phi"))
    kw.setdefault("master_seed", 3)
    return run_study(two_center_scenario(n=400), **kw)


def test_run_study_report_structure():
    rep = small_study()
    assert rep.replicates == 6
    assert rep.arms == (1, 0)
    assert rep.failures == 0
    cell = rep.cell(1, "tau")
    assert cell.center == 1 and cell.estimator == "tau"
    assert np.isfinite(cell.bias) and np.isfinite(cell.mse)
    assert 0.0 <= cell.coverage <= 1.0
    header, rows = rep.metric_table("bias")
    assert header == ["center", "tau", "phi"]
    assert len(rows) == 2 and len(rows[0]) == 3
    assert rep.cell(2, "phi").avg_n_c > 0
    with pytest.raises(KeyError):
        rep.cell(1, "psi")  # not requested
    d = rep.to_dict()
    assert d["replicates"] == 6 and len(d["cells"]) == 4


def test_run_study_mse_identity():
    # mse = bias^2 + (R-1)/R * sd^2 holds exactly for sample moments
    rep = small_study(replicates=8)
    for c in (1, 2):
        for est in ("tau", "phi"):
            cell = rep.cell(c, est)
            recon = cell.bias**2 + (7 / 8) * cell.empirical_sd**2
            np.testing.assert_allclose(cell.mse, recon, rtol=1e-10)


def test_run_study_deterministic_and_parallel_identical():
    a = small_study()
    b = small_study()
    c = small_study(workers=2)
    for cc in (1, 2):
        for est in ("tau", "phi"):
            assert a.cell(cc, est).bias == b.cell(cc, est).bias
            assert a.cell(cc, est).bias == c.cell(cc, est).bias
            assert a.cell(cc, est).mse == c.cell(cc, est).mse


def test_run_study_single_replicate_has_no_sd():
    rep = small_study(replicates=1, estimators=("tau",))
    cell = rep.cell(1, "tau")
    assert cell.empirical_sd is None
    assert cell.coverage in (0.0, 1.0)


def test_run_study_reversed_arms_negates():
    a = small_study(estimators=("tau",))
    b = small_study(estimators=("tau",), arms=(0, 1))
    for c in (1, 2):
        assert b.cell(c, "tau").bias == pytest.approx(-a.cell(c, "tau").bias, abs=1e-12)
        assert b.cell(c, "tau").mse == pytest.approx(a.cell(c, "tau").mse, abs=1e-12)


def test_run_study_rejects_bad_arms_for_comparators():
    with pytest.raises(ParameterError):
        small_study(estimators=("tau", "pooled"), arms=(1, 1))


def test_run_study_rejects_repeated_estimators():
    with pytest.raises(ParameterError, match="distinct"):
        small_study(estimators=("tau", "tau"))


@pytest.mark.parametrize("arms, message", [
    ((1, 1), "a contrast needs two different arms, got 1 twice"),
    ((1,), "two different integers"),
    ((1, 0, 2), "two different integers"),
    ((1.5, 0), "two different integers"),
    (("a", 0), "two different integers"),
    ((True, False), "two different integers"),
], ids=["equal", "one", "three", "float", "string", "bool"])
@pytest.mark.parametrize("function", ["estimate_effects", "run_study"])
def test_arms_must_be_two_different_integers(monkeypatch, arms, message, function):
    # checked once, at the request: no replicate is drawn and nothing is fitted
    def no_draw(scenario, seed):
        raise AssertionError("generate_dataset called")

    sc = two_center_scenario(n=200)
    data = generate_dataset(sc, seed=0)
    monkeypatch.setattr(simulation_module, "generate_dataset", no_draw)
    with pytest.raises(ParameterError, match=message):
        if function == "run_study":
            run_study(sc, replicates=3, estimators=("tau",), arms=arms,
                      oracle=true_center_ates_quadrature(sc), workers=1)
        else:
            estimate_effects(data, ("tau",), arms, {})


@pytest.mark.parametrize("scenario, estimators, arms, error, message", [
    (two_center_scenario(n=200), ("tau", "phi", "psi"), (2, 1), ParameterError,
     r"arms 0 and 1, got arms \(2, 1\)"),
    (Scenario(m=1, membership_coeffs=()), ("chi",), (1, 0), NoDonorError,
     "at least two centers"),
], ids=["arms-2-1", "chi-one-center"])
def test_run_study_rejects_what_no_simulated_trial_can_serve(monkeypatch, scenario, estimators,
                                                             arms, error, message):
    # generate_dataset codes arms 0 and 1: refused before the oracle or any replicate
    calls = []
    for name in ("generate_dataset", "true_center_ates"):
        monkeypatch.setattr(simulation_module, name, lambda *a, _name=name, **k: calls.append(_name))
    with pytest.raises(error, match=message):
        run_study(scenario, replicates=200, estimators=estimators, arms=arms, workers=1)
    assert calls == []


@pytest.mark.parametrize("workers", [0, -1])
def test_run_study_rejects_nonpositive_workers(workers):
    # rejected before the oracle runs or any process starts
    with pytest.raises(ParameterError, match="workers"):
        small_study(workers=workers)


def test_run_study_surfaces_failures():
    # n = 12 with two centers: empty (center, arm) cells are frequent, so the
    # failure share blows through the tolerance
    sc = two_center_scenario(n=12)
    with pytest.raises(StudyError):
        run_study(sc, replicates=25, estimators=("tau",), master_seed=1)


def test_run_study_drops_failures_within_the_limit(monkeypatch):
    # one failed replicate in 50 is within the 2% limit: the study counts it
    # and every cell aggregates only the 49 kept replicates
    sc = two_center_scenario(n=200)
    estimators, failing = ("tau", "phi"), (5, 17)
    draw = simulation_module.generate_dataset

    def draw_or_fail(scenario, seed):
        if seed == failing:
            raise InsufficientDataError("planted failure")
        return draw(scenario, seed=seed)

    monkeypatch.setattr(simulation_module, "generate_dataset", draw_or_fail)
    rep = run_study(sc, replicates=50, estimators=estimators, master_seed=5,
                    oracle=true_center_ates_quadrature(sc), workers=1)
    assert rep.failures == 1
    configs = default_nuisance_configs(("x1", "x2", "x3"), known_arm_prob=sc.arm_prob)
    kept = [simulation_module._replicate_records(draw(sc, seed=(5, r)), estimators, (1, 0),
                                                 configs, 0.05)
            for r in range(50) if (5, r) != failing]
    for (c, estimator), cell in rep.cells.items():
        values = np.array([records[c, estimator][0] for records, _ in kept])
        assert cell.bias == float(values.mean() - cell.true_value)
        assert cell.avg_n_c == pytest.approx(np.mean([sizes[c - 1] for _, sizes in kept]))


def test_run_study_oracle_override():
    fixed = true_center_ates_quadrature(two_center_scenario(n=400))
    rep = small_study(oracle=fixed)
    assert rep.oracle.method == "quadrature"
    assert rep.cell(1, "tau").true_value == fixed.values[0]


@pytest.mark.parametrize("values", [(1.0,), (1.0, float("nan"))], ids=["short", "nan"])
def test_run_study_rejects_bad_supplied_oracle(monkeypatch, values):
    # rejected before any replicate is submitted
    drawn = []
    monkeypatch.setattr(simulation_module, "generate_dataset", lambda *a, **k: drawn.append(a))
    bad = OracleReport(values=values, mc_se=(0.0,) * len(values), draws=1, seed=0,
                       method="quadrature")
    with pytest.raises(ParameterError, match="oracle"):
        small_study(oracle=bad, workers=1)
    assert drawn == []


@pytest.mark.parametrize("workers", [1, 2, None])
def test_run_study_oracle_failure_cancels_queued_replicates(workers):
    # the oracle runs after every replicate is queued; its failure must cancel
    # the queue, not wait for it, and leave no executor thread or process behind
    sc = two_center_scenario(n=1000)
    estimators = ("tau", "phi", "psi")
    fixed = true_center_ates_quadrature(sc)
    start = time.perf_counter()
    run_study(sc, replicates=8, estimators=estimators, oracle=fixed, workers=1)
    serial = (time.perf_counter() - start) / 8 * 1000
    threads = threading.active_count()
    start = time.perf_counter()
    # one oracle draw leaves a center without draws
    with pytest.raises(InsufficientDataError, match="no oracle draws"):
        run_study(sc, replicates=1000, estimators=estimators, oracle_n=1, workers=workers)
    assert time.perf_counter() - start < 0.25 * serial
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_run_study_identical_across_execution_modes():
    sc = two_center_scenario(n=400)
    kw = dict(replicates=8, estimators=("tau", "phi", "psi", "chi", "pooled"),
              master_seed=5, oracle_n=200_000, oracle_seed=4)
    serial = run_study(sc, workers=1, **kw)
    parallel = run_study(sc, workers=2, **kw)
    supplied = run_study(sc, oracle=true_center_ates(sc, 200_000, 4), **kw)
    default = run_study(sc, **kw)
    assert multiprocessing.active_children() == []
    assert serial.failures == parallel.failures == supplied.failures == default.failures == 0
    assert serial.cells == parallel.cells == supplied.cells == default.cells
    assert serial.oracle == parallel.oracle == supplied.oracle == default.oracle


@pytest.mark.parametrize("one_thread, start, affinity, cpu_max, expected", [
    (True, "fork", True, None, [1, 2, 2]),
    (True, "fork", False, None, [1, 2, 2]),
    (False, "fork", True, None, [1, 1, 1]),
    (True, "spawn", True, None, [1, 1, 1]),
    (True, "forkserver", True, None, [1, 1, 1]),
    (True, "fork", True, "max 100000", [1, 2, 2]),
    (True, "fork", True, "50000 100000", [1, 1, 1]),
    (True, "fork", True, "150000 100000", [1, 2, 2]),
    (True, "fork", "eight", "150000 100000", [1, 2, 2]),
], ids=["one-thread", "cpu-count", "threaded-blas", "spawn", "forkserver",
        "no-quota", "half-cpu-quota", "quota-rounds-up", "quota-below-affinity"])
def test_default_workers_one_per_core_only_at_one_blas_thread_under_fork(
        monkeypatch, tmp_path, one_thread, start, affinity, cpu_max, expected):
    # two usable cores unless "eight"; without sched_getaffinity, os.cpu_count
    # stands in; a cgroup v2 quota of q/p CPUs caps the count at ceil(q/p)
    monkeypatch.setattr(simulation_module, "_ONE_BLAS_THREAD", one_thread)
    monkeypatch.setattr(multiprocessing, "get_start_method", lambda allow_none=False: start)
    if affinity:
        cores = set(range(8)) if affinity == "eight" else {0, 5}
        monkeypatch.setattr(simulation_module.os, "sched_getaffinity", lambda pid: cores,
                            raising=False)
    else:
        monkeypatch.delattr(simulation_module.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(simulation_module.os, "cpu_count", lambda: 2)
    cpu_max_path = tmp_path / "cpu.max"
    if cpu_max is not None:
        cpu_max_path.write_text(cpu_max + "\n")
    monkeypatch.setattr(simulation_module, "_CGROUP_CPU_MAX", str(cpu_max_path))
    assert [simulation_module._default_workers(r) for r in (1, 2, 100)] == expected


def _row_major_centers(scenario, seed):
    """Centers drawn as generate_dataset draws them, by a row-major inverse CDF."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((scenario.n, 3))
    u = rng.random(scenario.n)
    design = np.column_stack([np.ones(scenario.n), X])
    probs = reference_softmax(design @ scenario.effective_membership_coeffs().T)
    ids = 1 + (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    return np.minimum(ids, scenario.m)


def test_center_draws_match_row_major_reference():
    sc = Scenario.strong()
    for r in range(100):
        np.testing.assert_array_equal(
            generate_dataset(sc, seed=(1003, r)).center, _row_major_centers(sc, (1003, r)))


@pytest.mark.parametrize("m", [255, 256, 257, 300])
def test_center_draws_count_past_a_byte_of_centers(m):
    # _draw_centers counts in the narrowest unsigned type that holds m; the
    # first m − 1 cumulative sums of a row-major cumsum are the same additions
    rng = np.random.default_rng(m)
    probs = rng.random((m, 5000))
    probs /= probs.sum(axis=0)
    u = rng.random(5000)
    expected = 1 + (u[:, None] > np.cumsum(probs.T, axis=1)[:, :-1]).sum(axis=1)
    got = simulation_module._draw_centers(probs, u)
    assert got.dtype == np.int64 and expected.max() >= 250
    np.testing.assert_array_equal(got, expected)


def test_quadrature_oracle_matches_row_major_reference():
    # the oracle's category-major softmax normalizes each row by a sum taken
    # in another order, which may move its values in the last bits only
    sc = Scenario.strong()
    x, w = np.polynomial.hermite_e.hermegauss(40)
    w = w / w.sum()
    grid = [g.ravel() for g in np.meshgrid(x, x, x, indexing="ij")]
    weights = np.prod([g.ravel() for g in np.meshgrid(w, w, w, indexing="ij")], axis=0)
    design = np.column_stack([np.ones(len(weights))] + grid)
    probs = reference_softmax(design @ sc.effective_membership_coeffs().T)
    _, _, _, _, barm, binter = sc.effective_outcome_coeffs()
    expected = barm + binter * (((weights * grid[0]) @ probs) / (weights @ probs))
    got = np.array(true_center_ates_quadrature(sc).values)
    np.testing.assert_allclose(got, expected, rtol=1e-15, atol=0.0)
