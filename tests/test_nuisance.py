"""Design construction and regression fitter tests.

Fitted coefficients are checked against values worked out by hand (closed-form
group means / log-odds) and against estimating-equation residuals, never
against the fitter's own output.
"""
import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.special

import centereffects.nuisance as nuisance_module
from centereffects import (
    AliasedColumnsWarning,
    ConvergenceWarning,
    DegenerateFitError,
    DesignSpec,
    EmptyFitError,
    FittedNuisances,
    Scenario,
    SeparationWarning,
    ShapeError,
    SpecError,
    build_design,
    default_nuisance_configs,
    fit_logistic,
    fit_multinomial,
    fit_ols,
    from_arrays,
    generate_dataset,
    predict,
    reference_softmax,
)
from centereffects.inference import default_assumption_specs, estimate_effects
from centereffects.nuisance import (
    _INFORMATION_BLOCK_VALUES,
    CellFactors,
    _design_rows,
    _pivoted_qr,
    factor_cells,
    fit_ols_cells,
)


# ---------------------------------------------------------------------------
# design specs
# ---------------------------------------------------------------------------


def test_terms_normalise_to_strings():
    spec = DesignSpec([" x1 : A ", "C"])
    assert spec.terms == ("x1:A", "C")
    assert spec == DesignSpec(["x1:A", "C"])
    assert hash(spec) == hash(DesignSpec(["x1:A", "C"]))


def test_intercept_in_interaction_rejected():
    with pytest.raises(SpecError):
        DesignSpec(["1:A"])


def test_double_intercept_rejected():
    with pytest.raises(SpecError):
        DesignSpec(("1", "x1", "1"))


def test_spec_roundtrip():
    spec = DesignSpec(("1", "x1", "C", "A", "x1:A"))
    assert spec.terms == ("1", "x1", "C", "A", "x1:A")
    assert DesignSpec(spec.terms).terms == spec.terms


def three_center_data():
    return from_arrays(
        covariates=[[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
        center=[1, 1, 2, 2, 3, 3],
        arm=[0, 1, 0, 1, 0, 1],
        outcome=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
    )


def test_build_design_columns_by_hand():
    d = three_center_data()
    X, names = build_design(DesignSpec(("1", "x1", "C", "A", "x1:A")), d)
    assert names == ["1", "x1", "C2", "C3", "A", "x1:A"]
    np.testing.assert_array_equal(X[:, 0], np.ones(6))
    np.testing.assert_array_equal(X[:, 1], [1, 2, 3, 4, 5, 6])
    np.testing.assert_array_equal(X[:, 2], [0, 0, 1, 1, 0, 0])  # C2
    np.testing.assert_array_equal(X[:, 3], [0, 0, 0, 0, 1, 1])  # C3
    np.testing.assert_array_equal(X[:, 4], [0, 1, 0, 1, 0, 1])  # A
    np.testing.assert_array_equal(X[:, 5], [0, 2, 0, 4, 0, 6])  # x1:A


def test_build_design_center_interaction_names():
    d = three_center_data()
    X, names = build_design(DesignSpec(("x1:C",)), d)
    assert names == ["x1:C2", "x1:C3"]
    np.testing.assert_array_equal(X[:, 0], [0, 0, 3, 4, 0, 0])
    np.testing.assert_array_equal(X[:, 1], [0, 0, 0, 0, 5, 6])


def test_build_design_single_center_has_no_center_columns():
    d = from_arrays([[1.0], [2.0]], [1, 1], [0, 1], [0.0, 1.0])
    X, names = build_design(DesignSpec(("1", "C")), d)
    assert names == ["1"]
    assert X.shape == (2, 1)


def _reference_columns(term, d):
    """One design term column by column, as products of atom columns left to right."""
    atoms = {"C": [(f"C{c}", (d.center == c).astype(float)) for c in range(2, d.m + 1)],
             "A": [("A", d.arm.astype(float))]}
    cols = [("", None)]
    for part in term.split(":"):
        options = atoms.get(part) or [(part, d.covariate(part))]
        cols = [(f"{a}:{b}" if a else b, x if v is None else v * x)
                for a, v in cols for b, x in options]
    return cols


def test_build_design_matches_per_column_reference():
    rng = np.random.default_rng(8)
    n, m = 50, 6
    d = from_arrays(rng.standard_normal((n, 2)), rng.permutation(np.arange(n) % m + 1),
                    rng.integers(0, 2, n), rng.standard_normal(n))
    terms = ("C", "x1:C", "C:x2", "A:C", "x1:A:C", "x2:C:A")
    X, names = build_design(DesignSpec(terms), d)
    reference = [col for term in terms for col in _reference_columns(term, d)]
    assert names == [name for name, _ in reference]
    assert X.tobytes() == np.column_stack([col for _, col in reference]).tobytes()


def test_design_rows_are_the_whole_designs_rows_bit_for_bit():
    # C is C2..Cm of the whole data on any rows, even rows of one center
    rng = np.random.default_rng(9)
    n, m = 60, 5
    d = from_arrays(rng.standard_normal((n, 2)), rng.integers(1, m + 1, n),
                    rng.integers(0, 2, n), rng.standard_normal(n))
    spec = DesignSpec(("1", "x2", "C", "A", "x1:C", "A:C", "x1:A:C", "x2:C:A"))
    X, names = build_design(spec, d)
    for rows in (np.flatnonzero(d.center == 3), rng.permutation(n)[:7], np.arange(0), slice(0)):
        part, part_names = _design_rows(spec, d, rows)
        assert part_names == names
        assert part.shape == X[rows].shape
        assert part.tobytes() == X[rows].tobytes()


def test_arm_term_requires_binary_arms():
    d = from_arrays([[1.0], [2.0]], [1, 1], [0, 2], [0.0, 1.0])
    with pytest.raises(SpecError):
        build_design(DesignSpec(("A",)), d)


def test_unknown_covariate_in_spec():
    d = three_center_data()
    with pytest.raises(SpecError):
        build_design(DesignSpec(("zzz",)), d)


# ---------------------------------------------------------------------------
# least squares
# ---------------------------------------------------------------------------


def test_ols_hand_example():
    # points (0,0), (1,1), (2,1): slope 1/2, intercept 1/6 by hand;
    # residuals (-1/6, 1/3, -1/6) give rss 1/6 on 1 residual df
    X = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    y = np.array([0.0, 1.0, 1.0])
    fit = fit_ols(X, y, column_names=("1", "x"))
    np.testing.assert_allclose(fit.coefficients, [1 / 6, 1 / 2], atol=1e-12)
    np.testing.assert_allclose(fit.rss, 1 / 6, atol=1e-12)
    assert fit.df_residual == 1
    assert fit.dropped_columns == ()
    # (X'X)^-1 diag = (5/6, 1/2)
    np.testing.assert_allclose(fit.unscaled_variance, [5 / 6, 1 / 2], atol=1e-12)


def test_ols_intercept_only_is_mean():
    y = np.array([2.0, 4.0, 9.0])
    fit = fit_ols(np.ones((3, 1)), y)
    np.testing.assert_allclose(fit.coefficients, [5.0], atol=1e-12)


def test_ols_zero_width_design():
    y = np.array([1.0, 2.0])
    fit = fit_ols(np.zeros((2, 0)), y)
    assert fit.coefficients.shape == (0,)
    np.testing.assert_allclose(fit.rss, 5.0)
    assert fit.df_residual == 2


def test_ols_aliased_column_dropped():
    rng = np.random.default_rng(3)
    x = rng.standard_normal(20)
    X = np.column_stack([np.ones(20), x, 2 * x])  # third column aliased
    y = rng.standard_normal(20)
    with pytest.warns(AliasedColumnsWarning):
        fit = fit_ols(X, y, column_names=("1", "x", "x2"))
    assert fit.coefficients.shape == (3,)
    assert len(fit.dropped_columns) == 1
    dropped_idx = fit.dropped_columns[0]  # index into the design columns
    assert dropped_idx in (1, 2)  # one of the two aliased copies of x
    assert fit.coefficients[dropped_idx] == 0.0
    # predictions still work at full width and reproduce the projection
    keep = [j for j in range(3) if j != dropped_idx]
    direct = fit_ols(X[:, keep], y)
    np.testing.assert_allclose(predict(fit, X), X[:, keep] @ direct.coefficients, atol=1e-10)


@pytest.mark.parametrize("fit", [fit_ols, fit_logistic, fit_multinomial])
def test_aliased_column_warning_points_at_the_fits_caller(fit):
    # like the separation and convergence warnings, it names the line that
    # called the fit, not a line of nuisance.py
    X, cat = _multinomial_sample(np.random.default_rng(8), 200, 2, 2)
    X = np.column_stack([X, 2.0 * X[:, 1]])
    with pytest.warns(AliasedColumnsWarning) as caught:
        fit(X, cat - 1.0 if fit is fit_logistic else cat)
    assert [w.filename for w in caught] == [__file__]


def test_ols_matches_lstsq_and_orthogonal_residuals():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(5, 60))
        p = int(rng.integers(1, min(n, 6)))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        fit = fit_ols(X, y)
        ref, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
        np.testing.assert_allclose(fit.coefficients, ref, atol=1e-8)
        resid = y - X @ fit.coefficients
        np.testing.assert_allclose(X.T @ resid, np.zeros(p), atol=1e-8)
        np.testing.assert_allclose(fit.rss, resid @ resid, rtol=1e-10)
        assert fit.df_residual == n - p


def _scipy_ols(X, y):
    """fit_ols's solve through scipy.linalg: (coefficients, unscaled variance, rank, pivots).

    Qᵀy comes from ``qr_multiply``, which applies the reflectors without forming Q."""
    _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
    qty = scipy.linalg.qr_multiply(X, y, mode="right", pivoting=True)[0]
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > diag[0] * max(X.shape) * np.finfo(float).eps)) if diag[0] else 0
    coef, unscaled = np.zeros(X.shape[1]), np.full(X.shape[1], np.nan)
    if rank:
        coef[piv[:rank]] = scipy.linalg.solve_triangular(R[:rank, :rank], qty[:rank])
        rinv = scipy.linalg.solve_triangular(R[:rank, :rank], np.eye(rank), lower=False)
        unscaled[piv[:rank]] = np.sum(rinv * rinv, axis=1)
    return coef, unscaled, rank, piv


def test_fit_ols_is_bitwise_scipy_linalg_solve():
    rng = np.random.default_rng(41)
    for trial in range(60):
        n = int(rng.choice([2, 5, 40, 700]))
        X = rng.standard_normal((n, int(rng.integers(1, 12)))) * 10.0 ** rng.integers(-3, 4)
        if trial % 3 == 0 and X.shape[1] > 2:
            X[:, -1] = 2.5 * X[:, 0]  # aliased
        if trial % 5 == 0:
            X = np.asfortranarray(X)
        y = rng.standard_normal(n)
        coef, unscaled, rank, piv = _scipy_ols(X, y)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AliasedColumnsWarning)
            fit = fit_ols(X, y)
        assert fit.coefficients.tobytes() == coef.tobytes()
        assert fit.unscaled_variance.tobytes() == unscaled.tobytes()
        assert fit.dropped_columns == tuple(sorted(piv[rank:].tolist()))
        assert fit.rss == float((y - X @ coef) @ (y - X @ coef))


def test_fit_ols_solves_for_its_variance_only_when_it_is_read(monkeypatch):
    # the coefficients take one triangular solve; (X'X)^-1's diagonal, which
    # only the comparators' SE reads, takes a matrix solve of its own
    calls = []
    solve = nuisance_module._solve_upper
    monkeypatch.setattr(nuisance_module, "_solve_upper",
                        lambda R, B: calls.append(B.ndim) or solve(R, B))
    rng = np.random.default_rng(44)
    X = rng.standard_normal((50, 4))
    fit = fit_ols(X, rng.standard_normal(50))
    assert calls == [1]
    unscaled = fit.unscaled_variance
    assert calls == [1, 2]
    np.testing.assert_allclose(unscaled, np.diag(np.linalg.inv(X.T @ X)), rtol=1e-12)


def test_pivoted_qr_applies_q_transpose_only_on_request():
    rng = np.random.default_rng(43)
    for shape in [(700, 4), (40, 11), (5, 9), (1, 3)]:
        X = rng.standard_normal(shape)
        X[:, -1] = X[:, 0]  # aliased: rank below width
        y = rng.standard_normal(shape[0])
        _, R, piv = scipy.linalg.qr(X, mode="economic", pivoting=True)
        qty = scipy.linalg.qr_multiply(X, y, mode="right", pivoting=True)[0]
        no_q = _pivoted_qr(X)
        with_q = _pivoted_qr(X, b=y)
        assert no_q[0] is None
        assert with_q[0].tobytes() == qty[:min(shape)].tobytes()
        for out in (no_q, with_q):
            assert out[1].tobytes() == R.tobytes()
            assert out[2].tolist() == piv.tolist()
        assert no_q[3] == with_q[3] == min(shape[0], shape[1] - 1)


@pytest.mark.parametrize("order", ["C", "F"])
def test_pivoted_qr_leaves_the_callers_array_unchanged(order):
    # the factorization and Qᵀb overwrite copies of their own, and R, the
    # pivots and Qᵀb stay scipy.linalg's bit for bit
    rng = np.random.default_rng(44)
    for shape in [(300, 6), (4, 7)]:
        X = np.asarray(rng.standard_normal(shape), order=order)
        X[:, -1] = X[:, 0]
        b = rng.standard_normal(shape[0])
        before, b_before = X.copy(order=order), b.copy()
        qtb, R, piv, _ = _pivoted_qr(X, b=b)
        assert X.tobytes(order="A") == before.tobytes(order="A")
        assert b.tobytes() == b_before.tobytes()
        _, R_ref, piv_ref = scipy.linalg.qr(X, mode="economic", pivoting=True)
        assert R.tobytes() == R_ref.tobytes()
        assert piv.tolist() == piv_ref.tolist()
        qtb_ref = scipy.linalg.qr_multiply(X, b, mode="right", pivoting=True)[0]
        assert qtb.tobytes() == qtb_ref[:min(shape)].tobytes()


def _ancova_design(rng):
    """A random ANCOVA extended design, with single-arm centers, one-row cells
    and covariates constant within a center."""
    m, k = int(rng.integers(2, 9)), int(rng.integers(1, 4))
    sizes = rng.integers(1, 25, m)
    center = np.repeat(np.arange(1, m + 1), sizes)
    n = len(center)
    arm = rng.integers(0, 2, n)
    arm[center == rng.integers(1, m + 1)] = rng.integers(0, 2)  # a single-arm center
    x = rng.standard_normal((n, k))
    for c in rng.integers(1, m + 1, 2):  # constant within a center
        x[center == c, rng.integers(0, k)] = rng.choice([0.0, 1.0, rng.standard_normal()])
    if arm.min() == arm.max():
        arm[0] = 1 - arm[0]
    d = from_arrays(x, center, arm, rng.standard_normal(n) + x @ rng.standard_normal(k))
    base, extended = default_assumption_specs(d)
    return d, base, extended


def test_fit_ols_cells_matches_fit_ols_on_random_ancova_designs():
    rng = np.random.default_rng(2024)
    worst_rss = worst_fitted = 0.0
    for _ in range(300):
        d, base, extended = _ancova_design(rng)
        for spec in (base, extended):
            X, _ = build_design(spec, d)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AliasedColumnsWarning)
                plain = fit_ols(X, d.outcome)
                cells = fit_ols_cells(factor_cells(X.__getitem__, d.outcome, d.center))
            assert cells.df_residual == plain.df_residual
            if plain.df_residual > 0:
                worst_rss = max(worst_rss, abs(cells.rss - plain.rss) / plain.rss)
            fitted = X @ plain.coefficients
            worst_fitted = max(worst_fitted, np.linalg.norm(X @ cells.coefficients - fitted)
                               / np.linalg.norm(fitted))
    assert worst_rss <= 1e-10
    assert worst_fitted <= 1e-10


def _reference_cell_factors(X, y, cells):
    """CellFactors of a whole design, one scipy.linalg.qr (with its own
    workspace query) per cell."""
    labels, rows = np.unique(cells, return_counts=True)
    R, qty, rss = [], [], np.zeros(len(labels))
    for j, label in enumerate(labels):
        Xj, yj = X[cells == label], y[cells == label]
        nz = np.flatnonzero(Xj.any(axis=0))
        k = len(nz)
        F = scipy.linalg.qr(np.asfortranarray(np.column_stack([Xj[:, nz], yj])), mode="r")[0]
        r = min(len(yj), k)
        Rj = np.zeros((r, X.shape[1]))
        Rj[:, nz] = F[:r, :k]
        R.append(Rj)
        qty.append(F[:r, k])
        if len(yj) > k:
            rss[j] = F[k, k] ** 2
    return CellFactors(R=np.concatenate(R), qty=np.concatenate(qty),
                       cell=np.repeat(labels, [len(b) for b in qty]), labels=labels, rss=rss,
                       rows=rows)


def test_factor_cells_built_cell_by_cell_is_bitwise_the_whole_design_reference():
    # the design's rows sliced from the matrix or built per cell: every field
    # is bitwise the per-cell scipy.linalg.qr's
    rng = np.random.default_rng(2025)
    for _ in range(300):
        d, base, extended = _ancova_design(rng)
        nested = (DesignSpec(("1", "x1", "A", "C")),
                  DesignSpec(("1", "x1", "A", "C", "x1:C", "A:C", "x1:A:C")))
        for spec in (base, extended, *nested):
            X, _ = build_design(spec, d)
            reference = _reference_cell_factors(X, d.outcome, d.center)
            for design in (X.__getitem__, lambda rows, spec=spec: _design_rows(spec, d, rows)[0]):
                factors = factor_cells(design, d.outcome, d.center)
                for field in dataclasses.fields(CellFactors):
                    got, want = getattr(factors, field.name), getattr(reference, field.name)
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), field.name


def test_factor_cells_is_bitwise_the_reference_past_the_block_size():
    rng = np.random.default_rng(10)
    center = np.repeat([1, 2, 3, 4, 5], [6, 1, 6, 6, 2])
    X = rng.standard_normal((21, 3))
    X[center == 3, 2] = 0.0  # two nonzero columns in center 3
    factors = factor_cells(X.__getitem__, rng.standard_normal(21), center)
    assert factors.R.shape == (3 + 1 + 2 + 3 + 2, 3)
    # past dgeqrf's block size (32 columns) the workspace picks the blocked
    # algorithm, whose bits differ from the unblocked one's
    center = np.repeat([1, 2, 3], 120)
    X, y = rng.standard_normal((360, 70)), rng.standard_normal(360)
    factors = factor_cells(X.__getitem__, y, center)
    reference = _reference_cell_factors(X, y, center)
    assert factors.R.tobytes() == reference.R.tobytes()
    assert factors.qty.tobytes() == reference.qty.tobytes()
    assert factors.rss.tobytes() == reference.rss.tobytes()


def test_fit_ols_cells_leave_out_equals_fit_on_remaining_rows():
    rng = np.random.default_rng(6)
    center = np.repeat([1, 2, 3, 4], [7, 1, 5, 9])
    X = np.column_stack([np.ones(22), rng.standard_normal((22, 2))])
    y = rng.standard_normal(22)
    factors = factor_cells(X.__getitem__, y, center)
    assert factors.R.shape[0] <= 3 * 4
    for c in (None, 1, 2, 3, 4):
        rows = center != c
        plain = fit_ols(X[rows], y[rows])
        cells = fit_ols_cells(factors, leave_out=c)
        assert cells.df_residual == plain.df_residual == rows.sum() - 3
        np.testing.assert_allclose(cells.coefficients, plain.coefficients, rtol=1e-12)
        np.testing.assert_allclose(cells.rss, plain.rss, rtol=1e-12)
        np.testing.assert_allclose(cells.unscaled_variance, plain.unscaled_variance, rtol=1e-12)
    with pytest.raises(EmptyFitError):
        fit_ols_cells(factor_cells(X[:5].__getitem__, y[:5], center[:5]), leave_out=1)


def test_factor_cells_checks_each_built_cell():
    y, center = np.arange(4.0), [1, 1, 2, 2]
    with pytest.raises(ShapeError, match="^design must be 2-dimensional$"):
        factor_cells(lambda rows: np.ones(len(rows)), y, center)
    with pytest.raises(ShapeError, match=r"^y has shape \(2,\), expected \(1,\)$"):
        factor_cells(lambda rows: np.ones((1, 2)), y, center)
    with pytest.raises(EmptyFitError):
        factor_cells(lambda rows: np.ones((len(rows), 2)), np.zeros(0), [])


def test_fit_ols_cells_zero_width_design():
    y = np.array([1.0, 2.0, 3.0])
    fit = fit_ols_cells(factor_cells(np.zeros((3, 0)).__getitem__, y, [1, 2, 2]))
    np.testing.assert_allclose(fit.rss, 14.0, rtol=1e-15)
    assert (fit.coefficients.shape, fit.df_residual) == ((0,), 3)


def _many_covariate_data(rng, n, m, k):
    center = rng.integers(1, m + 1, n)
    x = rng.standard_normal((n, k))
    return from_arrays(x, center, rng.integers(0, 2, n), x @ rng.standard_normal(k)
                       + rng.standard_normal(n))


@pytest.mark.parametrize("source", ["strong", "m60"])
def test_chi_arm_factors_are_bitwise_the_reference_on_the_arms_rows(source):
    # _outcome_cells builds each center's rows from the memoised design:
    # every field is bitwise the per-cell reference on that arm's rows
    rng = np.random.default_rng(29)
    if source == "strong":
        datasets = [generate_dataset(Scenario.strong(), seed) for seed in (1, 2, 3)]
    else:
        datasets = [_many_covariate_data(rng, 3000, 60, 3) for _ in range(3)]
    for d in datasets:
        cfg = default_nuisance_configs(d.covariate_names)["chi"]
        nuis = FittedNuisances(d, cfg)
        X, _ = nuis._design("outcome", cfg.outcome_spec)
        for a in (0, 1):
            factors = nuis._outcome_cells(X, cfg.outcome_spec, a)
            rows = d.arm == a
            reference = _reference_cell_factors(X[rows], d.outcome[rows], d.center[rows])
            for field in dataclasses.fields(CellFactors):
                got, want = getattr(factors, field.name), getattr(reference, field.name)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes(), field.name


def test_chi_arm_factoring_holds_no_copy_of_the_arms_design():
    # with the design memoised, factoring an arm's centers builds one center's
    # rows at a time: it measured 0.73 (n_arm, p) arrays, 1.67 when the arm's
    # rows were copied out first
    d = _many_covariate_data(np.random.default_rng(30), 40_000, 10, 12)
    cfg = default_nuisance_configs(d.covariate_names)["chi"]
    nuis = FittedNuisances(d, cfg)
    X, _ = nuis._design("outcome", cfg.outcome_spec)
    assert X.shape[1] == 13
    nuis._outcome_cells(X, cfg.outcome_spec, 0)
    tracemalloc.start()
    try:
        nuis._outcome_cells(X, cfg.outcome_spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < np.sum(d.arm == 1) * X.shape[1] * 8


def test_ols_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        fit_ols(np.ones(3), np.ones(3))
    with pytest.raises(ShapeError):
        fit_ols(np.ones((3, 1)), np.ones(4))


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def test_logistic_intercept_only_log_odds():
    # 3 successes, 1 failure: beta = log 3
    y = np.array([1.0, 1.0, 1.0, 0.0])
    fit = fit_logistic(np.ones((4, 1)), y)
    assert fit.converged
    np.testing.assert_allclose(fit.coefficients, [np.log(3.0)], atol=1e-8)


def test_logistic_balanced_intercept_starts_converged():
    y = np.array([0.0, 1.0, 0.0, 1.0])
    fit = fit_logistic(np.ones((4, 1)), y)
    assert fit.converged
    assert fit.iterations == 0
    np.testing.assert_allclose(fit.coefficients, [0.0], atol=1e-12)


def test_logistic_two_group_log_odds():
    # group x=0 has success rate 1/3, group x=1 has 2/3: the saturated fit
    # reproduces the empirical log-odds, so beta = (-log 2, 2 log 2)
    X = np.column_stack([np.ones(6), [0, 0, 0, 1, 1, 1]])
    y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    fit = fit_logistic(X, y)
    np.testing.assert_allclose(fit.coefficients, [-np.log(2.0), 2 * np.log(2.0)], atol=1e-8)


def test_logistic_score_equation_zero():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(30, 120))
        X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
        eta = X @ np.array([0.2, 0.7, -0.4])
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        if y.min() == y.max():
            continue
        fit = fit_logistic(X, y)
        if not fit.converged:
            continue
        p = predict(fit, X)
        np.testing.assert_allclose(X.T @ (y - p), np.zeros(3), atol=1e-6)


def test_logistic_separation_flagged():
    x = np.array([-2.0, -1.0, 1.0, 2.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([np.ones(4), x])
    with pytest.warns(SeparationWarning):
        fit = fit_logistic(X, y)
    assert fit.separated
    assert not fit.converged
    # predictions are still usable probabilities
    p = predict(fit, X)
    assert np.all((p > 0) & (p < 1))


def test_logistic_single_class_rejected():
    with pytest.raises(DegenerateFitError):
        fit_logistic(np.ones((3, 1)), np.array([1.0, 1.0, 1.0]))


def test_logistic_rejects_nonbinary():
    with pytest.raises(ShapeError):
        fit_logistic(np.ones((3, 1)), np.array([0.0, 1.0, 2.0]))


def test_logistic_deterministic():
    rng = np.random.default_rng(5)
    X = np.column_stack([np.ones(50), rng.standard_normal(50)])
    y = (rng.random(50) < 0.5).astype(float)
    a = fit_logistic(X, y).coefficients
    b = fit_logistic(X, y).coefficients
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# multinomial regression
# ---------------------------------------------------------------------------


def test_multinomial_intercept_only_counts():
    # counts (10, 20, 10) against reference category 1:
    # intercepts log(20/10) = log 2 and log(10/10) = 0
    cat = np.repeat([1, 2, 3], [10, 20, 10])
    fit = fit_multinomial(np.ones((40, 1)), cat)
    assert fit.converged
    assert fit.m == 3
    np.testing.assert_allclose(fit.coefficients[:, 0], [np.log(2.0), 0.0], atol=1e-8)


def test_multinomial_two_categories_matches_logistic(monkeypatch):
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = 80
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        eta = X @ np.array([0.3, -0.8])
        y = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
        if y.min() == y.max():
            continue
        logit = fit_logistic(X, y)
        multi = fit_multinomial(X, (y + 1).astype(int))
        if not (logit.converged and multi.converged):
            continue
        # the looser multinomial score tolerance may stop one step earlier
        assert multi.iterations <= logit.iterations
        np.testing.assert_allclose(multi.coefficients[0], logit.coefficients, atol=1e-6)
        # at the logistic score tolerance both run the same iteration
        with monkeypatch.context() as patch:
            patch.setattr(nuisance_module, "_MULTINOMIAL_SCORE_TOL",
                          nuisance_module._LOGISTIC_SCORE_TOL)
            multi = fit_multinomial(X, (y + 1).astype(int))
        np.testing.assert_array_equal(multi.coefficients[0], logit.coefficients)
        assert multi.iterations == logit.iterations
        assert multi.log_likelihood == logit.log_likelihood


@pytest.mark.parametrize("m, n", [(2, 7), (2, 100_000), (10, 100_000), (60, 10_000)])
def test_intercept_only_fits_start_at_their_closed_form(m, n):
    # unbalanced counts in shuffled rows: the start log(n_c / n_1) is the MLE,
    # so no Newton step is taken
    rng = np.random.default_rng(m)
    counts = 1 + rng.multinomial(n - m, rng.dirichlet(np.full(m, 0.5)))
    cat = rng.permutation(np.repeat(np.arange(1, m + 1), counts))
    want = np.log(counts[1:] / counts[0])
    fits = [fit_multinomial(np.ones((n, 1)), cat)]
    if m == 2:
        fits.append(fit_logistic(np.ones((n, 1)), (cat == 2).astype(float)))
    for fit in fits:
        assert (fit.iterations, fit.converged, fit.separated) == (0, True, False)
        np.testing.assert_allclose(fit.coefficients.reshape(-1), want, rtol=0.0, atol=1e-12)


def test_warm_start_reaches_the_zero_start_fit():
    # doubling the intercept column leaves no all-ones column, so that fit
    # starts at zero; both starts reach the same MLE
    X, cat = _multinomial_sample(np.random.default_rng(47), 2000, 4, 3, scale=0.6)
    cold_X = X * [2.0, 1.0, 1.0]
    for fit_glm, response in ((fit_multinomial, cat), (fit_logistic, (cat > 2).astype(float))):
        warm, cold = fit_glm(X, response), fit_glm(cold_X, response)
        assert warm.converged and cold.converged
        np.testing.assert_allclose(warm.coefficients, cold.coefficients * [2.0, 1.0, 1.0],
                                   rtol=0.0, atol=1e-8)


def separated_membership_data():
    """Center 3 holds exactly the rows with x1 > 0.8; every effect is 1."""
    rng = np.random.default_rng(0)
    n = 600
    x = rng.standard_normal((n, 2))
    center = np.where(x[:, 0] > 0.8, 3, rng.integers(1, 3, size=n))
    arm = rng.integers(0, 2, size=n)
    y = x[:, 0] + x[:, 1] + arm + rng.standard_normal(n)
    return from_arrays(x, center, arm, y)


def test_multinomial_separation_flagged():
    d = separated_membership_data()
    X, names = build_design(DesignSpec(["1", "x1", "x2"]), d)
    with pytest.warns(SeparationWarning):
        fit = fit_multinomial(X, d.center, column_names=names)
    assert fit.separated
    assert not fit.converged
    # the warning reaches the caller of the estimators that fit the model
    configs = default_nuisance_configs(d.covariate_names)
    with pytest.warns(SeparationWarning):
        estimate_effects(d, ["chi"], (1, 0), configs)


def test_multinomial_score_equation_zero():
    rng = np.random.default_rng(29)
    n = 300
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    B = np.array([[0.3, -0.5, 0.2], [-0.2, 0.4, 0.6]])
    probs = reference_softmax(X @ B.T)
    u = rng.random(n)
    cat = 1 + (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    fit = fit_multinomial(X, cat)
    assert fit.converged
    P = predict(fit, X)
    for j in range(2, 4):
        score = X.T @ ((cat == j).astype(float) - P[:, j - 1])
        np.testing.assert_allclose(score, np.zeros(3), atol=1e-4)


def test_multinomial_missing_category_rejected():
    with pytest.raises(DegenerateFitError, match="2"):
        fit_multinomial(np.ones((4, 1)), np.array([1, 1, 3, 3]))


def test_multinomial_predict_rows_sum_to_one():
    rng = np.random.default_rng(17)
    n = 120
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    cat = rng.integers(1, 4, size=n)
    cat[:3] = [1, 2, 3]
    fit = fit_multinomial(X, cat)
    P = predict(fit, rng.standard_normal((50, 2)) + [1.0, 0.0])
    assert P.shape == (50, 3)
    np.testing.assert_allclose(P.sum(axis=1), np.ones(50), atol=1e-12)
    assert np.all(P > 0)


@pytest.mark.parametrize("labels, error, match", [
    ([1.5, 1, 2, 2, 1, 1], ShapeError, "integers only"),
    ([0, 1, 2, 2, 1, 0], DegenerateFitError, r"found \[0\]"),
    ([1, 2, 2, 1, -1, 1], DegenerateFitError, r"found \[-1\]"),
])
def test_multinomial_rejects_bad_category_labels(labels, error, match):
    with pytest.raises(error, match=match):
        fit_multinomial(np.ones((6, 1)), np.array(labels))


def _multinomial_sample(rng, n, m, k, scale=0.3):
    X = np.column_stack([np.ones(n), rng.standard_normal((n, k - 1))])
    probs = reference_softmax(X @ (scale * rng.standard_normal((m - 1, k))).T)
    cat = 1 + (rng.random(n)[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    assert set(cat.tolist()) == set(range(1, m + 1))
    return X, cat


def _reference_newton(X, cat, max_iter=200, score_tol=1e-6, ll_tol=1e-10):
    """Newton solve that builds the information matrix one (j, l) block at a time.

    Same start, stopping rules and step-halving as fit_multinomial; X must
    have full column rank. Returns (coefficients, iterations, converged,
    log-likelihood, number of step halvings).
    """
    n, k = X.shape
    q = int(cat.max()) - 1
    Y = (cat[:, None] == np.arange(2, q + 2)).astype(float)

    def loglik(B):  # the log-likelihood and the size of the two sums it is the difference of
        full = np.column_stack([np.zeros(n), X @ B.T])
        picked, log_norm = full[np.arange(n), cat - 1], scipy.special.logsumexp(full, axis=1)
        return float(picked.sum() - log_norm.sum()), float(np.abs(picked).sum() + log_norm.sum())

    B = np.zeros((q, k))
    ones = [j for j in range(k) if np.all(X[:, j] == 1.0)]
    if ones:  # the intercept-only MLE, log(n_c / n_1), with zero slopes
        counts = np.array([np.sum(cat == c) for c in range(1, q + 2)])
        B[:, ones[0]] = np.log(counts[1:] / counts[0])
    ll, size = loglik(B)
    total_halvings = 0
    for iterations in range(1, max_iter + 1):
        P = reference_softmax(X @ B.T)[:, 1:]
        score = ((Y - P).T @ X).ravel()
        if np.max(np.abs(score)) < score_tol:
            return B, iterations - 1, True, ll, total_halvings
        H = np.empty((q * k, q * k))
        for j in range(q):
            for l in range(q):
                w = P[:, j] * (float(j == l) - P[:, l])
                H[j * k:(j + 1) * k, l * k:(l + 1) * k] = (X * w[:, None]).T @ X
        step = np.linalg.solve(H, score)
        new_B = B + step.reshape(q, k)
        new_ll, new_size = loglik(new_B)
        floor = ll - n * np.finfo(float).eps * (1.0 + size)
        halvings = 0
        while new_ll < floor and halvings < 50:
            step *= 0.5
            new_B = B + step.reshape(q, k)
            new_ll, new_size = loglik(new_B)
            halvings += 1
        total_halvings += halvings
        B, done, ll, size = new_B, abs(new_ll - ll) < ll_tol * (1.0 + abs(ll)), new_ll, new_size
        if done:
            return B, iterations, True, ll, total_halvings
    return B, max_iter, False, ll, total_halvings


@pytest.mark.parametrize("case", ["aliased", "many_categories"])
def test_multinomial_matches_blockwise_reference_newton(case):
    rng = np.random.default_rng(41)
    n, m, k = 400, 4, 3
    if case == "many_categories":
        n, m, k = 4000, 60, 4
        # the information matrix is summed over at least three row blocks
        assert n >= 3 * (_INFORMATION_BLOCK_VALUES // ((m - 1) * k))
    X, cat = _multinomial_sample(rng, n, m, k)
    keep = list(range(k))
    if case == "aliased":
        X = np.column_stack([X, X[:, 1] + X[:, 2]])
        with pytest.warns(AliasedColumnsWarning):
            fit = fit_multinomial(X, cat)
        assert len(fit.dropped_columns) == 1
        assert np.all(fit.coefficients[:, fit.dropped_columns[0]] == 0.0)
        keep = [j for j in range(k + 1) if j not in fit.dropped_columns]
    else:
        fit = fit_multinomial(X, cat)

    B, iterations, converged, ll, _ = _reference_newton(X[:, keep], cat)
    assert (fit.iterations, fit.converged) == (iterations, converged)
    assert fit.converged
    np.testing.assert_allclose(fit.coefficients[:, keep], B, rtol=1e-10, atol=0.0)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-12)


def test_logistic_step_halving_matches_reference_newton():
    # a heavy-tailed covariate and few zeros: from the intercept-only start the
    # first two Newton steps lower the log-likelihood (by 4.8 and 0.65) and are
    # halved, yet the fit converges and is not separated
    rng = np.random.default_rng(21)
    x = rng.standard_t(2, 80)
    y = (rng.random(80) < scipy.special.expit(3.0 + 0.2 * x)).astype(float)
    X = np.column_stack([np.ones(80), x])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_logistic(X, y)
    B, iterations, converged, ll, halvings = _reference_newton(
        X, y.astype(np.intp) + 1, score_tol=1e-8)
    assert halvings > 0
    assert (fit.iterations, fit.converged, fit.separated) == (iterations, True, False)
    np.testing.assert_allclose(fit.coefficients, B[0], rtol=1e-10, atol=0.0)
    assert fit.log_likelihood == pytest.approx(ll, rel=1e-12)


def test_logistic_fit_does_not_depend_on_row_order():
    # one column and no intercept: near the optimum a step's log-likelihood
    # change is below the rounding of the sums Σ η_chosen (about 199 here) and
    # Σ log(1 + e^η) (about 202), though above that of |ll| (2.2); halving on
    # it made the coefficients depend on the row order
    rng = np.random.default_rng(63)
    x = rng.standard_normal(30) + 1.0
    y = (rng.random(30) < scipy.special.expit(3.0 * x - 2.0)).astype(float)
    fits = []
    for rep in range(20):
        order = np.arange(30) if rep == 0 else rng.permutation(30)
        fits.append(fit_logistic(x[order, None], y[order]))
    assert {fit.iterations for fit in fits} == {fits[0].iterations}
    coefs = np.array([fit.coefficients for fit in fits])
    assert np.abs(coefs - coefs[0]).max() <= 1e-12 * np.abs(coefs[0]).max()


def test_multinomial_warns_when_not_converged():
    X, cat = _multinomial_sample(np.random.default_rng(43), 200, 3, 2)
    with pytest.warns(ConvergenceWarning, match="did not converge in 1 iterations"):
        fit = fit_multinomial(X, cat, max_iter=1)
    assert not fit.converged
    assert fit.iterations == 1
    B, iterations, converged, ll, _ = _reference_newton(X, cat, max_iter=1)
    assert (iterations, converged) == (1, False)
    np.testing.assert_allclose(fit.coefficients, B, rtol=1e-10, atol=0.0)


def test_multinomial_memory_stays_below_one_unblocked_z():
    # n x (m - 1) * k float64 values: the size of Z built for all rows at once
    n, m, k = 20000, 30, 12
    X, cat = _multinomial_sample(np.random.default_rng(5), n, m, k)
    tracemalloc.start()
    try:
        fit = fit_multinomial(X, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < n * (m - 1) * k * 8


def test_multinomial_working_set_stays_below_four_probability_matrices():
    # psi's membership fit at the benchmark's n = 1e5, m = 10 with four design
    # columns: P, the next step's P and the score's Y − P are each (m − 1, n);
    # it measured 3.41 such matrices (6.09 with a dense indicator matrix Y)
    n, m = 100_000, 10
    X, cat = _multinomial_sample(np.random.default_rng(7), n, m, 4)
    tracemalloc.start()
    try:
        fit = fit_multinomial(X, cat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fit.converged
    assert peak < 4 * n * (m - 1) * 8


def test_reference_softmax_by_hand():
    out = reference_softmax(np.array([[np.log(2.0), np.log(3.0)]]))
    np.testing.assert_allclose(out, [[1 / 6, 2 / 6, 3 / 6]], atol=1e-12)


# ---------------------------------------------------------------------------
# predict dispatch
# ---------------------------------------------------------------------------


def test_predict_linear_by_hand():
    fit = fit_ols(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))
    np.testing.assert_allclose(predict(fit, [1.0, 3.0]), [3.0], atol=1e-12)


def test_predict_width_mismatch():
    fit = fit_ols(np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ShapeError):
        predict(fit, np.ones((2, 2)))


def test_predict_probability_clipping():
    X = np.column_stack([np.ones(6), [0, 0, 0, 1, 1, 1]])
    y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])
    fit = fit_logistic(X, y)
    p = predict(fit, [[1.0, 1e6], [1.0, -1e6]])
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_multinomial_predict_matches_row_major_softmax():
    # predict runs its softmax category-major and adds the m probabilities of
    # a row one after another; the row-major reference adds them pairwise, so
    # the two may differ in the last bits (4 ulp here, and on the strong scenario)
    X, cat = _multinomial_sample(np.random.default_rng(11), 3000, 12, 4, scale=0.8)
    fit = fit_multinomial(X, cat)
    probs = predict(fit, X)
    assert probs.shape == (3000, 12) and probs.flags.f_contiguous
    np.testing.assert_array_max_ulp(probs, reference_softmax(X @ fit.coefficients.T), maxulp=4)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)


def test_multinomial_coefficients_do_not_depend_on_row_order():
    # the last Newton step gains less than the log-likelihood's roundoff here;
    # halving it on a roundoff-sized fall moved the coefficients by 4e-8
    data = generate_dataset(Scenario(strength="strong", n=1000, m=10), seed=(1000, 32))
    X, _ = build_design(DesignSpec(("1", "x1", "x2", "x3")), data)
    rng = np.random.default_rng(0)
    coefs = []
    for rep in range(6):
        order = np.arange(data.n) if rep == 0 else rng.permutation(data.n)
        fit = fit_multinomial(X[order], data.center[order])
        assert fit.converged
        coefs.append(fit.coefficients)
    assert np.abs(np.array(coefs) - coefs[0]).max() <= 1e-12
