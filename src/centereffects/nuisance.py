"""Design matrices and nuisance-model fitting.

Three model families cover every nuisance the effect estimators need: linear
outcome regressions (OLS), binary logistic treatment models, and
multinomial logistic center-membership models; one reference-category Newton
driver with step-halving fits both logistic families.
Designs are declared as ordered term lists ("1", covariate names, "C" for
center indicators, "A" for the arm indicator, "a:b" products) so model
specifications can round-trip through config files.

All fits are deterministic and unpenalized (a singular information matrix
gets a least-squares Newton step): rank handling uses pivoted QR, and aliased
columns are dropped with a warning and recorded with structurally zero
coefficients.
A least-squares problem whose rows fall into cells (centers) can be reduced
to one small R factor per cell (``factor_cells``); ``fit_ols_cells`` then fits
any union of cells from their stacked factors with fit_ols's own solve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.special
from scipy.linalg.lapack import dgeqp3, dgeqrf, dormqr, dtrtrs

from .dataset import _as_int_1d
from .errors import (
    AliasedColumnsWarning,
    ConvergenceWarning,
    DegenerateFitError,
    EmptyFitError,
    SeparationWarning,
    ShapeError,
    SpecError,
)

INTERCEPT_TOKEN = "1"
CENTER_TOKEN = "C"
ARM_TOKEN = "A"
_INFORMATION_BLOCK_VALUES = 2 ** 18  # float64 values (2 MiB) in one block of _newton's Z


def _term(token):
    """One design term as its canonical string: "1", a covariate name, "C",
    "A", or a product of atoms such as "x1:A", each atom stripped."""
    if not isinstance(token, str):
        raise SpecError(f"design terms must be strings, got {token!r}")
    atoms = [atom.strip() for atom in token.split(":")]
    if "" in atoms:
        raise SpecError("empty design term")
    if len(atoms) > 1 and INTERCEPT_TOKEN in atoms:
        raise SpecError(f"intercept cannot appear in an interaction: {token!r}")
    return ":".join(atoms)


@dataclass(frozen=True)
class DesignSpec:
    """Ordered, declarative description of a regression design; ``terms`` is
    a tuple of canonical term strings."""

    terms: tuple = ()

    def __post_init__(self):
        if isinstance(self.terms, str):
            raise SpecError(f"a design is a list of terms, got the string {self.terms!r}")
        terms = tuple(_term(t) for t in self.terms)
        if terms.count(INTERCEPT_TOKEN) > 1:
            raise SpecError("at most one intercept term allowed")
        object.__setattr__(self, "terms", terms)

    def __str__(self):
        return " + ".join(self.terms) or "<empty>"


def _atom_columns(atom, data, rows, n):
    """Expand one atom of a term on the ``n`` data rows ``rows`` to (n x k
    matrix, names). The center indicators are C2..Cm of the whole dataset and
    the arm check reads the whole dataset's arms, so a row's columns do not
    depend on which other rows are built."""
    if atom == INTERCEPT_TOKEN:
        return np.ones((n, 1)), [INTERCEPT_TOKEN]
    if atom == CENTER_TOKEN:
        ids = np.arange(2, data.m + 1)
        cols = (data.center[rows, None] == ids).astype(np.float64)
        return cols, [f"{CENTER_TOKEN}{c}" for c in ids]
    if atom == ARM_TOKEN:
        if not set(data.arms) <= {0, 1}:
            raise SpecError("arm indicator term requires arms coded {0,1}")
        return data.arm[rows].astype(np.float64).reshape(-1, 1), [ARM_TOKEN]
    if atom not in data.covariate_names:
        raise SpecError(f"unknown covariate {atom!r} in design; "
                        f"covariates are {list(data.covariate_names)}")
    return data.covariate(atom)[rows].reshape(-1, 1), [atom]


def _design_rows(spec, data, rows):
    """``spec``'s design on the data rows ``rows`` (an index array or a slice)
    and its column names: those rows of ``build_design(spec, data)``, bit for
    bit, with the same errors."""
    n = len(data.center[rows])
    blocks = []
    names = []
    for term in spec.terms:
        first, *rest = term.split(":")
        cols, nm = _atom_columns(first, data, rows, n)
        for atom in rest:
            pcols, pnames = _atom_columns(atom, data, rows, n)
            # column (i, j) is cols[:, i] * pcols[:, j], i-major
            cols = (cols[:, :, None] * pcols[:, None, :]).reshape(n, len(nm) * len(pnames))
            nm = [f"{a}:{b}" for a in nm for b in pnames]
        blocks.append(cols)
        names.extend(nm)
    if blocks:
        X = np.concatenate(blocks, axis=1)
    else:
        X = np.zeros((n, 0))
    return X, names


def _spec_columns(spec, data, what):
    """The column names of ``spec``'s design on ``data``, built on no rows: the
    one check of a spec against the data, whose SpecError begins with ``what``."""
    try:
        return _design_rows(spec, data, slice(0))[1]
    except SpecError as exc:
        raise SpecError(f"{what}: {exc}") from None


def build_design(spec, data):
    """Expand a DesignSpec on a dataset: returns (matrix, column names).

    ``C`` expands to the indicators C2..Cm of the dataset's centers and ``A``
    to the arm, which must be coded {0, 1}. ``_design_rows`` builds the same
    columns on a subset of the rows, so a design too large to hold can be
    built one cell at a time (``factor_cells``).
    """
    return _design_rows(spec, data, slice(None))


# ---------------------------------------------------------------------------
# rank handling
# ---------------------------------------------------------------------------


def _lapack(routine, *args, **kwargs):
    """A LAPACK routine's outputs, with the workspace its query asks for.

    This is how scipy.linalg calls it (the workspace size can select a
    blocked algorithm), so results are bitwise scipy.linalg's.
    """
    work = routine(*args, lwork=-1, **kwargs)[-2]
    out = routine(*args, lwork=int(work[0]), **kwargs)
    if out[-1] < 0:
        raise ValueError(f"illegal argument {-out[-1]} to {routine.__name__}")
    return out[:-2]


def _pivoted_qr(X, n=None, b=None):
    """Economic pivoted QR with rank detection. Returns (Qᵀb, R, pivot order, rank).

    R and the pivots are bitwise ``scipy.linalg.qr(X, mode="economic",
    pivoting=True)``'s, without its per-call overhead. Qᵀb (None when ``b`` is
    None) applies the QR's Householder reflectors to ``b`` without forming Q,
    and holds min(rows, p) entries. The rank tolerance is diag[0]·max(n, p)·eps,
    where ``n`` is the number of data rows behind ``X`` (default: its own row
    count; X may be stacked R factors of more rows).
    """
    rows, p = X.shape
    if X.size == 0:
        return None, None, np.arange(p), 0
    # dgeqp3 factors in place: one Fortran copy of X, which f2py does not copy again
    qr = np.array(np.asarray_chkfinite(X), dtype=np.float64, order="F")
    qr, piv, tau = _lapack(dgeqp3, qr, overwrite_a=1)
    piv -= 1
    R = np.triu(qr[:p] if rows >= p else qr)
    qtb = None
    if b is not None:
        reflectors = qr[:, :rows] if rows < p else qr
        qtb = np.array(np.asarray_chkfinite(b), dtype=np.float64)[:, None]  # dormqr overwrites it
        qtb = _lapack(dormqr, "L", "T", reflectors, tau, qtb, overwrite_c=1)[0][:len(tau), 0]
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        return qtb, R, piv, 0
    tol = diag[0] * max(rows if n is None else n, p) * np.finfo(np.float64).eps
    return qtb, R, piv, int(np.sum(diag > tol))


def _solve_upper(R, B):
    """R⁻¹B for an upper-triangular, C-ordered R (np.triu's order), by LAPACK trtrs
    on the transposed, lower system, as scipy.linalg.solve_triangular calls it."""
    x, info = dtrtrs(R.T, B, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1}")
    return x


def _warn_dropped(dropped, column_names, model):
    """Warn of aliased columns, pointing at the caller of the fit that calls
    ``_least_squares`` or ``_newton``, the two callers of this function."""
    if len(dropped) == 0:
        return
    if column_names:
        what = ", ".join(column_names[j] for j in dropped)
    else:
        what = ", ".join(str(j) for j in dropped)
    warnings.warn(
        f"{model}: dropped aliased design column(s) {what}",
        AliasedColumnsWarning,
        stacklevel=4,
    )


def _fit_data(design, response, model, name="y", dtype=np.float64):
    """A fit's design as a float64 matrix and its response as an array, checked:
    the design is 2-D with rows, and the response has one entry per row."""
    X = np.asarray(design, dtype=np.float64)
    response = np.asarray(response, dtype=dtype)
    if X.ndim != 2:
        raise ShapeError("design must be 2-dimensional")
    n = X.shape[0]
    if n == 0:
        raise EmptyFitError(f"cannot fit a {model} model on zero rows")
    if response.shape != (n,):
        raise ShapeError(f"{name} has shape {response.shape}, expected ({n},)")
    return X, response


# ---------------------------------------------------------------------------
# linear model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearFit:
    """OLS fit; dropped (aliased) columns carry structurally zero coefficients."""

    coefficients: np.ndarray
    dropped_columns: tuple
    rss: float
    df_residual: int
    column_names: tuple = ()
    #: the retained columns, in pivot order, and their triangle of the pivoted R
    _retained: np.ndarray = field(default=(), repr=False)
    _triangle: np.ndarray = field(default=None, repr=False)

    @property
    def unscaled_variance(self):
        """Unscaled sampling variance of each coefficient, diag of (X'X)^-1 on the
        retained columns (NaN for dropped ones), computed when read; multiply by
        rss/df_residual."""
        unscaled = np.full(len(self.coefficients), np.nan)
        if len(self._retained):
            rinv = _solve_upper(self._triangle, np.eye(len(self._retained)))
            unscaled[self._retained] = np.sum(rinv * rinv, axis=1)
        return unscaled


def _least_squares(M, b, n=None, rss0=0.0, column_names=None):
    """min ‖b − Mβ‖ by pivoted QR, for a problem of ``n`` data rows (default:
    M's rows); zero rows raise EmptyFitError, and aliased columns warn.

    M and b are the design and outcome themselves, or stacked R factors and
    Qᵀy whose other rows left the residual sum of squares ``rss0``.
    """
    n = len(M) if n is None else n
    if n == 0:
        raise EmptyFitError("cannot fit a linear model on zero rows")
    p = M.shape[1]
    names = tuple(column_names or ())
    if p == 0:
        return LinearFit(np.zeros(0), (), rss0 + float(b @ b), n, names)

    qty, R, piv, rank = _pivoted_qr(M, n, b)
    coef = np.zeros(p)
    if rank > 0:
        R = R[:rank, :rank]
        coef[piv[:rank]] = _solve_upper(R, qty[:rank])

    resid = b - M @ coef
    dropped = tuple(sorted(int(j) for j in piv[rank:]))
    _warn_dropped(dropped, column_names, "fit_ols")
    return LinearFit(
        coefficients=coef,
        dropped_columns=dropped,
        rss=rss0 + float(resid @ resid),
        df_residual=n - rank,
        column_names=names,
        _retained=piv[:rank],
        _triangle=R,
    )


def fit_ols(design, y, column_names=None):
    """Least squares with pivoted-QR rank detection.

    Aliased columns are dropped (warning), recorded in ``dropped_columns``,
    and given coefficient 0 so predictions use the full design width. The
    rank tolerance is diag(R)[0]·max(n, p)·eps on the pivoted R of the design.
    ``fit_ols_cells`` solves the same problem from per-cell R factors.
    """
    return _least_squares(*_fit_data(design, y, "linear"), column_names=column_names)


@dataclass(frozen=True)
class CellFactors:
    """Per-cell R factors of a least-squares problem whose rows fall into cells.

    Cell j's rows [X_j | y_j], over the columns nonzero in that cell, have the
    unpivoted QR factor [[R_j, b_j], [0, ρ_j]]. ``R`` stacks the R_j, widened
    to the full design with zero columns, ``qty`` stacks the b_j, and ``cell``
    holds the label of each stacked row. ``labels``, ``rss`` (ρ_j²) and
    ``rows`` (data rows) have one entry per cell. Since Σ R_jᵀR_j = XᵀX and
    ‖y − Xβ‖² = Σ (‖b_j − R_jβ‖² + ρ_j²), the rows of any set of cells are
    fit from their factors alone: R_j has at most p rows, whatever the cell's
    size.
    """

    R: np.ndarray
    qty: np.ndarray
    cell: np.ndarray
    labels: np.ndarray
    rss: np.ndarray
    rows: np.ndarray


def factor_cells(build, y, cells):
    """CellFactors of a design's rows and ``y``, split by the labels ``cells``.

    ``build`` returns the design's rows at an array of row indices; each cell's
    rows are built, checked as a design is, and factored alone.
    """
    X, y = _fit_data(np.empty((np.size(y), 0)), y, "linear")
    cells = _fit_data(X, cells, "linear", "cells", None)[1]
    labels, inverse, rows = np.unique(cells, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")
    R, qty, rss = [], [], np.zeros(len(labels))
    for j, idx in enumerate(np.split(order, np.cumsum(rows)[:-1])):
        Xj, yj = _fit_data(build(idx), y[idx], "linear")
        nz = np.flatnonzero(Xj.any(axis=0))
        k = len(nz)
        A = np.empty((len(idx), k + 1), order="F")
        A[:, :k] = Xj[:, nz]
        A[:, k] = yj
        F = np.triu(_lapack(dgeqrf, A, overwrite_a=1)[0][:k + 1])
        r = min(len(idx), k)
        Rj = np.zeros((r, Xj.shape[1]))
        Rj[:, nz] = F[:r, :k]
        R.append(Rj)
        qty.append(F[:r, k])
        if len(idx) > k:
            rss[j] = F[k, k] ** 2
    return CellFactors(
        R=np.concatenate(R),
        qty=np.concatenate(qty),
        cell=np.repeat(labels, [len(b) for b in qty]),
        labels=labels,
        rss=rss,
        rows=rows,
    )


def fit_ols_cells(factors, leave_out=None, column_names=None):
    """``fit_ols`` on the rows of every cell but ``leave_out``, from their R factors.

    Rank detection, tolerance (with n the rows fit) and the triangular solves
    are fit_ols's, applied to the stacked factors, so rank, df, RSS, fitted
    values and, on a full-rank design, coefficients agree with fit_ols on the
    rows themselves up to roundoff. Which of two exactly aliased columns of
    equal norm is dropped is decided by roundoff, so ``dropped_columns``, the
    coefficients of aliased columns and predictions on rows where those
    columns are not aliased may differ from fit_ols's.
    """
    take = stacked = slice(None)
    if leave_out is not None:
        take, stacked = factors.labels != leave_out, factors.cell != leave_out
    return _least_squares(factors.R[stacked], factors.qty[stacked], int(factors.rows[take].sum()),
                          float(factors.rss[take].sum()), column_names)


def leave_one_out_coefficients(factors, leave_out, column_names=None):
    """(k, p) coefficients: row j is ``fit_ols_cells(factors, leave_out[j])``'s.

    All k pools are solved at once: the stacked factors [R | Qᵀy], with the
    left-out cell's rows zeroed, are factored by one stacked unpivoted QR and
    the k triangles solved together. A pool whose R diagonal fails fit_ols's
    rank test (|R_ii| ≤ max column norm · max(n, p) · eps) goes through
    ``fit_ols_cells`` itself, with its warning and errors. Each pool's row
    depends only on that pool, not on the others solved with it.
    """
    leave_out = np.asarray(leave_out)
    S, p = factors.R.shape
    coef = np.zeros((len(leave_out), p))
    full_rank = np.zeros(len(leave_out), dtype=bool)
    if S >= p > 0:
        A = np.empty((len(leave_out), S, p + 1))
        A[:, :, :p] = factors.R
        A[:, :, p] = factors.qty
        A[factors.cell == leave_out[:, None]] = 0.0
        R = np.linalg.qr(A, mode="r")[:, :p]
        n = factors.rows.sum() - (factors.labels == leave_out[:, None]) @ factors.rows
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        tol = np.linalg.norm(R[:, :, :p], axis=1).max(axis=1) * np.maximum(n, p) * _EPS
        full_rank = np.all(diag > tol[:, None], axis=1)
        coef[full_rank] = np.linalg.solve(R[full_rank, :, :p], R[full_rank, :, p:])[:, :, 0]
    for j in np.flatnonzero(~full_rank):
        coef[j] = fit_ols_cells(factors, leave_out[j], column_names).coefficients
    return coef


# ---------------------------------------------------------------------------
# logistic and multinomial models: one reference-category Newton driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray
    converged: bool
    iterations: int
    dropped_columns: tuple = ()
    separated: bool = False
    log_likelihood: float = np.nan
    column_names: tuple = ()


@dataclass(frozen=True)
class MultinomialFit:
    """Reference-category multinomial logit; category 1 has linear predictor 0.

    ``coefficients`` has one row per non-reference category (2..m).
    """

    coefficients: np.ndarray
    converged: bool
    iterations: int
    m: int
    dropped_columns: tuple = ()
    log_likelihood: float = np.nan
    column_names: tuple = ()
    separated: bool = False


def reference_softmax(eta, axis=1, _out=None):
    """Reference-category softmax along ``axis``: probabilities over (ref, 2..m).

    ``eta`` holds the predictors of categories 2..m and position 0 along
    ``axis`` is the reference category, with linear predictor 0: (n, m − 1)
    → (n, m) by default, category-major (m − 1, n) → (m, n) with axis=0.

    ``_out`` (private) is a (full, max, sum) triple of buffers to work in:
    ``full`` already holds ``eta`` at positions 1.. along ``axis`` and becomes
    the result; the max and the sum along ``axis`` (keepdims shape) go to the
    other two, or to new arrays where they are None.
    """
    if _out is None:
        full, peak, total = np.insert(eta, 0, 0.0, axis=axis), None, None
    else:
        full, peak, total = _out
        np.moveaxis(full, axis, 0)[0] = 0.0
    full -= full.max(axis=axis, keepdims=True, out=peak)
    np.exp(full, out=full)
    full /= full.sum(axis=axis, keepdims=True, out=total)
    return full


_EPS = np.finfo(np.float64).eps
_LOGISTIC_SCORE_TOL = 1e-8
_MULTINOMIAL_SCORE_TOL = 1e-6
_LL_TOL = 1e-10  # relative log-likelihood change that ends the iteration
#: a coefficient above this in absolute value marks (quasi-)complete separation
_SEPARATION_BOUND = 1e3
#: an observed category fitted with probability above 1 − this is perfectly
#: classified, i.e. (quasi-)complete separation
_SEPARATION_PROB = 1e-14


def _newton(X, cat, m, max_iter, score_tol, column_names, model):
    """Maximum likelihood of the reference-category logit of ``cat`` (1..m) on X.

    Returns the fit's fields, coefficients (m − 1, p) with dropped columns at 0.

    The start is closed-form when a kept column is 1 on every row: that
    column's coefficients are log(n_c / n_1), the intercept-only MLE, and the
    others 0; otherwise the start is 0. Convergence: max |score| < score_tol
    or relative log-likelihood change < 1e-10. The likelihood stop matters on
    large samples, where the absolute score threshold sits below the roundoff
    of a log-likelihood summed over n rows. A step is halved only when it
    lowers the log-likelihood by more than n·eps·(1 + S), the worst-case
    rounding error of ll = Σ η_chosen − Σ log Σ_j exp(η_j). S = Σ|η_chosen| +
    Σ|log Σ_j exp(η_j)| is the size of those two sums, which can be far above
    |ll|; halving on a smaller fall makes the coefficients depend on the row
    order.

    Per-category arrays are category-major: the predictors η and the
    probabilities P of categories 2..m are (m − 1, n), so every softmax pass
    and the Z build run along the n rows. The information matrix is
    blockdiag_j(Xᵀ diag(P_j) X) − ZZᵀ, where P_j is category j's probability
    and Z[(j, a), i] = P[j, i] X[i, a]; the score is (Y − P) X for the
    indicators Y of categories 2..m, formed as 0 − P plus 1 at each row's
    observed category (1 − p rounds as −p + 1 does), so Y is never built. The
    information is summed over blocks of data rows, about 2 MiB of Z each,
    bounding its memory.

    Separation ends the fit with a SeparationWarning and converged=False: a
    coefficient above 1e3 in absolute value stops the iteration, and an
    observed category fitted with probability above 1 − 1e-14 at the end
    flags the fit however the iteration ended, since a likelihood plateau can
    look like convergence while the MLE is off at infinity.
    """
    n, p = X.shape
    _, _, piv, k = _pivoted_qr(X)
    keep = np.sort(piv[:k])
    dropped = tuple(sorted(int(j) for j in piv[k:]))
    _warn_dropped(dropped, column_names, f"fit_{model}")
    XkT = np.ascontiguousarray(X[:, keep].T)  # (k, n)
    q = m - 1

    # flat (m − 1, n) indices of each row's observed category 2..m, in row order
    nonref = np.flatnonzero(cat > 1)
    chosen = (cat[nonref] - 2) * n + nonref

    def softmax_loglik(eta):  # η turned in place into P of categories 2..m, ll and S
        picked = eta.ravel()[chosen]
        shift = np.maximum(eta.max(axis=0), 0.0)
        P = np.exp(np.subtract(eta, shift, out=eta), out=eta)
        denom = np.exp(-shift) + P.sum(axis=0)
        P /= denom
        log_norm = (shift + np.log(denom)).sum()  # each term ≥ 0: the reference's η is 0
        return P, float(picked.sum() - log_norm), float(np.abs(picked).sum() + log_norm)

    B = np.zeros((q, k))
    ones = np.flatnonzero((XkT == 1.0).all(axis=1))
    if len(ones):
        counts = np.bincount(cat, minlength=m + 1)[1:]
        B[:, ones[0]] = np.log(counts[1:] / counts[0])
    P, ll, size = softmax_loglik(B @ XkT)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        residual = 0.0 - P  # Y − P; 0 − p keeps Y − P's +0 where p is 0
        residual.ravel()[chosen] += 1.0
        score = (residual @ XkT.T).ravel()  # (q*k,)
        del residual  # not held through the information build and the halvings
        if np.max(np.abs(score), initial=0.0) < score_tol:
            converged = True
            iterations -= 1
            break

        rows = max(1, _INFORMATION_BLOCK_VALUES // (q * k))
        H = np.zeros((q * k, q * k))
        diagonal = np.zeros((q * k, k))
        for start in range(0, n, rows):
            block = slice(start, start + rows)
            Zb = (P[:, None, block] * XkT[:, block]).reshape(q * k, -1)
            diagonal += Zb @ XkT[:, block].T
            H -= Zb @ Zb.T
        H.reshape(q, k, q, k)[range(q), :, range(q), :] += diagonal.reshape(q, k, k)
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, score, rcond=None)[0]

        floor = ll - n * _EPS * (1.0 + size)
        for _ in range(51):  # the Newton step, then up to 50 halvings
            new_B = B + step.reshape(q, k)
            new_P, new_ll, new_size = softmax_loglik(new_B @ XkT)
            if not new_ll < floor:
                break
            step *= 0.5
        B, P, ll, size, previous = new_B, new_P, new_ll, new_size, ll
        if np.max(np.abs(B), initial=0.0) > _SEPARATION_BOUND:
            break
        if abs(ll - previous) < _LL_TOL * (1.0 + abs(previous)):
            converged = True
            break
    else:
        iterations = max_iter

    observed = max(P.ravel()[chosen].max(initial=0.0), 1.0 - P[:, cat == 1].sum(axis=0).min())
    separated = bool(np.max(np.abs(B), initial=0.0) > _SEPARATION_BOUND
                     or observed > 1.0 - _SEPARATION_PROB)
    if separated:
        converged = False
        warnings.warn(
            f"complete separation suspected: a coefficient exceeds {_SEPARATION_BOUND:g} "
            "in absolute value or an observed category's fitted probability reaches 1",
            SeparationWarning,
            stacklevel=3,
        )
    elif not converged:
        warnings.warn(
            f"{model} fit did not converge in {max_iter} iterations",
            ConvergenceWarning,
            stacklevel=3,
        )

    coef = np.zeros((q, p))
    coef[:, keep] = B
    return dict(
        coefficients=coef, converged=converged, iterations=iterations,
        dropped_columns=dropped, separated=separated, log_likelihood=ll,
        column_names=tuple(column_names or ()),
    )


def fit_logistic(design, y, max_iter=100, column_names=None):
    """Bernoulli maximum likelihood: the reference-category Newton fit with m = 2.

    Category 1 is y = 0. The start, stopping and step-halving rules and the
    separation rules are those of the multinomial fit; the score tolerance
    is 1e-8. A separated fit issues a SeparationWarning and is returned with
    separated=True and converged=False.
    """
    X, yv = _fit_data(design, y, "logistic")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise ShapeError("logistic outcome must be coded 0/1")
    if yv.min() == yv.max():
        raise DegenerateFitError("logistic outcome has a single class")

    fit = _newton(X, yv.astype(np.intp) + 1, 2, max_iter, _LOGISTIC_SCORE_TOL,
                  column_names, "logistic")
    return LogisticFit(**dict(fit, coefficients=fit["coefficients"][0]))


def fit_multinomial(design, category, max_iter=200, column_names=None):
    """Multinomial maximum likelihood by the reference-category Newton fit.

    ``category`` takes integer values 1..m with every category observed;
    category 1 is the reference. The score tolerance is 1e-6. A separated fit
    issues a SeparationWarning and is returned with separated=True and
    converged=False.
    """
    X, cat = _fit_data(design, category, "multinomial", "category", None)
    cat = _as_int_1d(cat, "category")
    if cat.min() < 1:
        low = np.unique(cat[cat < 1]).tolist()
        raise DegenerateFitError(f"multinomial categories must be 1..m; found {low}")
    m = int(cat.max())
    observed = set(np.unique(cat).tolist())
    if m < 2 or observed != set(range(1, m + 1)):
        missing = sorted(set(range(1, max(m, 2) + 1)) - observed)
        raise DegenerateFitError(
            f"multinomial fit needs every category 1..m observed; missing {missing}"
        )

    return MultinomialFit(m=m, **_newton(
        X, cat, m, max_iter, _MULTINOMIAL_SCORE_TOL, column_names, "multinomial"
    ))


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

_PROB_LO = np.finfo(np.float64).tiny
_PROB_HI = np.nextafter(1.0, 0.0)


def predict(fit, rows):
    """Predictions on design rows built from the same DesignSpec as the fit.

    Linear fits return X @ beta; logistic fits return probabilities in the
    open interval (0,1); multinomial fits return an (n, m) probability matrix
    whose rows sum to 1 within 1e-12, the transposed view of a category-major
    (m, n) array (Fortran order: each category's column is contiguous).
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ShapeError("rows must be 1- or 2-dimensional")

    if not isinstance(fit, (LinearFit, LogisticFit, MultinomialFit)):
        raise ShapeError(f"unknown fit type {type(fit).__name__}")
    width = fit.coefficients.shape[-1]
    if X.shape[1] != width:
        raise ShapeError(f"rows have {X.shape[1]} columns, fit expects {width}")
    if isinstance(fit, LinearFit):
        return X @ fit.coefficients
    if isinstance(fit, LogisticFit):
        return np.clip(scipy.special.expit(X @ fit.coefficients), _PROB_LO, _PROB_HI)
    P = reference_softmax(fit.coefficients @ X.T, axis=0)
    return np.clip(P, _PROB_LO, _PROB_HI, out=P).T
