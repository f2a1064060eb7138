"""Design matrices and nuisance-model fitting.

Three model families cover every nuisance the effect estimators need: linear
outcome regressions (OLS), binary logistic treatment models (IRLS), and
multinomial logistic center-membership models (Newton with step-halving).
Designs are declared as ordered term lists ("1", covariate names, "C" for
center indicators, "A" for the arm indicator, "a:b" products) so model
specifications can round-trip through config files.

All fits are deterministic: rank handling uses pivoted QR, aliased columns are
dropped with a warning and recorded with structurally zero coefficients, and
no regularization is applied unless a ridge jitter is explicitly requested.
A least-squares problem whose rows fall into cells (centers) can be reduced
to one small R factor per cell (``factor_cells``); ``fit_ols_cells`` then fits
any union of cells from their stacked factors with fit_ols's own solve.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.special
from scipy.linalg.lapack import dgeqp3, dgeqrf, dorgqr, dtrtrs

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
_INFORMATION_BLOCK_VALUES = 2 ** 18  # float64 values (2 MiB) in one row block of fit_multinomial's Z


@dataclass(frozen=True)
class Term:
    """One design term: intercept, covariate, center/arm indicators, or product."""

    kind: str  # "intercept" | "covariate" | "center" | "arm" | "interaction"
    name: str = ""
    parts: tuple = ()

    def __str__(self):
        if self.kind == "intercept":
            return INTERCEPT_TOKEN
        if self.kind == "center":
            return CENTER_TOKEN
        if self.kind == "arm":
            return ARM_TOKEN
        if self.kind == "covariate":
            return self.name
        return ":".join(str(p) for p in self.parts)


def _parse_atom(token):
    token = token.strip()
    if not token:
        raise SpecError("empty design term")
    if token == INTERCEPT_TOKEN:
        return Term("intercept")
    if token == CENTER_TOKEN:
        return Term("center")
    if token == ARM_TOKEN:
        return Term("arm")
    return Term("covariate", name=token)


def parse_term(token):
    """Parse one term string such as "1", "x1", "C", "A", "x1:A"."""
    if isinstance(token, Term):
        return token
    if ":" in token:
        parts = tuple(_parse_atom(t) for t in token.split(":"))
        if any(p.kind == "intercept" for p in parts):
            raise SpecError(f"intercept cannot appear in an interaction: {token!r}")
        return Term("interaction", parts=parts)
    return _parse_atom(token)


@dataclass(frozen=True)
class DesignSpec:
    """Ordered, declarative description of a regression design."""

    terms: tuple = ()

    def __post_init__(self):
        terms = tuple(parse_term(t) for t in self.terms)
        if sum(t.kind == "intercept" for t in terms) > 1:
            raise SpecError("at most one intercept term allowed")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def parse(cls, tokens):
        return cls(tuple(tokens))

    def to_strings(self):
        return [str(t) for t in self.terms]

    def __str__(self):
        return " + ".join(self.to_strings()) or "<empty>"


def main_effects(covariate_names, intercept=True, centers=False, arm=False):
    """Convenience spec: intercept + covariate main effects (+ C and/or A)."""
    tokens = ([INTERCEPT_TOKEN] if intercept else []) + list(covariate_names)
    if centers:
        tokens.append(CENTER_TOKEN)
    if arm:
        tokens.append(ARM_TOKEN)
    return DesignSpec.parse(tokens)


def _atom_columns(term, data):
    """Expand an atomic term to (n x k matrix, names)."""
    n = data.n
    if term.kind == "intercept":
        return np.ones((n, 1)), [INTERCEPT_TOKEN]
    if term.kind == "covariate":
        if term.name not in data.covariate_names:
            raise SpecError(f"unknown covariate {term.name!r} in design")
        return data.covariate(term.name).reshape(-1, 1), [term.name]
    if term.kind == "center":
        ids = np.arange(2, data.m + 1)
        cols = (data.center[:, None] == ids).astype(np.float64)
        return cols, [f"{CENTER_TOKEN}{c}" for c in ids]
    if term.kind == "arm":
        if not set(data.arms) <= {0, 1}:
            raise SpecError("arm indicator term requires arms coded {0,1}")
        return data.arm.astype(np.float64).reshape(-1, 1), [ARM_TOKEN]
    raise SpecError(f"not an atomic term: {term}")


def build_design(spec, data, arm_filter=None):
    """Expand a DesignSpec on a dataset.

    Returns (matrix, column names). With ``arm_filter`` set, only rows with
    that arm are returned (columns are identical to the unfiltered design).
    """
    blocks = []
    names = []
    for term in spec.terms:
        if term.kind == "interaction":
            cols, nm = _atom_columns(term.parts[0], data)
            for part in term.parts[1:]:
                pcols, pnames = _atom_columns(part, data)
                # column (i, j) is cols[:, i] * pcols[:, j], i-major
                cols = (cols[:, :, None] * pcols[:, None, :]).reshape(data.n, -1)
                nm = [f"{a}:{b}" for a in nm for b in pnames]
        else:
            cols, nm = _atom_columns(term, data)
        blocks.append(cols)
        names.extend(nm)
    if blocks:
        X = np.concatenate(blocks, axis=1)
    else:
        X = np.zeros((data.n, 0))
    if arm_filter is not None:
        X = X[data.arm == arm_filter]
    return X, names


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


def _pivoted_qr(X, n=None):
    """Economic pivoted QR with rank detection. Returns (Q, R, pivot order, rank).

    Bitwise ``scipy.linalg.qr(X, mode="economic", pivoting=True)`` without
    its per-call overhead. The rank tolerance is diag[0]·max(n, p)·eps, where
    ``n`` is the number of data rows behind ``X`` (default: its own row
    count; X may be stacked R factors of more rows).
    """
    rows, p = X.shape
    if X.size == 0:
        return None, None, np.arange(p), 0
    qr, piv, tau = _lapack(dgeqp3, np.asarray_chkfinite(X))
    piv -= 1
    R = np.triu(qr[:p] if rows >= p else qr)
    Q = _lapack(dorgqr, qr[:, :rows] if rows < p else qr, tau, overwrite_a=1)[0]
    diag = np.abs(np.diag(R))
    if diag[0] == 0.0:
        return Q, R, piv, 0
    tol = diag[0] * max(rows if n is None else n, p) * np.finfo(np.float64).eps
    return Q, R, piv, int(np.sum(diag > tol))


def _solve_upper(R, B):
    """R⁻¹B for an upper-triangular R, by LAPACK trtrs called as
    scipy.linalg.solve_triangular calls it."""
    if R.flags.f_contiguous:
        x, info = dtrtrs(R, B)
    else:  # trtrs takes Fortran order: solve the transposed, lower system
        x, info = dtrtrs(R.T, B, lower=1, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero at diagonal {info - 1}")
    return x


def _warn_dropped(dropped, column_names, model):
    if len(dropped) == 0:
        return
    if column_names:
        what = ", ".join(column_names[j] for j in dropped)
    else:
        what = ", ".join(str(j) for j in dropped)
    warnings.warn(
        f"{model}: dropped aliased design column(s) {what}",
        AliasedColumnsWarning,
        stacklevel=3,
    )


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
    #: unscaled sampling variance of each coefficient, diag of (X'X)^-1 on the
    #: retained columns (NaN for dropped ones); multiply by rss/df_residual.
    unscaled_variance: np.ndarray = field(default=None, repr=False)


def _least_squares(M, b, n, rss0=0.0, column_names=None):
    """min ‖b − Mβ‖ by pivoted QR, for a problem of ``n`` data rows.

    M and b are the design and outcome themselves, or stacked R factors and
    Qᵀy whose other rows left the residual sum of squares ``rss0``.
    """
    p = M.shape[1]
    names = tuple(column_names or ())
    if p == 0:
        return LinearFit(np.zeros(0), (), rss0 + float(b @ b), n, names, np.zeros(0))

    Q, R, piv, rank = _pivoted_qr(M, n)
    coef = np.zeros(p)
    unscaled = np.full(p, np.nan)
    if rank > 0:
        qty = Q.T @ np.asarray_chkfinite(b)
        coef[piv[:rank]] = _solve_upper(R[:rank, :rank], qty[:rank])
        rinv = _solve_upper(R[:rank, :rank], np.eye(rank))
        unscaled[piv[:rank]] = np.sum(rinv * rinv, axis=1)

    resid = b - M @ coef
    return LinearFit(
        coefficients=coef,
        dropped_columns=tuple(sorted(int(j) for j in piv[rank:])),
        rss=rss0 + float(resid @ resid),
        df_residual=n - rank,
        column_names=names,
        unscaled_variance=unscaled,
    )


def fit_ols(design, y, column_names=None):
    """Least squares with pivoted-QR rank detection.

    Aliased columns are dropped (warning), recorded in ``dropped_columns``,
    and given coefficient 0 so predictions use the full design width. The
    rank tolerance is diag(R)[0]·max(n, p)·eps on the pivoted R of the design.
    ``fit_ols_cells`` solves the same problem from per-cell R factors.
    """
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("design must be 2-dimensional")
    n = X.shape[0]
    if n == 0:
        raise EmptyFitError("cannot fit a linear model on zero rows")
    if y.shape != (n,):
        raise ShapeError(f"y has shape {y.shape}, expected ({n},)")
    fit = _least_squares(X, y, n, column_names=column_names)
    _warn_dropped(fit.dropped_columns, column_names, "fit_ols")
    return fit


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


def factor_cells(design, y, cells):
    """CellFactors of the rows of ``design`` and ``y``, split by the labels ``cells``."""
    X = np.asarray(design, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    cells = np.asarray(cells)
    if X.ndim != 2:
        raise ShapeError("design must be 2-dimensional")
    n, p = X.shape
    if y.shape != (n,) or cells.shape != (n,):
        raise ShapeError(f"y and cells must have shape ({n},)")
    if n == 0:
        raise EmptyFitError("cannot fit a linear model on zero rows")
    labels, inverse, rows = np.unique(cells, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")
    R, qty, rss = [], [], np.zeros(len(labels))
    for j, idx in enumerate(np.split(order, np.cumsum(rows)[:-1])):
        Xj = X[idx]
        nz = np.flatnonzero(Xj.any(axis=0))
        k = len(nz)
        A = np.empty((len(idx), k + 1), order="F")
        A[:, :k] = Xj[:, nz]
        A[:, k] = y[idx]
        F = np.triu(_lapack(dgeqrf, A, overwrite_a=1)[0][:k + 1])
        r = min(len(idx), k)
        Rj = np.zeros((r, p))
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
    n = int(factors.rows[take].sum())
    if n == 0:
        raise EmptyFitError("cannot fit a linear model on zero rows")
    fit = _least_squares(
        factors.R[stacked], factors.qty[stacked], n, float(factors.rss[take].sum()),
        column_names,
    )
    _warn_dropped(fit.dropped_columns, column_names, "fit_ols")
    return fit


# ---------------------------------------------------------------------------
# binary logistic model
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


def _bernoulli_loglik(eta, y):
    # sum y*eta - log(1 + exp(eta)), stable
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


_EPS = np.finfo(np.float64).eps

#: a fitted probability this close to 0 or 1 at an observed point marks the
#: point as perfectly classified, i.e. (quasi-)complete separation
_SEPARATION_PROB = 1e-14


def fit_logistic(
    design,
    y,
    ridge=0.0,
    max_iter=100,
    score_tol=1e-8,
    ll_tol=1e-10,
    separation_bound=1e3,
    column_names=None,
):
    """Bernoulli maximum likelihood via iteratively reweighted least squares.

    Convergence: max |score| < score_tol or relative log-likelihood change
    < ll_tol. A step is halved only when it lowers the log-likelihood ll by
    more than n·eps·(1 + |ll|): the worst-case rounding error of a sum of n
    log-probabilities (all ≤ 0, so their absolute values add up to |ll|). A
    smaller fall is roundoff, and halving on it makes the coefficients depend
    on the row order. A coefficient sup-norm above ``separation_bound`` is
    treated as complete separation: a SeparationWarning is issued and the fit
    is returned with converged=False.
    """
    X = np.asarray(design, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("design must be 2-dimensional")
    n, p = X.shape
    if n == 0:
        raise EmptyFitError("cannot fit a logistic model on zero rows")
    if yv.shape != (n,):
        raise ShapeError(f"y has shape {yv.shape}, expected ({n},)")
    if not np.all((yv == 0.0) | (yv == 1.0)):
        raise ShapeError("logistic outcome must be coded 0/1")
    if yv.min() == yv.max():
        raise DegenerateFitError("logistic outcome has a single class")

    _, _, piv, rank = _pivoted_qr(X)
    keep = np.sort(piv[:rank])
    dropped = tuple(sorted(int(j) for j in piv[rank:]))
    _warn_dropped(dropped, column_names, "fit_logistic")
    Xk = X[:, keep]

    beta = np.zeros(rank)
    eta = Xk @ beta
    ll = _bernoulli_loglik(eta, yv)
    converged = False
    separated = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        prob = scipy.special.expit(eta)
        score = Xk.T @ (yv - prob)
        if np.max(np.abs(score), initial=0.0) < score_tol:
            converged = True
            iterations -= 1
            break
        w = prob * (1.0 - prob)
        H = (Xk * w[:, None]).T @ Xk
        if ridge > 0.0:
            H = H + ridge * np.eye(rank)
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, score, rcond=None)[0]

        floor = ll - n * _EPS * (1.0 + abs(ll))
        for _ in range(51):  # the Newton step, then up to 50 halvings
            new_beta = beta + step
            new_eta = Xk @ new_beta
            new_ll = _bernoulli_loglik(new_eta, yv)
            if not new_ll < floor:
                break
            step *= 0.5
        beta, eta = new_beta, new_eta

        if np.max(np.abs(beta), initial=0.0) > separation_bound:
            separated = True
            warnings.warn(
                "complete separation suspected: coefficient norm exceeds "
                f"{separation_bound:g}",
                SeparationWarning,
                stacklevel=2,
            )
            break
        if abs(new_ll - ll) < ll_tol * (1.0 + abs(ll)):
            ll = new_ll
            converged = True
            break
        ll = new_ll
    else:
        iterations = max_iter

    # A likelihood plateau can look like convergence while the MLE is off at
    # infinity; fitted probabilities indistinguishable from 0/1 at observed
    # points give separation away regardless of how the loop exited.
    if not separated:
        prob = scipy.special.expit(eta)
        if prob.min(initial=0.5) < _SEPARATION_PROB or prob.max(initial=0.5) > 1.0 - _SEPARATION_PROB:
            separated = True
            converged = False
            warnings.warn(
                "complete separation suspected: fitted probabilities reach 0 or 1",
                SeparationWarning,
                stacklevel=2,
            )

    if not converged and not separated:
        warnings.warn(
            f"logistic fit did not converge in {max_iter} iterations",
            ConvergenceWarning,
            stacklevel=2,
        )

    coef = np.zeros(p)
    coef[keep] = beta
    return LogisticFit(
        coefficients=coef,
        converged=converged,
        iterations=iterations,
        dropped_columns=dropped,
        separated=separated,
        log_likelihood=_bernoulli_loglik(X[:, keep] @ beta, yv),
        column_names=tuple(column_names or ()),
    )


# ---------------------------------------------------------------------------
# multinomial logistic model
# ---------------------------------------------------------------------------


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


def reference_softmax(eta):
    """Row-wise reference-category softmax: probabilities over (ref, 2..m).

    Column 0 is the reference category with linear predictor 0; ``eta`` holds
    the predictors of categories 2..m.
    """
    full = np.concatenate([np.zeros((eta.shape[0], 1)), eta], axis=1)
    full -= full.max(axis=1, keepdims=True)
    np.exp(full, out=full)
    full /= full.sum(axis=1, keepdims=True)
    return full


def fit_multinomial(
    design,
    category,
    ridge=0.0,
    max_iter=200,
    score_tol=1e-6,
    ll_tol=1e-10,
    column_names=None,
):
    """Multinomial maximum likelihood by Newton's method with step-halving.

    ``category`` takes integer values 1..m with every category observed;
    category 1 is the reference. Convergence: max |score| < score_tol or
    relative log-likelihood change < ll_tol. The likelihood stop matters on
    large samples, where the absolute score threshold sits below the roundoff
    noise floor of a log-likelihood summed over n rows; as in fit_logistic, a
    step is halved only when ll falls by more than that floor, n·eps·(1 + |ll|).

    The information matrix is blockdiag_j(Xᵀ diag(P_j) X) − ZᵀZ, where P_j
    is category j's probability and Z[i, (j, a)] = P[i, j] X[i, a]. It is
    summed over row blocks of about 2 MiB of Z each, bounding its memory.
    """
    X = np.asarray(design, dtype=np.float64)
    cat = np.asarray(category)
    if X.ndim != 2:
        raise ShapeError("design must be 2-dimensional")
    n, p = X.shape
    if n == 0:
        raise EmptyFitError("cannot fit a multinomial model on zero rows")
    if cat.shape != (n,):
        raise ShapeError(f"category has shape {cat.shape}, expected ({n},)")
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

    _, _, piv, rank = _pivoted_qr(X)
    keep = np.sort(piv[:rank])
    dropped = tuple(sorted(int(j) for j in piv[rank:]))
    _warn_dropped(dropped, column_names, "fit_multinomial")
    Xk = X[:, keep]
    k = rank
    q = m - 1

    # indicator matrix for categories 2..m; ``chosen`` flat-indexes its ones
    chosen = np.flatnonzero(cat > 1) * q + cat[cat > 1] - 2
    Y = np.zeros((n, q))
    Y.ravel()[chosen] = 1.0

    def softmax_loglik(eta):  # probabilities of categories 2..m and log-likelihood
        shift = np.maximum(eta.max(axis=1), 0.0)
        P = np.exp(eta - shift[:, None])
        denom = np.exp(-shift) + P.sum(axis=1)
        P /= denom[:, None]
        return P, float(eta.ravel()[chosen].sum() - (shift + np.log(denom)).sum())

    B = np.zeros((q, k))
    P, ll = softmax_loglik(Xk @ B.T)
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        score = ((Y - P).T @ Xk).ravel()  # (q*k,)
        if np.max(np.abs(score), initial=0.0) < score_tol:
            converged = True
            iterations -= 1
            break

        rows = max(1, _INFORMATION_BLOCK_VALUES // (q * k))
        H = np.zeros((q * k, q * k))
        diagonal = np.zeros((q * k, k))
        for start in range(0, n, rows):
            Xb = Xk[start:start + rows]
            Zb = (P[start:start + rows, :, None] * Xb[:, None, :]).reshape(len(Xb), q * k)
            diagonal += Zb.T @ Xb
            H -= Zb.T @ Zb
        H.reshape(q, k, q, k)[range(q), :, range(q), :] += diagonal.reshape(q, k, k)
        if ridge > 0.0:
            H[np.diag_indices_from(H)] += ridge
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, score, rcond=None)[0]

        floor = ll - n * _EPS * (1.0 + abs(ll))
        for _ in range(51):  # the Newton step, then up to 50 halvings
            new_B = B + step.reshape(q, k)
            new_P, new_ll = softmax_loglik(Xk @ new_B.T)
            if not new_ll < floor:
                break
            step *= 0.5
        B, P = new_B, new_P
        if abs(new_ll - ll) < ll_tol * (1.0 + abs(ll)):
            ll = new_ll
            converged = True
            break
        ll = new_ll
    else:
        iterations = max_iter

    if not converged:
        warnings.warn(
            f"multinomial fit did not converge in {max_iter} iterations",
            ConvergenceWarning,
            stacklevel=2,
        )

    coef = np.zeros((q, p))
    coef[:, keep] = B
    return MultinomialFit(
        coefficients=coef,
        converged=converged,
        iterations=iterations,
        m=m,
        dropped_columns=dropped,
        log_likelihood=ll,
        column_names=tuple(column_names or ()),
    )


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

_PROB_LO = np.finfo(np.float64).tiny
_PROB_HI = np.nextafter(1.0, 0.0)


def predict(fit, rows):
    """Predictions on design rows built from the same DesignSpec as the fit.

    Linear fits return X @ beta; logistic fits return probabilities in the
    open interval (0,1); multinomial fits return an (n, m) probability matrix
    whose rows sum to 1 within 1e-12.
    """
    X = np.asarray(rows, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ShapeError("rows must be 1- or 2-dimensional")

    if isinstance(fit, LinearFit):
        if X.shape[1] != fit.coefficients.shape[0]:
            raise ShapeError(
                f"rows have {X.shape[1]} columns, fit expects {fit.coefficients.shape[0]}"
            )
        return X @ fit.coefficients
    if isinstance(fit, LogisticFit):
        if X.shape[1] != fit.coefficients.shape[0]:
            raise ShapeError(
                f"rows have {X.shape[1]} columns, fit expects {fit.coefficients.shape[0]}"
            )
        return np.clip(scipy.special.expit(X @ fit.coefficients), _PROB_LO, _PROB_HI)
    if isinstance(fit, MultinomialFit):
        if X.shape[1] != fit.coefficients.shape[1]:
            raise ShapeError(
                f"rows have {X.shape[1]} columns, fit expects {fit.coefficients.shape[1]}"
            )
        probs = reference_softmax(X @ fit.coefficients.T)
        return np.clip(probs, _PROB_LO, _PROB_HI)
    raise ShapeError(f"unknown fit type {type(fit).__name__}")
