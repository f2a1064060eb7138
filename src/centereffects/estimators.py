"""Center-specific treatment-effect estimators.

Implements four families of estimators of the mean potential outcome in the
population underlying one center of a multicenter randomized trial, plus
their arm contrasts and conventional regression comparators:

* ``tau``  — crude within-cell outcome mean,
* ``phi``  — center-conditional augmented weighting estimator (nuisances may
  use center indicators),
* ``psi``  — pooled doubly robust estimator that borrows information across
  centers via a center-membership model,
* ``chi``  — transport-style estimator that uses outcome data only from the
  *other* centers, reweighted to the target center,
* ``pooled``/``fe1``/``fe2`` — single-number OLS treatment coefficients.

Every tau/phi/psi/chi estimate carries a vector of per-observation influence
contributions whose sample mean is zero (the estimator solves its own
estimating equation); downstream variance estimation consumes that vector,
and ``estimate_effects`` drops it once the SE is attached.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dataset import TrialDataset, _integers, _is_number, cell_counts
from .errors import (
    ComparatorError,
    ConfigError,
    DivisionError,
    InsufficientDataError,
    NoDonorError,
    ParameterError,
    PositivityError,
    SpecError,
)
from .nuisance import (
    _INFORMATION_BLOCK_VALUES,
    CENTER_TOKEN,
    DesignSpec,
    build_design,
    factor_cells,
    fit_logistic,
    fit_multinomial,
    fit_ols,
    leave_one_out_coefficients,
    predict,
)

MEAN_ESTIMATORS = ("tau", "phi", "psi", "chi")
VARIANTS = ("dr", "ipw", "om")
COMPARATORS = ("pooled", "fe1", "fe2")


# ---------------------------------------------------------------------------
# configuration types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnownProbabilities:
    """Arm-assignment probabilities known by design, per center.

    ``table`` has one row per center (or a single row applying to every
    center) and one column per arm, each row summing to 1 with all entries in
    the open interval (0,1).
    """

    table: np.ndarray
    arms: tuple = (0, 1)

    def __post_init__(self):
        try:
            table = np.atleast_2d(np.asarray(self.table))
            arms = tuple(_integers("arms", *self.arms))
        except (TypeError, ValueError, ParameterError):  # ragged rows, or arms not integers
            table = arms = None
        if arms is None or table.dtype.kind not in "iuf":
            raise SpecError(f"known probabilities need numbers and integer arms, got {self!r}")
        table = table.astype(np.float64)
        if table.ndim != 2 or table.shape[1] != len(arms):
            raise SpecError(
                f"probability table must have one column per arm "
                f"(got shape {table.shape} for arms {arms})"
            )
        if not np.all((table > 0.0) & (table < 1.0)):
            raise SpecError("known arm probabilities must lie strictly in (0,1)")
        if not np.allclose(table.sum(axis=1), 1.0, rtol=0.0, atol=1e-9):
            raise SpecError("known arm probabilities must sum to 1 per center")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "arms", arms)

    @classmethod
    def constant(cls, prob_of_arm_one=0.5, arms=(0, 1)):
        """Same two-arm assignment probability in every center."""
        if not _is_number(prob_of_arm_one):
            raise SpecError(f"known constant probability must be a number, got {prob_of_arm_one!r}")
        return cls(np.array([[1.0 - prob_of_arm_one, prob_of_arm_one]]), arms)

    def per_center(self, a, m):
        """Length-m vector of Pr[A=a | C=c], c = 1..m."""
        (a,) = _integers("arm", a)
        if a not in self.arms:
            raise ParameterError(f"arm {a} not covered by known probabilities")
        j = self.arms.index(a)
        if self.table.shape[0] == 1:
            return np.full(m, self.table[0, j])
        if self.table.shape[0] != m:
            raise SpecError(
                f"probability table has {self.table.shape[0]} center rows, data has {m}"
            )
        return self.table[:, j].copy()


def _coerce_spec(value, what, known=False):
    """NuisanceConfig field ``what`` as a DesignSpec (or, when ``known``, known
    probabilities, also in their JSON form ``{"known": {"constant": p} or
    {"table": rows}, optional "arms"}``); every error begins with the field's name."""
    if value is None or isinstance(value, DesignSpec):
        return value
    if known and isinstance(value, KnownProbabilities):
        return value
    if known and isinstance(value, dict):
        given = value.get("known") if len(value) == 1 else None
        if not isinstance(given, dict) or given.keys() - {"arms"} not in ({"constant"}, {"table"}):
            raise ConfigError(f"{what}: must be a term list or {{'known': {{'constant' or "
                              f"'table', optional 'arms'}}}}, got {value!r}")
        arms = given.get("arms", (0, 1))
        try:
            if "constant" in given:
                return KnownProbabilities.constant(given["constant"], arms=arms)
            return KnownProbabilities(given["table"], arms=arms)
        except SpecError as exc:
            raise SpecError(f"{what}: {exc}") from None
    if isinstance(value, (list, tuple)):
        try:
            return DesignSpec(value)
        except SpecError as exc:
            raise SpecError(f"{what}: {exc}") from None
    kinds = "a DesignSpec, known probabilities" if known else "a DesignSpec"
    raise SpecError(f"{what}: must be {kinds} or a term list, got {value!r}")


@dataclass(frozen=True)
class NuisanceConfig:
    """Model specifications for the nuisance functions the estimators need.

    ``treatment_spec`` is a design for the fitted logistic model of Pr[A=1],
    or arm probabilities known by design. Every error a field's value raises
    begins with the field's name. Each field also takes its JSON form, the
    one ``to_dict`` writes.
    """

    outcome_spec: DesignSpec = None
    treatment_spec: object = None  # DesignSpec or KnownProbabilities
    membership_spec: DesignSpec = None

    def __post_init__(self):
        object.__setattr__(self, "outcome_spec", _coerce_spec(self.outcome_spec, "outcome_spec"))
        object.__setattr__(
            self, "treatment_spec", _coerce_spec(self.treatment_spec, "treatment_spec", known=True)
        )
        object.__setattr__(
            self, "membership_spec", _coerce_spec(self.membership_spec, "membership_spec")
        )
        _reject_center_terms(self.membership_spec, "membership_spec: a membership model")

    def to_dict(self):
        """The fields that are set, as JSON: designs as term lists, known
        probabilities as ``{"known": {"table", "arms"}}``."""
        out = {}
        for field, value in vars(self).items():
            if isinstance(value, DesignSpec):
                value = list(value.terms)
            elif isinstance(value, KnownProbabilities):
                value = {"known": {"table": value.table.tolist(), "arms": list(value.arms)}}
            if value is not None:
                out[field] = value
        return out


def _reject_center_terms(spec, what):
    """SpecError when ``spec`` has a center term (``C`` or an interaction with it).

    The membership model predicts C, and the pooled outcome models of psi and
    chi are fit across (or away from) the target center, so none may use
    center indicators.
    """
    if spec is None:
        return
    for term in spec.terms:
        if CENTER_TOKEN in term.split(":"):
            raise SpecError(f"{what} must not contain center terms")


# ---------------------------------------------------------------------------
# estimate record
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimateRecord:
    """One point estimate, its target, and (when available) its influence vector."""

    estimand: str  # "mean" or "contrast"
    estimator: str
    center: int
    arms: tuple
    value: float
    influence: np.ndarray = None
    se: float = None
    ci_low: float = None
    ci_high: float = None
    alpha: float = None
    method: str = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if self.influence is not None:
            inf = np.asarray(self.influence, dtype=np.float64)
            inf.flags.writeable = False
            object.__setattr__(self, "influence", inf)

    def to_dict(self):
        return {
            "estimand": self.estimand,
            "estimator": self.estimator,
            "center": self.center,
            "arms": list(self.arms),
            "value": self.value,
            "se": self.se,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "alpha": self.alpha,
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# fitted nuisance bundle
# ---------------------------------------------------------------------------


class FittedNuisances:
    """Lazily fitted nuisance evaluations for one (data, config) pair.

    All methods return per-observation vectors aligned with the full dataset;
    estimators index into them as needed. Designs and (read-only) predictions
    are memoised in the dataset's fits memo, keyed by what determines them:
    model, design spec value and row subset. So every bundle on one dataset
    shares its fits, and a model that two configurations specify alike is fit
    once. The donor outcome fits share one ``factor_cells`` result per spec
    and arm: each center's rows of that arm are factored once, and one call
    solves the donor pools of every center asked for. Donor pools keep no
    per-row array in the memo.
    """

    def __init__(self, data: TrialDataset, cfg: NuisanceConfig):
        if cfg is None:
            raise ConfigError("nuisance configuration required")
        self.data = data
        self.cfg = cfg
        self._fits = data._fits

    def _rows(self, donor, arm):
        """Rows outside center ``donor`` and in arm ``arm``; None leaves either open."""
        if donor is None and arm is None:
            return slice(None)
        rows = True if donor is None else self.data.center != donor
        return rows if arm is None else rows & (self.data.arm == arm)

    def _design(self, model, spec):
        """``spec``'s design on every row and its column names, memoised."""
        if spec is None:
            raise ConfigError(f"{model} model specification missing")
        if ("design", spec) not in self._fits:
            self._fits["design", spec] = build_design(spec, self.data)
        return self._fits["design", spec]

    def _predicted(self, model, spec, donor=None, arm=None):
        """Every row's prediction from the ``model`` fit of ``spec`` on a row subset.

        ``model`` is "outcome" (OLS of Y), "treatment" (logistic Pr[A=1]) or
        "membership" (multinomial Pr[C=c]). The memo keeps the read-only
        prediction, or a donor pool's fit alone, which chi predicts per block.
        """
        X, names = self._design(model, spec)
        key = (model, spec, donor, arm)
        if key not in self._fits:
            rows = self._rows(donor, arm)
            if model == "outcome":
                fit = fit_ols(X[rows], self.data.outcome[rows], column_names=names)
            elif model == "treatment":
                fit = fit_logistic(
                    X[rows], self.data.arm[rows].astype(np.float64), column_names=names
                )
            else:
                fit = fit_multinomial(X[rows], self.data.center[rows], column_names=names)
            if donor is None:
                fit = predict(fit, X)
                fit.flags.writeable = False
            self._fits[key] = fit
        return self._fits[key] if donor is None else predict(self._fits[key], X)

    def _outcome_cells(self, X, spec, arm):
        """Per-center R factors of the arm-``arm`` rows' outcome fit, memoised."""
        key = ("outcome cells", spec, arm)
        if key not in self._fits:
            rows = self._rows(None, arm)
            self._fits[key] = factor_cells(
                X[rows], self.data.outcome[rows], self.data.center[rows]
            )
        return self._fits[key]

    # -- outcome models -----------------------------------------------------

    def outcome_mean(self, arm):
        """Fitted E[Y | ·, A=arm] for every row, from a within-arm fit."""
        return self._predicted("outcome", self.cfg.outcome_spec, arm=arm)

    def donor_outcome_means(self, centers, arm):
        """(n, k) predictions: column j is the within-arm outcome fit on every
        center but centers[j], evaluated everywhere.

        The k donor pools are solved together from the arm's memoised
        per-center R factors (``leave_one_out_coefficients``); the fitted
        values match fit_ols on each pool's rows up to roundoff. Only the pools
        of ``centers`` are fit, column j does not depend on which other centers
        are asked for, and chi, their one reader, asks per block: no memo.
        """
        spec = self.cfg.outcome_spec
        X, names = self._design("outcome", spec)
        coef = leave_one_out_coefficients(self._outcome_cells(X, spec, arm), centers, names)
        # one product per column: the bits of an (n, p) @ (p, k) product's
        # column change with k
        prediction = np.empty((self.data.n, len(coef)), order="F")
        for j, beta in enumerate(coef):
            np.matmul(X, beta, out=prediction[:, j])
        return prediction

    def donor_outcome_mean(self, c, arm):
        """Within-arm outcome fit on all centers except c, evaluated everywhere."""
        return self.donor_outcome_means([c], arm)[:, 0]

    # -- treatment models ---------------------------------------------------

    def _arm_probability(self, arm, donor=None):
        """Known Pr[A=arm | C], or the logistic model's fit outside center ``donor``."""
        ts = self.cfg.treatment_spec
        if isinstance(ts, KnownProbabilities):
            return ts.per_center(arm, self.data.m)[self.data.center - 1]
        p1 = self._predicted("treatment", ts, donor)
        return p1 if arm == 1 else 1.0 - p1

    def arm_probability(self, arm):
        """Pr[A=arm | X, C] per row: known by design or from the fitted model."""
        return self._arm_probability(arm)

    def marginal_arm_probability(self, arm):
        """Pr[A=arm | X] per row, marginal over centers.

        From the fitted treatment model, or, for known probabilities e_c =
        Pr[A=arm | C=c], the membership mixture Σ_c Pr[C=c | X]·e_c (treatment
        is randomized within each center), which is e_1 itself when every
        center has the same probability.
        """
        ts = self.cfg.treatment_spec
        if not isinstance(ts, KnownProbabilities):
            return self._arm_probability(arm)
        e = ts.per_center(arm, self.data.m)
        if np.all(e == e[0]):
            return np.full(self.data.n, e[0])
        P = self.membership()
        return (P @ e) / P.sum(axis=1)

    def donor_arm_probability(self, c, arm):
        """Pr[A=arm | X] per row from the donor pool (all centers except c)."""
        return self._arm_probability(arm, donor=c)

    # -- membership model ---------------------------------------------------

    def membership(self):
        """(n, m) matrix of fitted Pr[C=c | X]; identically 1 when m = 1."""
        if self.data.m == 1:
            return np.ones((self.data.n, 1))
        return self._predicted("membership", self.cfg.membership_spec)


class FixedNuisances:
    """Nuisance values supplied directly as per-row vectors (no fitting).

    Intended for algebraic checks and worked examples where ĝ, ê, or p̂ are
    pinned to known values. Each mapping is keyed by arm (outcome and arm
    probabilities) or by (center, arm) for donor-pool quantities.
    """

    def __init__(
        self,
        outcome=None,
        arm_probabilities=None,
        marginal_arm_probabilities=None,
        membership=None,
        donor_outcome=None,
        donor_arm_probabilities=None,
    ):
        self._outcome = dict(outcome or {})
        self._arm_prob = dict(arm_probabilities or {})
        self._marginal = dict(marginal_arm_probabilities or {})
        self._membership = membership
        self._donor_outcome = dict(donor_outcome or {})
        self._donor_arm_prob = dict(donor_arm_probabilities or {})

    @staticmethod
    def _get(mapping, key, what):
        if key not in mapping:
            raise ConfigError(f"{what} not supplied for {key}")
        return np.asarray(mapping[key], dtype=np.float64)

    def outcome_mean(self, arm):
        return self._get(self._outcome, arm, "outcome values")

    def arm_probability(self, arm):
        return self._get(self._arm_prob, arm, "arm probabilities")

    def marginal_arm_probability(self, arm):
        if arm in self._marginal:
            return np.asarray(self._marginal[arm], dtype=np.float64)
        return self.arm_probability(arm)

    def membership(self):
        if self._membership is None:
            raise ConfigError("membership probabilities not supplied")
        return np.asarray(self._membership, dtype=np.float64)

    def donor_outcome_means(self, centers, arm):
        return np.column_stack([self.donor_outcome_mean(c, arm) for c in centers])

    def donor_outcome_mean(self, c, arm):
        if (c, arm) in self._donor_outcome:
            return self._get(self._donor_outcome, (c, arm), "donor outcome values")
        return self.outcome_mean(arm)

    def donor_arm_probability(self, c, arm):
        if (c, arm) in self._donor_arm_prob:
            return self._get(self._donor_arm_prob, (c, arm), "donor arm probabilities")
        return self.arm_probability(arm)


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------


def _check_request(data, estimator, centers, arms, cfg, variant):
    """Check a request for ``estimator``'s means in ``centers`` under ``arms``
    (one arm, or two different ones) and return its pass, the one way into the
    kernel: ``_estimates`` of the checked request, called with an optional
    nuisance bundle. A cell error names the first failing (center, arm), center
    by center, by its label; chi's fitted treatment model needs both arms in
    each donor pool. ``cfg``, when given, must specify each model ``_means`` reads."""
    if estimator not in MEAN_ESTIMATORS:
        raise ParameterError(f"unknown estimator {estimator!r}; expected one of {MEAN_ESTIMATORS}")
    if estimator in ("phi", "psi") and variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(arms) not in (1, 2):
        raise ParameterError(f"an estimate needs one arm (mean) or two (contrast), got {arms}")
    centers = _integers("center", *centers)
    arms = tuple(_integers("arm" if len(arms) == 1 else "arms", *arms))
    if len(arms) == 2 and arms[0] == arms[1]:
        raise ParameterError(f"a contrast needs two different arms, got {arms[0]} twice")
    if estimator == "chi" and data.m < 2:
        raise NoDonorError("transport estimator needs at least two centers")
    if estimator in ("psi", "chi") and cfg is not None:
        _reject_center_terms(cfg.outcome_spec, "pooled outcome model")
    fitted = isinstance(getattr(cfg, "treatment_spec", None), DesignSpec)  # not known probabilities
    checked = arms  # chi's fitted donor treatment models need both arms in each pool
    if estimator == "chi" and fitted and len(arms) == 1 and set(data.arms) == {0, 1}:
        checked = arms + tuple({0, 1} - set(arms))  # a contrast has both already
    counts = cell_counts(data, checked).counts
    if estimator == "chi":  # each arm's rows outside each center
        counts = counts.sum(axis=0) - counts
    for c in centers:
        if not 1 <= c <= data.m:
            raise ParameterError(f"center {c} outside 1..{data.m}")
        for a, count in zip(checked, counts[c - 1]):
            if a not in data.arms:
                raise ParameterError(f"arm {a} not present in data (arms: {data.arms})")
            label = data.center_labels[c - 1]
            if count == 0 and estimator == "chi":
                raise PositivityError(f"donor pool of center {label} has no rows in arm {a}")
            if count == 0 and estimator != "psi":
                raise PositivityError(f"empty cell: center {label}, arm {a}", cells=[(c, a)])
    reads = {  # the models _means reads; known arm probabilities are a treatment model
        "outcome": estimator == "chi" or estimator != "tau" and variant != "ipw",
        "treatment": estimator == "chi" or estimator != "tau" and variant != "om",
        "membership": data.m > 1 and (estimator == "chi" or estimator == "psi" and variant != "om"),
    }
    if reads["treatment"] and fitted and set(data.arms) != {0, 1}:
        raise SpecError("fitted treatment models require arms coded {0,1}")
    for model, read in reads.items():
        if read and cfg is not None and getattr(cfg, f"{model}_spec") is None:
            raise ConfigError(f"{model} model specification missing")
    return functools.partial(_estimates, data, estimator, centers, arms, cfg, variant)


def _columns(values):
    """A per-row vector as an (n, 1) column; scalars and matrices pass through."""
    return values[:, None] if np.ndim(values) == 1 else values


# ---------------------------------------------------------------------------
# mean estimators
# ---------------------------------------------------------------------------


def _weights(labels, rows, numerator, denominators):
    """(n, k) F-ordered weights W = numerator / Π denominators on ``rows``, else 0.

    Each denominator is a (values, message) pair; a value ≤ 0 on a weighted
    row raises DivisionError with the message formatted for the first such
    center (by its label in ``labels``), factor and row. Arguments are
    scalars, per-row vectors or F-ordered (n, k) matrices.
    """
    factors = [_columns(values) for values, _ in denominators]
    bad = np.stack(np.broadcast_arrays(*[rows & (f <= 0.0) for f in factors]), axis=-1)
    if bad.any():
        j, i = np.argwhere(bad.any(axis=0))[0]  # first center, then factor
        row = np.flatnonzero(bad[:, j, i])[0]
        raise DivisionError(denominators[i][1].format(c=labels[j], row=row))
    den = factors[0] if len(factors) == 1 else np.multiply(*factors)
    weights = np.zeros((len(rows), len(labels)), order="F")
    return np.divide(numerator, den, out=weights, where=rows)


def _in_centers(data, centers):
    """F-ordered (n, k) mask of the rows in each of ``centers``: numpy runs along rows."""
    return (np.asarray(centers)[:, None] == data.center).T


def _weighted_means(data, centers, ghat, weights=None):
    """Augmented weighting means for ``centers``: values (k,), influence (n, k).

    Column j is center c_j's estimate: term = W ⊙ (Y − ĝ) + 1{C=c_j}·ĝ, or
    term = 1{C=c_j}·ĝ without weights (the om variant); value = Σ term / n_c
    and influence = (n/n_c)·(term − 1{C=c_j}·value). ĝ is a scalar, a per-row
    vector or an (n, k) matrix; ``weights`` (from ``_weights``) is consumed.
    The influence is F-ordered, so each column sum equals the one-center sum
    bit for bit.
    """
    in_center = _in_centers(data, centers)
    n_c = np.count_nonzero(in_center, axis=0)
    ghat = _columns(ghat)
    scratch = np.multiply(in_center, ghat, out=np.empty(in_center.shape, order="F"))
    if weights is None:
        term, scratch = scratch, np.empty_like(scratch)
    else:
        term = weights
        term *= data.outcome[:, None] - ghat
        term += scratch
    values = term.sum(axis=0) / n_c
    term -= np.multiply(in_center, values, out=scratch)
    term *= data.n / n_c
    return values, term


def _tau_means(data, centers, a):
    """Crude cell means for ``centers``, each summed over its own cell only."""
    values = np.empty(len(centers))
    influence = np.zeros((data.n, len(centers)), order="F")
    for j, c in enumerate(centers):
        cell = (data.center == c) & (data.arm == a)
        n_cell = np.count_nonzero(cell)
        y_cell = data.outcome[cell]
        values[j] = y_cell.sum() / n_cell
        influence[cell, j] = (data.n / n_cell) * (y_cell - values[j])
    return values, influence


def _means(data, estimator, centers, a, variant, nuis):
    """Means under arm ``a`` for validated ``centers``: values (k,), influence (n, k).

    ``centers`` is a run of consecutive center ids, so the membership columns
    are a view.
    """
    if estimator == "tau":
        return _tau_means(data, centers, a)
    in_arm = _columns(data.arm == a)
    member = slice(centers[0] - 1, centers[-1])
    labels = data.center_labels[member]
    if estimator == "chi":
        p = nuis.membership()[:, member]
        e = np.array([nuis.donor_arm_probability(c, a) for c in centers]).T
        weights = _weights(labels, ~_in_centers(data, centers) & in_arm, p, [
            (1.0 - p, "membership probability for center {c} is 1 at donor row {row} "
                      "(no overlap)"),
            (e, "donor arm probability is 0 at row {row}"),
        ])
        del e
        ghat = nuis.donor_outcome_means(centers, a)
        return _weighted_means(data, centers, ghat, weights)
    ghat = nuis.outcome_mean(a) if variant != "ipw" else 0.0
    if variant == "om":
        return _weighted_means(data, centers, ghat)
    if estimator == "phi":
        rows, numerator = _in_centers(data, centers) & in_arm, 1.0
        e, what = nuis.arm_probability(a), "arm probability"
    else:
        rows, numerator = in_arm, nuis.membership()[:, member]
        e, what = nuis.marginal_arm_probability(a), "marginal arm probability"
    weights = _weights(labels, rows, numerator, [(e, what + " is 0 at row {row}")])
    return _weighted_means(data, centers, ghat, weights)


def _estimates(data, estimator, centers, arms, cfg, variant, nuisances=None):
    """Mean (one arm) or contrast (two arms) records for the consecutive
    ``centers`` of a request; ``_check_request`` alone calls it.

    One nuisance bundle (``nuisances``, else one fit from ``cfg`` with the
    dataset's fits) serves every center and arm. The centers run in blocks of
    about ``_INFORMATION_BLOCK_VALUES`` (n, k) values, and each block gets one
    pass per arm: a contrast is the first arm's pass minus the second's. A
    column depends only on its own center, so the blocks change no bit.
    """
    if estimator != "tau" and nuisances is None:
        nuisances = FittedNuisances(data, cfg)
    width = max(1, _INFORMATION_BLOCK_VALUES // data.n)
    for start in range(0, len(centers), width):
        block = slice(start, start + width)
        value, inf = _means(data, estimator, centers[block], arms[0], variant, nuisances)
        if len(arms) == 2:
            value_b, inf_b = _means(data, estimator, centers[block], arms[1], variant, nuisances)
            value -= value_b
            inf -= inf_b
            del inf_b
        if start == 0:  # after the first block's lazy fits, not beneath them
            values, influence = np.empty(len(centers)), np.empty((data.n, len(centers)), order="F")
        values[block], influence[:, block] = value, inf
        del inf  # before the next block's temporaries
    if variant != "dr" and estimator in ("phi", "psi"):
        estimator = f"{estimator}_{variant}"
    estimand = "mean" if len(arms) == 1 else "contrast"
    return [
        EstimateRecord(estimand, estimator, c, arms, values[j], influence[:, j])
        for j, c in enumerate(centers)
    ]


def estimate_mean(data, estimator, c, a, cfg=None, variant="dr", nuisances=None):
    """Mean potential outcome under arm a in center c by the named estimator.

    ``variant`` applies to phi and psi only; tau and chi ignore it. Without
    ``nuisances``, the nuisance models are fit from ``cfg``.
    """
    return _check_request(data, estimator, [c], [a], cfg, variant)(nuisances)[0]


def estimate_tau(data, c, a):
    """Crude estimator: mean outcome among center-c participants in arm a."""
    return estimate_mean(data, "tau", c, a)


def estimate_phi(data, c, a, cfg, variant="dr", nuisances=None):
    """Augmented weighting estimator of the center-c mean under arm a.

    Weights 1/ê on the center-c, arm-a rows. ``variant``: "dr" uses both
    nuisances, "ipw" sets the outcome model to zero, "om" keeps only the
    outcome-model term.
    """
    return estimate_mean(data, "phi", c, a, cfg, variant, nuisances)


def estimate_psi(data, c, a, cfg, variant="dr", nuisances=None):
    """Pooled doubly robust estimator of the center-c mean under arm a.

    The outcome model is pooled across centers (no center terms) and weights
    p̂_c / ê on every arm-a row combine the center-membership probability with
    the marginal arm probability, so information is shared across all centers.
    """
    return estimate_mean(data, "psi", c, a, cfg, variant, nuisances)


def estimate_chi(data, c, a, cfg, nuisances=None):
    """Transport-style estimator: outcome information only from other centers.

    Donor-pool (all centers except c) outcome and treatment models are
    reweighted to the covariate distribution of center c via the membership
    odds p̂_c / (1 − p̂_c).
    """
    return estimate_mean(data, "chi", c, a, cfg, nuisances=nuisances)


# ---------------------------------------------------------------------------
# contrasts and comparators
# ---------------------------------------------------------------------------


def estimate_contrast(data, estimator, c, a, a_prime, cfg=None, variant="dr", nuisances=None):
    """Center-specific average treatment effect: mean(c, a) − mean(c, a′)."""
    return _check_request(data, estimator, [c], [a, a_prime], cfg, variant)(nuisances)[0]


def center_contrasts(data, estimator, a, a_prime, cfg=None):
    """Contrast records for centers 1..m, from one all-centers pass per arm.

    Record c equals ``estimate_contrast(data, estimator, c, a, a_prime, cfg)``
    bit for bit: both come from the same computation, and errors name the
    first failing (center, arm) in center-major order.
    """
    return _check_request(data, estimator, range(1, data.m + 1), [a, a_prime], cfg, "dr")()


def estimate_comparators(data, which):
    """OLS treatment-coefficient comparators reporting one number for all centers.

    pooled: Y ~ 1 + A; fe1 adds center indicators; fe2 adds every covariate
    and center indicators. The data must have arms 0 and 1 only, each in at
    least 2 rows; that is checked here, before the fit. The influence field is
    empty; the standard error is the homoskedastic OLS one.
    """
    if which not in COMPARATORS:
        raise ParameterError(f"unknown comparator {which!r}; expected one of {COMPARATORS}")
    if set(data.arms) != {0, 1}:
        raise ComparatorError("comparators require arms coded {0,1}")
    for a in (0, 1):
        if np.count_nonzero(data.arm == a) < 2:
            raise InsufficientDataError(f"comparators need at least 2 rows in arm {a}")
    tokens = ["1", "A"]
    if which == "fe2":
        tokens += list(data.covariate_names)
    if which in ("fe1", "fe2"):
        tokens.append("C")
    X, names = build_design(DesignSpec(tokens), data)
    fit = fit_ols(X, data.outcome, column_names=names)
    arm_col = names.index("A")
    if arm_col in fit.dropped_columns:
        raise ComparatorError("treatment column aliased by other regressors")
    if fit.df_residual <= 0:
        raise ComparatorError("saturated comparator regression: no residual degrees of freedom")
    se = float(np.sqrt(fit.unscaled_variance[arm_col] * fit.rss / fit.df_residual))
    return EstimateRecord(
        "contrast", which, 0, (1, 0), fit.coefficients[arm_col], se=se, method="ols"
    )
