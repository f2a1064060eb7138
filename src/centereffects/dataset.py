"""Trial data model, CSV ingestion, and structural validation.

A trial dataset is n rows of (covariate vector, center id, treatment arm,
outcome). Center ids are canonicalized to 1..m in first-appearance order at
ingestion; the original labels are kept for round-tripping.
"""
from __future__ import annotations

import csv
import logging
import numbers
from dataclasses import dataclass, fields
from itertools import chain, compress, islice
from operator import index, itemgetter

import numpy as np

from .errors import (
    ConfigError,
    EmptyInputError,
    MissingDataError,
    ParameterError,
    ParseError,
    PositivityError,
    SchemaError,
    ShapeError,
)

logger = logging.getLogger(__name__)

#: cell contents treated as missing (case-insensitive, after stripping)
MISSING_TOKENS = frozenset({"", "na", "nan", "null", "."})

DEFAULT_SCHEMA = {
    "center_col": "center",
    "arm_col": "arm",
    "outcome_col": "outcome",
    "covariate_cols": "rest",
}


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _integers(what, *values):
    """``values`` as Python ints; ParameterError naming ``what`` for any that is not an integer."""
    try:  # operator.index is the rule, and a bool is not an integer
        return [index(None if isinstance(v, bool) else v) for v in values]
    except TypeError:
        kind = "an integer" if len(values) == 1 else "integers"
        raise ParameterError(f"{what} must be {kind}, got {', '.join(map(repr, values))}") from None


def _as_float_1d(x, name):
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional")
    if not np.all(np.isfinite(a)):
        raise ShapeError(f"{name} must be finite with no missing values")
    return a


_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _as_int_1d(x, name):
    a = np.asarray(x)
    if a.ndim != 1:
        raise ShapeError(f"{name} must be 1-dimensional")
    outside = ShapeError(f"{name} must contain 64-bit integers only")
    if a.dtype.kind == "f":
        if not np.all(np.isfinite(a)) or not np.all(a == np.round(a)):
            raise ShapeError(f"{name} must contain integers only")
        if np.any((a < -2.0 ** 63) | (a >= 2.0 ** 63)):
            raise outside
    elif a.dtype.kind == "u" and a.max(initial=0) > _INT64_MAX:
        raise outside
    try:
        out = a.astype(np.int64)
    except OverflowError:
        raise outside from None
    except (TypeError, ValueError):
        raise ShapeError(f"{name} must contain integers only") from None
    if a.dtype.kind not in "iuf" and not np.all(np.asarray(out, dtype=a.dtype) == a):
        raise ShapeError(f"{name} must contain integers only")
    return out


@dataclass(frozen=True)
class TrialDataset:
    """Immutable (X, C, A, Y) container with centers relabeled 1..m.

    A dataset keeps the memo of its nuisance fits (see FittedNuisances): each
    key names what determines its value, so every bundle on the dataset
    shares it, and it is freed with the dataset.
    """

    covariates: np.ndarray
    covariate_names: tuple
    center: np.ndarray
    arm: np.ndarray
    outcome: np.ndarray
    #: original center labels; index c-1 holds the label behind canonical id c
    center_labels: tuple = ()

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=np.float64)
        if cov.ndim != 2:
            raise ShapeError("covariates must be a 2-d matrix")
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        object.__setattr__(self, "center", _as_int_1d(self.center, "center"))
        object.__setattr__(self, "arm", _as_int_1d(self.arm, "arm"))
        object.__setattr__(self, "outcome", _as_float_1d(self.outcome, "outcome"))

        n = self.outcome.shape[0]
        if n < 1:
            raise EmptyInputError("dataset has no rows")
        for name, arr in (("covariates", cov), ("center", self.center), ("arm", self.arm)):
            if arr.shape[0] != n:
                raise ShapeError(f"{name} has {arr.shape[0]} rows, expected {n}")
        if cov.shape[1] != len(self.covariate_names):
            raise ShapeError("covariate_names length does not match covariates")
        if len(set(self.covariate_names)) != len(self.covariate_names):
            raise ShapeError(f"covariate_names must be distinct, got {list(self.covariate_names)}")
        if not np.all(np.isfinite(cov)):
            raise ShapeError("covariates must be finite with no missing values")

        m = int(self.center.max(initial=0))
        if self.center.min(initial=1) < 1 or set(np.unique(self.center)) != set(range(1, m + 1)):
            raise ShapeError("center ids must be contiguous integers 1..m")
        if not self.center_labels:
            object.__setattr__(self, "center_labels", tuple(range(1, m + 1)))
        if len(self.center_labels) != m:
            raise ShapeError("center_labels must have one entry per center")

        for arr in (self.covariates, self.center, self.arm, self.outcome):
            arr.setflags(write=False)
        object.__setattr__(self, "_arms", tuple(int(a) for a in np.unique(self.arm)))
        object.__setattr__(self, "_fits", {})

    def __reduce__(self):  # pickles and copies are rebuilt from the fields: no fits
        return TrialDataset, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n(self):
        return self.outcome.shape[0]

    @property
    def p(self):
        return self.covariates.shape[1]

    @property
    def m(self):
        return len(self.center_labels)

    @property
    def arms(self):
        """Observed arms, ascending."""
        return self._arms

    def original_label(self, c):
        """Original input label behind canonical center id ``c``."""
        if not 1 <= c <= self.m:
            raise ShapeError(f"center {c} out of range 1..{self.m}")
        return self.center_labels[c - 1]

    def covariate(self, name):
        """One covariate column by name."""
        try:
            j = self.covariate_names.index(name)
        except ValueError:
            raise SchemaError(f"unknown covariate {name!r}") from None
        return self.covariates[:, j]


@dataclass(frozen=True)
class CellCounts:
    """Per-(center, arm) sample sizes."""

    counts: np.ndarray
    center_sizes: np.ndarray
    arms: tuple

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        sizes = np.asarray(self.center_sizes, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "center_sizes", sizes)
        object.__setattr__(self, "arms", tuple(int(a) for a in self.arms))
        if counts.shape != (sizes.shape[0], len(self.arms)):
            raise ShapeError("counts table shape does not match centers x arms")
        if np.any(counts < 0) or np.any(counts.sum(axis=1) > sizes):
            raise ShapeError("cell counts must be nonnegative with row sums at most n_c")
        counts.setflags(write=False)
        sizes.setflags(write=False)


def relabel_centers(raw_labels):
    """Map raw labels to canonical ids 1..m by first appearance.

    Returns (canonical id array, tuple of original labels in id order).
    """
    lookup = dict.fromkeys(raw_labels)
    for c, lab in enumerate(lookup, start=1):
        lookup[lab] = c
    ids = np.fromiter(map(lookup.__getitem__, raw_labels), np.int64, len(raw_labels))
    return ids, tuple(lookup)


def from_arrays(covariates, center, arm, outcome, covariate_names=None):
    """Build a TrialDataset from raw arrays, canonicalizing center labels."""
    center = np.asarray(center)
    ids, labels = relabel_centers(center.tolist())
    covariates = np.asarray(covariates, dtype=np.float64)
    if covariates.ndim == 1:
        covariates = covariates.reshape(-1, 1)
    if covariate_names is None:
        covariate_names = tuple(f"x{j + 1}" for j in range(covariates.shape[1]))
    return TrialDataset(covariates, covariate_names, ids, arm, outcome, labels)


#: data rows parsed together; bounds the Python strings held at once
_BLOCK_ROWS = 1 << 14


def _int_or_text(cell):
    try:
        return int(cell)
    except ValueError:
        return cell


def _float_or_nan(cell):
    try:
        return float(cell)
    except ValueError:
        return np.nan


def _parse_row(row, row_no, width, used, names, drop_incomplete_rows):
    """One data row checked cell by cell: (center label, arm, floats), or None if dropped.

    Checks the field count, then every used cell for a missing token, then the
    arm and float cells in column order, raising on the first bad one.
    ``used`` and ``names`` list the center, arm, outcome and covariate columns.
    """
    if len(row) != width:
        raise ParseError(f"data row {row_no} has {len(row)} fields, expected {width}")
    cells = [row[j].strip() for j in used]
    missing = [name for name, cell in zip(names, cells) if cell.lower() in MISSING_TOKENS]
    if missing and drop_incomplete_rows:
        return None
    if missing:
        raise MissingDataError(f"missing value in column {missing[0]!r}, data row {row_no} "
                               "(set drop_incomplete_rows to delete such rows)")
    arm = _int_or_text(cells[1])
    if isinstance(arm, str):
        raise ParseError(f"arm value {arm!r} is not an integer in column {names[1]!r}, "
                         f"data row {row_no}")
    if not _INT64_MIN <= arm <= _INT64_MAX:
        raise ParseError(f"arm value {cells[1]!r} is not a 64-bit integer in column "
                         f"{names[1]!r}, data row {row_no}")
    values = []
    for name, cell in zip(names[2:], cells[2:]):
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(f"non-numeric value {cell!r} in column {name!r}, "
                             f"data row {row_no}") from None
        if not np.isfinite(values[-1]):
            raise ParseError(f"non-finite value {cell!r} in column {name!r}, data row {row_no}")
    return _int_or_text(cells[0]), arm, values


def _parse_block(rows, first_row, width, used, names, drop_incomplete_rows):
    """Parse data rows ``first_row``, ``first_row + 1``, ... one column at a time.

    Float columns go through one float() pass each, center and arm columns
    through a dict of their distinct cells. A row is flagged when it has the
    wrong field count, a float cell does not parse or is not finite, its arm
    is not a 64-bit integer or its center is missing. Only flagged rows go
    through ``_parse_row``, in row order, so the errors are those of a
    row-by-row scan. Returns the kept rows' center labels (list), arms and float columns
    (outcome first).
    """
    n, full = len(rows), rows
    if set(map(len, rows)) - {width}:  # a row of empty cells is flagged in its place
        full = [row if len(row) == width else [""] * width for row in rows]
    values = np.empty((n, len(used) - 2))
    for k, j in enumerate(used[2:]):
        try:
            values[:, k] = np.fromiter(map(float, map(itemgetter(j), full)), np.float64, n)
        except ValueError:
            values[:, k] = np.fromiter(map(_float_or_nan, map(itemgetter(j), full)),
                                       np.float64, n)
    flagged = ~np.isfinite(values).all(axis=1)

    center_col, arm_col = (list(map(itemgetter(j), full)) for j in used[:2])
    label_of = {cell: _int_or_text(cell.strip()) for cell in set(center_col)}
    arm_of = {cell: _int_or_text(cell.strip()) for cell in set(arm_col)}
    bad_centers = {cell for cell in label_of if cell.strip().lower() in MISSING_TOKENS}
    bad_arms = {cell for cell, arm in arm_of.items()
                if isinstance(arm, str) or not _INT64_MIN <= arm <= _INT64_MAX}
    arm_of.update(dict.fromkeys(bad_arms, 0))
    for column, bad in ((center_col, bad_centers), (arm_col, bad_arms)):
        if bad:
            flagged |= np.fromiter(map(bad.__contains__, column), bool, n)
    labels = list(map(label_of.__getitem__, center_col))
    arms = np.fromiter(map(arm_of.__getitem__, arm_col), np.int64, n)

    keep = np.ones(n, dtype=bool)
    for i in np.flatnonzero(flagged).tolist():
        parsed = _parse_row(rows[i], first_row + i, width, used, names, drop_incomplete_rows)
        if parsed is None:
            keep[i] = False
        else:
            labels[i], arms[i], values[i] = parsed
    if not keep.all():
        labels = list(compress(labels, keep.tolist()))
        arms, values = arms[keep], values[keep]
    return labels, arms, values


#: numpy before 2.4 may read an integer cell such as "1.0" through float, with a warning
_LOADTXT_READS_INTS = np.lib.NumpyVersion(np.__version__) >= "2.4.0"


def _read_clean(lines, width, used):
    """``lines`` as _parse_block returns them, from one np.loadtxt call; None if it might
    part from the row scanner: no line, a blank first line, a line not ASCII or over the csv
    field limit, loadtxt raises (a quote is no number) or skips a line, a float is not finite."""
    if not (_LOADTXT_READS_INTS and lines and lines[0].strip() and all(map(str.isascii, lines))
            and max(map(len, lines)) <= csv.field_size_limit()):
        return None
    dtype = [(str(j), np.int64 if j in used[:2] else np.float64) for j in range(width)]
    try:
        table = np.loadtxt(lines, dtype, delimiter=",", comments=None, quotechar=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    values = np.column_stack([table[str(j)] for j in used[2:]])
    if len(table) != len(lines) or not np.isfinite(values).all():
        return None
    return table[str(used[0])].tolist(), np.ascontiguousarray(table[str(used[1])]), values


def _raise(exc):  # an iterator that raises exc when asked for its first item
    raise exc
    yield


def _unreadable(path, exc):
    """ParseError for the first row of ``path`` that is not UTF-8 or csv.reader rejects.

    csv.reader rejects a field over csv.field_size_limit(). The file is read
    again with undecodable bytes escaped to find the row; ``exc`` is the
    original error.
    """
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        row_no = 0
        try:
            for row in csv.reader(fh):
                "".join(row).encode("utf-8")  # escaped bytes are lone surrogates
                row_no += 1
        except UnicodeEncodeError:
            problem = "is not valid UTF-8"
        except csv.Error as err:
            problem = f"cannot be read: {err}"
        else:
            return ParseError(f"{path}: cannot be read: {exc}")
    where = f"data row {row_no}" if row_no else "the header"
    return ParseError(f"{path}: {where} {problem}")


def _resolve_schema(header, schema):
    for key, col in (schema or {}).items():
        if key not in DEFAULT_SCHEMA:
            raise ConfigError(f"unknown schema key {key!r}; keys: {sorted(DEFAULT_SCHEMA)}")
        names = col if key == "covariate_cols" and isinstance(col, (list, tuple)) else [col]
        if not all(isinstance(name, str) for name in names):
            raise ConfigError(f"schema {key} must hold column names, got {col!r}")
    merged = dict(DEFAULT_SCHEMA)
    merged.update(schema or {})
    seen = {}
    for idx, name in enumerate(header):
        if name in seen:
            raise SchemaError(f"duplicate column {name!r} in header")
        seen[name] = idx

    special = {}
    for key in ("center_col", "arm_col", "outcome_col"):
        col = merged[key]
        if col not in seen:
            raise SchemaError(f"missing required column {col!r} (schema key {key})")
        special[key] = col

    cov_cols = merged["covariate_cols"]
    if isinstance(cov_cols, str):
        if cov_cols != "rest":
            raise SchemaError(
                "covariate_cols must be an explicit list or the string 'rest'"
            )
        used = set(special.values())
        cov_cols = [c for c in header if c not in used]
    else:
        cov_cols = list(cov_cols)
        for i, col in enumerate(cov_cols):
            if col not in seen:
                raise SchemaError(f"missing covariate column {col!r}")
            if col in cov_cols[:i]:
                raise SchemaError(f"covariate column {col!r} listed more than once")
    if not cov_cols:
        raise SchemaError("schema must name at least one covariate column")
    overlap = set(cov_cols) & set(special.values())
    if overlap:
        raise SchemaError(f"columns {sorted(overlap)} used both as covariate and role")
    return special, cov_cols, seen


def load_csv(path, schema=None, drop_incomplete_rows=False):
    """Load a trial dataset from a UTF-8, comma-separated, headered CSV file.

    A leading byte-order mark (as spreadsheet programs write) is ignored.
    ``schema`` maps roles to column names: keys center_col, arm_col,
    outcome_col, covariate_cols (list of names, or "rest" for all remaining
    columns). Missing cells reject the file unless ``drop_incomplete_rows``.
    Bad cells or rows and undecodable bytes raise a DataError naming the first such
    row. np.loadtxt reads clean blocks of lines, the block parser (which alone raises
    and drops) the rest from the first other block on; the arrays are the same.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise _unreadable(path, exc) from None
        header = [h.strip() for h in header]
        special, cov_cols, positions = _resolve_schema(header, schema)
        names = [special["center_col"], special["arm_col"], special["outcome_col"]] + cov_cols
        used = [positions[name] for name in names]

        labels, arms, values, read, failure = [], [], [], 0, None
        while True:  # one loadtxt call a block, up to the first block it cannot vouch for
            lines = []
            try:  # extend keeps the lines read before a failure
                lines.extend(islice(fh, _BLOCK_ROWS))
            except UnicodeDecodeError as exc:
                failure = exc
            if failure is not None or not (kept := _read_clean(lines, len(header), used)):
                break
            labels += kept[0]
            arms.append(kept[1])
            values.append(kept[2])
            read += len(lines)
        reader = csv.reader(chain(lines, fh if failure is None else _raise(failure)))
        while lines or failure is not None:  # the block parser reads the rest, if any
            rows, failure = [], None
            try:  # extend keeps the rows read before a failure; they may hold an earlier error
                rows.extend(islice(reader, _BLOCK_ROWS))
            except (UnicodeDecodeError, csv.Error) as exc:
                failure = exc
            kept = _parse_block(rows, read + 1, len(header), used, names, drop_incomplete_rows)
            labels += kept[0]
            arms.append(kept[1])
            values.append(kept[2])
            read += len(rows)
            if failure is not None:
                raise _unreadable(path, failure) from None
            if len(rows) < _BLOCK_ROWS:
                break

    if not labels:
        raise EmptyInputError(f"{path}: no data rows")
    if read > len(labels):
        logger.warning("dropped %d incomplete row(s) from %s", read - len(labels), path)

    ids, labels = relabel_centers(labels)
    covariates = np.concatenate([block[:, 1:] for block in values])
    outcome = np.concatenate([block[:, 0] for block in values])
    del values[:]  # the blocks go before the dataset's checks copy and scan the columns
    return TrialDataset(covariates, tuple(cov_cols), ids, np.concatenate(arms), outcome, labels)


def save_csv(data, path, schema=None):
    """Write a dataset back to CSV so that load_csv reproduces it bit-exactly.

    Floats are written with repr round-tripping; centers are written under
    their original labels.
    """
    merged = dict(DEFAULT_SCHEMA)
    merged.update(schema or {})
    header = [merged["center_col"], merged["arm_col"], merged["outcome_col"]]
    header += list(data.covariate_names)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(data.n):
            row = [
                str(data.original_label(int(data.center[i]))),
                str(int(data.arm[i])),
                repr(float(data.outcome[i])),
            ]
            row += [repr(float(v)) for v in data.covariates[i]]
            writer.writerow(row)


def cell_counts(data, arms=None):
    """n_{c,a} table over centers 1..m and the given (default observed) arms."""
    if arms is None:
        arms = data.arms
    counts = np.zeros((data.m, len(arms)), dtype=np.int64)
    for j, a in enumerate(arms):
        in_arm = data.arm == a
        counts[:, j] = np.bincount(data.center[in_arm], minlength=data.m + 1)[1:]
    sizes = np.bincount(data.center, minlength=data.m + 1)[1:]
    return CellCounts(counts=counts, center_sizes=sizes, arms=arms)


def validate_positivity(data, arms=None):
    """Check every (center, arm) cell is nonempty; return the counts table.

    Raises PositivityError listing the empty (center, arm) pairs otherwise,
    each center by its label in the message and by its id in ``cells``.
    """
    table = cell_counts(data, arms=arms)
    empty = [
        (c + 1, table.arms[j])
        for c in range(table.counts.shape[0])
        for j in range(len(table.arms))
        if table.counts[c, j] == 0
    ]
    if empty:
        pairs = ", ".join(f"(center {data.center_labels[c - 1]}, arm {a})" for c, a in empty)
        raise PositivityError(f"empty treatment cells: {pairs}", cells=empty)
    return table
