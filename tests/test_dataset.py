"""Data model and CSV ingestion tests."""
import csv
import math
import warnings

import numpy as np
import pytest

from centereffects import dataset
from centereffects import (
    DataError,
    MissingDataError,
    ParseError,
    PositivityError,
    SchemaError,
    ShapeError,
    EmptyInputError,
    TrialDataset,
    cell_counts,
    from_arrays,
    load_csv,
    save_csv,
    validate_positivity,
)


def tiny_dataset():
    return from_arrays(
        covariates=[[0.0], [1.0], [2.0], [3.0]],
        center=[1, 1, 2, 2],
        arm=[0, 1, 0, 1],
        outcome=[1.0, 2.0, 3.0, 4.0],
    )


def test_basic_properties():
    d = tiny_dataset()
    assert d.n == 4
    assert d.p == 1
    assert d.m == 2
    assert d.arms == (0, 1)
    assert d.covariate_names == ("x1",)
    np.testing.assert_array_equal(d.covariate("x1"), [0.0, 1.0, 2.0, 3.0])


def test_arrays_are_read_only():
    d = tiny_dataset()
    for arr in (d.covariates, d.center, d.arm, d.outcome):
        with pytest.raises(ValueError):
            arr[0] = 9


def test_unknown_covariate_name():
    with pytest.raises(SchemaError):
        tiny_dataset().covariate("nope")


def test_covariate_names_must_be_distinct():
    with pytest.raises(ShapeError, match=r"^covariate_names must be distinct, got \['x1', 'x1'\]$"):
        from_arrays([[0.0, 1.0], [1.0, 2.0]], [1, 1], [0, 1], [1.0, 2.0],
                    covariate_names=["x1", "x1"])


def test_center_ids_must_be_contiguous():
    with pytest.raises(ShapeError):
        TrialDataset(
            covariates=[[0.0], [0.0]],
            covariate_names=("x1",),
            center=[1, 3],
            arm=[0, 1],
            outcome=[0.0, 0.0],
        )
    with pytest.raises(ShapeError):
        TrialDataset(
            covariates=[[0.0]],
            covariate_names=("x1",),
            center=[0],
            arm=[0],
            outcome=[0.0],
        )


def test_row_count_mismatch_rejected():
    with pytest.raises(ShapeError):
        TrialDataset(
            covariates=[[0.0], [0.0]],
            covariate_names=("x1",),
            center=[1, 1],
            arm=[0],
            outcome=[0.0, 0.0],
        )


def test_nan_outcome_rejected():
    with pytest.raises(ShapeError):
        from_arrays([[0.0], [0.0]], [1, 1], [0, 1], [0.0, np.nan])


def test_fractional_center_rejected():
    with pytest.raises(ShapeError):
        TrialDataset(
            covariates=[[0.0], [0.0]],
            covariate_names=("x1",),
            center=[1.5, 1.0],
            arm=[0, 1],
            outcome=[0.0, 0.0],
        )


@pytest.mark.parametrize("values", [np.array(["x"] * 4), np.array([None] * 4)])
def test_non_numeric_arm_or_center_rejected(values):
    with pytest.raises(ShapeError, match="arm must contain integers"):
        from_arrays([[0.0]] * 4, [1, 1, 2, 2], values, [0.0] * 4)
    with pytest.raises(ShapeError, match="center must contain integers"):
        TrialDataset(
            covariates=[[0.0]] * 4,
            covariate_names=("x1",),
            center=values,
            arm=[0, 1, 0, 1],
            outcome=[0.0] * 4,
        )


def test_empty_dataset_rejected():
    with pytest.raises(EmptyInputError):
        TrialDataset(
            covariates=np.empty((0, 1)),
            covariate_names=("x1",),
            center=[],
            arm=[],
            outcome=[],
        )


def test_relabeling_first_appearance_order():
    d = from_arrays(
        covariates=[[0.0]] * 5,
        center=["boston", "ann arbor", "boston", "chicago", "ann arbor"],
        arm=[0, 1, 1, 0, 0],
        outcome=[1.0, 2.0, 3.0, 4.0, 5.0],
    )
    np.testing.assert_array_equal(d.center, [1, 2, 1, 3, 2])
    assert d.center_labels == ("boston", "ann arbor", "chicago")
    assert d.original_label(3) == "chicago"
    with pytest.raises(ShapeError):
        d.original_label(4)


def test_numeric_labels_relabel_by_appearance():
    d = from_arrays([[0.0]] * 3, [30, 10, 30], [0, 1, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(d.center, [1, 2, 1])
    assert d.center_labels == (30, 10)


def test_one_dim_covariates_promoted():
    d = from_arrays([1.0, 2.0], [1, 1], [0, 1], [0.0, 0.0])
    assert d.covariates.shape == (2, 1)


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_default_schema(tmp_path):
    p = write_csv(
        tmp_path / "t.csv",
        "center,arm,outcome,x1,x2\n1,0,10.5,0.1,0.2\n2,1,-3,1.5,2.5\n1,1,4,0,1\n",
    )
    d = load_csv(p)
    assert d.n == 3
    assert d.covariate_names == ("x1", "x2")
    np.testing.assert_array_equal(d.center, [1, 2, 1])
    np.testing.assert_array_equal(d.arm, [0, 1, 1])
    np.testing.assert_allclose(d.outcome, [10.5, -3.0, 4.0])
    np.testing.assert_allclose(d.covariates, [[0.1, 0.2], [1.5, 2.5], [0.0, 1.0]])


def test_load_csv_ignores_byte_order_mark(tmp_path):
    # spreadsheet programs prefix UTF-8 CSV files with a byte-order mark
    text = "center,arm,outcome,x1\nB,0,1.5,0.1\nA,1,-2,0.3\nB,1,4.25,-1\n"
    plain = load_csv(write_csv(tmp_path / "plain.csv", text))
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    bom = load_csv(str(tmp_path / "bom.csv"))
    assert bom.covariate_names == plain.covariate_names
    assert bom.center_labels == plain.center_labels
    for field in ("covariates", "center", "arm", "outcome"):
        assert getattr(bom, field).tobytes() == getattr(plain, field).tobytes()


def test_load_csv_custom_schema(tmp_path):
    p = write_csv(
        tmp_path / "t.csv",
        "site,y,treat,age,ignored\nA,1.0,0,40,foo\nB,2.0,1,50,bar\n",
    )
    d = load_csv(
        p,
        schema={
            "center_col": "site",
            "arm_col": "treat",
            "outcome_col": "y",
            "covariate_cols": ["age"],
        },
    )
    assert d.covariate_names == ("age",)
    assert d.center_labels == ("A", "B")
    np.testing.assert_allclose(d.covariates[:, 0], [40.0, 50.0])


def test_load_csv_missing_column(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,x1\n1,0,0.5\n")
    with pytest.raises(SchemaError):
        load_csv(p)


def test_load_csv_duplicate_header(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1,x1\n1,0,1,2,3\n")
    with pytest.raises(SchemaError):
        load_csv(p)


def test_load_csv_role_column_reused_as_covariate(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0,1,2\n")
    with pytest.raises(SchemaError):
        load_csv(p, schema={"covariate_cols": ["arm", "x1"]})


def test_load_csv_covariate_listed_twice(tmp_path, monkeypatch):
    # refused from the header: the malformed data row is never read
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1,x2\n1,0,1,2\n")
    monkeypatch.setattr(dataset, "_read_clean", None)
    monkeypatch.setattr(dataset, "_parse_block", None)
    with pytest.raises(SchemaError, match="^covariate column 'x1' listed more than once$"):
        load_csv(p, schema={"covariate_cols": ["x1", "x2", "x1"]})


def test_load_csv_covariate_cols_string_is_only_rest(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0,1,2\n")
    assert load_csv(p, schema={"covariate_cols": "rest"}).covariate_names == ("x1",)
    with pytest.raises(SchemaError, match="'rest'"):
        load_csv(p, schema={"covariate_cols": "all remaining"})


def test_load_csv_missing_cell(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0,1.0,NA\n1,1,2.0,0.5\n")
    with pytest.raises(MissingDataError):
        load_csv(p)
    d = load_csv(p, drop_incomplete_rows=True)
    assert d.n == 1
    np.testing.assert_allclose(d.covariates, [[0.5]])


@pytest.mark.parametrize("token", ["", "na", "NaN", "NULL", "."])
def test_missing_tokens(tmp_path, token):
    p = write_csv(
        tmp_path / "t.csv",
        f"center,arm,outcome,x1\n1,0,{token},0.5\n1,1,2.0,0.5\n",
    )
    with pytest.raises(MissingDataError):
        load_csv(p)


def test_load_csv_non_numeric_outcome(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0,abc,0.5\n")
    with pytest.raises(ParseError, match="outcome"):
        load_csv(p)


def test_load_csv_non_integer_arm(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0.5,1.0,0.5\n")
    with pytest.raises(ParseError, match="arm"):
        load_csv(p)


@pytest.mark.parametrize("arm", ["99999999999999999999", "-9223372036854775809"])
def test_load_csv_arm_beyond_int64_names_row_and_column(tmp_path, arm):
    p = write_csv(tmp_path / "t.csv", f"center,treat,outcome,x1\n1,0,1.0,0.5\n2,{arm},1.0,0.5\n")
    with pytest.raises(ParseError) as err:
        load_csv(p, schema={"arm_col": "treat"})
    assert str(err.value) == (f"arm value {arm!r} is not a 64-bit integer in column 'treat', "
                              "data row 2")
    # the int64 limits themselves load
    p = write_csv(tmp_path / "u.csv", "center,arm,outcome,x1\n1,9223372036854775807,1.0,0.5\n"
                                      "2,-9223372036854775808,1.0,0.5\n")
    assert load_csv(p).arms == (-(2 ** 63), 2 ** 63 - 1)


@pytest.mark.parametrize("arm", [
    [0, 99999999999999999999],
    [0, -(2 ** 63) - 1],
    np.array([0, 2 ** 63], dtype=np.uint64),
    np.array([0.0, 1e20]),
    np.array([0.0, 2.0 ** 63]),
])
def test_arm_beyond_int64_is_shape_error(arm):
    with pytest.raises(ShapeError, match="arm must contain 64-bit integers only"):
        from_arrays([[0.0], [1.0]], [1, 1], arm, [0.0, 1.0])
    # -2**63 is the smallest int64 and converts exactly
    d = from_arrays([[0.0], [1.0]], [1, 1], np.array([0.0, -2.0 ** 63]), [0.0, 1.0])
    assert d.arms == (-(2 ** 63), 0)


def test_load_csv_ragged_row(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n1,0,1.0\n")
    with pytest.raises(ParseError, match="fields"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = write_csv(tmp_path / "t.csv", "")
    with pytest.raises(EmptyInputError):
        load_csv(p)


def test_load_csv_header_only(tmp_path):
    p = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1\n")
    with pytest.raises(EmptyInputError):
        load_csv(p)


def test_save_load_roundtrip_bit_exact(tmp_path):
    # brute force over random datasets: save -> load must reproduce exactly
    rng = np.random.default_rng(42)
    for rep in range(25):
        n = int(rng.integers(4, 40))
        m = int(rng.integers(1, 4))
        centers = np.concatenate([np.arange(1, m + 1), rng.integers(1, m + 1, size=n - m)])
        d = from_arrays(
            covariates=rng.standard_normal((n, 2)),
            center=centers,
            arm=rng.integers(0, 2, size=n),
            outcome=rng.standard_normal(n) * 100,
        )
        path = tmp_path / f"r{rep}.csv"
        save_csv(d, str(path))
        back = load_csv(str(path))
        np.testing.assert_array_equal(back.covariates, d.covariates)
        np.testing.assert_array_equal(back.center, d.center)
        np.testing.assert_array_equal(back.arm, d.arm)
        np.testing.assert_array_equal(back.outcome, d.outcome)
        assert back.center_labels == d.center_labels
        assert back.covariate_names == d.covariate_names


# ---------------------------------------------------------------------------
# load_csv against a row-by-row reference scanner
# ---------------------------------------------------------------------------


def reference_scan(path, drop_incomplete_rows=False):
    """Read a default-schema CSV one row and one cell at a time.

    load_csv parses a column at a time; on every file it must return the same
    dataset as this scan or raise the same error with the same message.
    """
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        names = ["center", "arm", "outcome"] + [h for h in header if h not in
                                                 ("center", "arm", "outcome")]
        used = [header.index(name) for name in names]
        labels, arms, floats = [], [], []
        for row_no, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ParseError(
                    f"data row {row_no} has {len(row)} fields, expected {len(header)}"
                )
            cells = [row[j].strip() for j in used]
            missing = [n for n, cell in zip(names, cells)
                       if cell.lower() in dataset.MISSING_TOKENS]
            if missing:
                if drop_incomplete_rows:
                    continue
                raise MissingDataError(
                    f"missing value in column {missing[0]!r}, data row {row_no} "
                    "(set drop_incomplete_rows to delete such rows)"
                )
            try:
                label = int(cells[0])
            except ValueError:
                label = cells[0]
            try:
                arm = int(cells[1])
            except ValueError:
                raise ParseError(
                    f"arm value {cells[1]!r} is not an integer in column 'arm', "
                    f"data row {row_no}"
                ) from None
            values = []
            for name, cell in zip(names[2:], cells[2:]):
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric value {cell!r} in column {name!r}, data row {row_no}"
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite value {cell!r} in column {name!r}, data row {row_no}"
                    )
                values.append(value)
            labels.append(label)
            arms.append(arm)
            floats.append(values)
    if not labels:
        raise EmptyInputError(f"{path}: no data rows")
    first_seen = {}
    ids = [first_seen.setdefault(lab, len(first_seen) + 1) for lab in labels]
    floats = np.asarray(floats, dtype=np.float64)
    return TrialDataset(
        covariates=floats[:, 1:].copy(),
        covariate_names=tuple(names[3:]),
        center=np.asarray(ids, dtype=np.int64),
        arm=np.asarray(arms, dtype=np.int64),
        outcome=floats[:, 0].copy(),
        center_labels=tuple(first_seen),
    )


def scan_result(reader, path, drop_incomplete_rows):
    """Everything a reader returns, bit for bit, or its error type and message."""
    try:
        d = reader(path, drop_incomplete_rows=drop_incomplete_rows)
    except DataError as exc:
        return type(exc), str(exc)
    arrays = [getattr(d, f) for f in ("covariates", "center", "arm", "outcome")]
    return ([(a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in arrays],
            [(type(lab), lab) for lab in d.center_labels], d.covariate_names)


def assert_same_as_reference(path, block_rows, monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_ROWS", block_rows)
    for drop in (False, True):
        assert scan_result(load_csv, path, drop) == scan_result(reference_scan, path, drop)


FLOAT_CELLS = ["1_0", " 2.5 ", "+.5", "nan", "NaN ", "inf", "-inf", "1e400", "NA", ".", "",
               "\u0663.5", '"1,5"', "-nan", "null", "abc", "1e-320", "\u00a02.0\u2003",
               "0x10", "infinity", "1__0"]
ARM_CELLS = ["0", "1", " 1 ", "01", "0.5", "NA", "", "\u0661", '"1,0"', "+1", "1_0", "nan"]
CENTER_CELLS = ["1", "01", " A", "A", "A ", "NA", "", '"B, C"', "\u0662", "nan", "2", "."]
GOOD = {"center": ["1", "2", "A"], "arm": ["0", "1"], "float": ["0.25", "-3", "1e3"]}


def random_csv(rng, path, rows):
    """A default-schema CSV whose cells are mostly valid and sometimes adversarial."""
    def pick(good, bad):
        pool = bad if rng.random() < 0.15 else good
        return pool[rng.integers(len(pool))]

    lines = ["center,arm,outcome,x1,x2"]
    for _ in range(rows):
        cells = [pick(GOOD["center"], CENTER_CELLS), pick(GOOD["arm"], ARM_CELLS)]
        cells += [pick(GOOD["float"], FLOAT_CELLS) for _ in range(3)]
        shape = rng.random()
        if shape < 0.03:
            cells = cells[:-1]
        elif shape < 0.05:
            cells = []  # a blank line
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 1 << 16])
def test_load_csv_matches_row_scanner_on_adversarial_cells(tmp_path, monkeypatch, block_rows):
    rng = np.random.default_rng(2024)
    for rep in range(150):
        path = random_csv(rng, tmp_path / f"r{rep}.csv", rows=int(rng.integers(1, 10)))
        assert_same_as_reference(path, block_rows, monkeypatch)


@pytest.mark.parametrize("rows, expected", [
    # errors in two columns of one row: missing cells come first, then column order
    (["1,0.5,abc,1,2"], "arm value '0.5'"),
    (["1,x,NA,1,2"], "missing value in column 'outcome'"),
    (["1,0,abc,inf,2"], "non-numeric value 'abc' in column 'outcome'"),
    (["1,0,1,inf,zz"], "non-finite value 'inf' in column 'x1'"),
    # errors in different rows: the first row wins
    (["1,0,1,2,3", "1,0,1,2,oops", "1,1.5,1,2,3"], "data row 2"),
    (["1,0,1,2,3", "1,1,1,2,3", "1,0,1,2", "1,0,1,2,x"], "data row 3 has 4 fields"),
    (["1,0,1,2,3", "1,0,1,2,x", "1,0,1,2"], "non-numeric value 'x' in column 'x2', data row 2"),
])
def test_load_csv_first_error_matches_row_scanner(tmp_path, monkeypatch, rows, expected):
    path = write_csv(tmp_path / "t.csv", "center,arm,outcome,x1,x2\n" + "\n".join(rows) + "\n")
    for block_rows in (1, 2, 1 << 16):
        assert_same_as_reference(path, block_rows, monkeypatch)
    with pytest.raises(DataError, match=expected):
        load_csv(path)


def test_load_csv_flagged_row_past_first_block(tmp_path, monkeypatch):
    n = dataset._BLOCK_ROWS + 50
    rng = np.random.default_rng(7)
    body = [f"{c},{a},{y!r},{x!r}" for c, a, y, x in zip(
        rng.integers(1, 4, n), rng.integers(0, 2, n), rng.standard_normal(n).tolist(),
        rng.standard_normal(n).tolist())]
    for bad in ("NA", "1e400"):
        rows = list(body)
        row = dataset._BLOCK_ROWS + 17  # 1-based data row in the second block
        rows[row - 1] = rows[row - 1].rsplit(",", 1)[0] + "," + bad
        path = write_csv(tmp_path / f"{bad}.csv", "center,arm,outcome,x1\n" + "\n".join(rows))
        assert_same_as_reference(path, dataset._BLOCK_ROWS, monkeypatch)
        with pytest.raises(DataError, match=f"data row {row}"):
            load_csv(path)
    assert load_csv(str(tmp_path / "NA.csv"), drop_incomplete_rows=True).n == n - 1


def test_float_and_strip_agree_on_unicode_whitespace(tmp_path, monkeypatch):
    # the column parser calls float() on unstripped cells; the row scanner strips first
    spaces = [chr(i) for i in range(0x3000 + 1) if chr(i).isspace() and chr(i) not in "\n\r"]
    rows = [f"1,0,{s}2.5{s},1" for s in spaces] + [f"1,1,1,{s}7{s}" for s in spaces]
    path = tmp_path / "spaces.csv"
    path.write_text("center,arm,outcome,x1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    assert_same_as_reference(str(path), 1 << 16, monkeypatch)
    assert load_csv(str(path)).n == len(rows)


# ---------------------------------------------------------------------------
# load_csv's np.loadtxt blocks against the row scanner
# ---------------------------------------------------------------------------


def count_block_parses(monkeypatch):
    """The first data row of each block load_csv hands to the block parser,
    which reads a file from the first block np.loadtxt cannot vouch for on."""
    calls, parse = [], dataset._parse_block
    monkeypatch.setattr(dataset, "_parse_block",
                        lambda *args: calls.append(args[1]) or parse(*args))
    return calls


def clean_lines(rows=40):
    """Header and data lines of a file with integer center labels and no defect."""
    rng = np.random.default_rng(3)
    floats = (rng.standard_normal((3, rows)) * 100).tolist()
    return ["center,arm,outcome,x1,x2"] + [
        f"{c},{a},{y!r},{x1!r},{x2!r}" for c, a, y, x1, x2 in
        zip(rng.integers(1, 5, rows).tolist(), rng.integers(0, 2, rows).tolist(), *floats)]


def test_clean_integer_labelled_file_takes_loadtxt_only(tmp_path, monkeypatch):
    calls = count_block_parses(monkeypatch)
    path = write_csv(tmp_path / "clean.csv", "\n".join(clean_lines()) + "\n")
    for block_rows in (7, 40, dataset._BLOCK_ROWS):
        assert_same_as_reference(path, block_rows, monkeypatch)
    assert (calls == []) == dataset._LOADTXT_READS_INTS


@pytest.mark.skipif(not dataset._LOADTXT_READS_INTS, reason="this numpy gets no loadtxt read")
def test_block_parser_takes_over_at_the_first_block_loadtxt_refuses(tmp_path, monkeypatch):
    lines = clean_lines()
    lines[20] = lines[20].rsplit(",", 1)[0] + ",NA"
    path = write_csv(tmp_path / "late.csv", "\n".join(lines) + "\n")
    calls = count_block_parses(monkeypatch)
    assert_same_as_reference(path, 8, monkeypatch)
    # data rows 1-16 went through loadtxt; the missing cell in row 20 raises or is dropped
    assert calls == [17] + [17, 25, 33, 41]


@pytest.mark.skipif(not dataset._LOADTXT_READS_INTS, reason="this numpy gets no loadtxt read")
def test_loadtxt_refuses_an_integer_cell_written_as_a_float():
    # what the numpy gate relies on: no float is read into an int64 column
    for cell in ("1.0", "1e0", "1."):
        with pytest.raises(ValueError):
            np.loadtxt([cell], np.int64, delimiter=",", comments=None, quotechar=None)


def test_numpy_without_that_refusal_reads_every_file_with_the_block_parser(tmp_path,
                                                                           monkeypatch):
    monkeypatch.setattr(dataset, "_LOADTXT_READS_INTS", False)
    calls = count_block_parses(monkeypatch)
    path = write_csv(tmp_path / "clean.csv", "\n".join(clean_lines()) + "\n")
    assert_same_as_reference(path, dataset._BLOCK_ROWS, monkeypatch)
    assert calls == [1, 1]


def test_load_csv_leaves_the_warning_filters_alone(tmp_path, monkeypatch):
    before = list(warnings.filters)
    blank = write_csv(tmp_path / "blank.csv", "center,arm,outcome,x1\n\n\r\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on input that holds no data
        assert_same_as_reference(blank, dataset._BLOCK_ROWS, monkeypatch)
        load_csv(write_csv(tmp_path / "clean.csv", "\n".join(clean_lines()) + "\n"))
    assert warnings.filters == before


def edit_line(row, edit):
    """The clean file's text with data row ``row`` replaced by ``edit(line)``'s lines."""
    return lambda lines: "\n".join(lines[:row] + edit(lines[row]) + lines[row + 1:]) + "\n"


def edit_cell(row, column, cell):
    def edit(line):
        cells = line.split(",")
        cells[column] = cell
        return [",".join(cells)]
    return edit_line(row, edit)


#: name: (clean lines -> file text with one defect, whether np.loadtxt reads it all)
ONE_DEFECT = {
    "blank line": (edit_line(20, lambda line: [line, ""]), False),
    "blank last line": (lambda lines: "\n".join(lines) + "\n\n", False),
    "comment line": (edit_line(20, lambda line: ["#" + line]), False),
    "extra field": (edit_line(20, lambda line: [line + ",1"]), False),
    "missing field": (edit_line(20, lambda line: [line.rsplit(",", 1)[0]]), False),
    "arm 1.0": (edit_cell(20, 1, "1.0"), False),
    "inf": (edit_cell(20, 3, "inf"), False),
    "nan": (edit_cell(20, 2, "nan"), False),
    "1e400": (edit_cell(20, 4, "1e400"), False),
    "underscore digits": (edit_cell(20, 3, "1_0"), False),
    "arabic-indic digit": (edit_cell(20, 2, "\u0661"), False),
    "quoted number": (edit_cell(20, 3, '"2.5"'), False),
    "quoted line break": (edit_cell(20, 4, '"2.5\n"'), False),  # rows 20 and 21 of the file
    "byte-order mark": (lambda lines: "\ufeff" + "\n".join(lines) + "\n", True),
    "CRLF line ends": (lambda lines: "\r\n".join(lines) + "\r\n", True),
    "no trailing newline": (lambda lines: "\n".join(lines), True),
    "center beyond int64": (edit_cell(20, 0, str(2 ** 63)), False),
    "non-ASCII center": (edit_cell(20, 0, "\u01fe"), False),  # loadtxt's int64 reads 462
    "text labels": (lambda lines: "\n".join(
        [lines[0]] + [f"site-{int(line.split(',')[0]):02d}" + line[1:] for line in lines[1:]]
    ) + "\n", False),
}


@pytest.mark.parametrize("defect", list(ONE_DEFECT))
def test_one_defect_reads_as_the_row_scanner_reads_it(tmp_path, monkeypatch, defect):
    make, one_pass = ONE_DEFECT[defect]
    path = tmp_path / "t.csv"
    path.write_bytes(make(clean_lines()).encode("utf-8"))
    calls = count_block_parses(monkeypatch)
    for block_rows in (20, dataset._BLOCK_ROWS):  # data row 20 ends the first of 20
        calls.clear()
        assert_same_as_reference(str(path), block_rows, monkeypatch)
        assert (calls == []) == (one_pass and dataset._LOADTXT_READS_INTS)


#: ASCII cells on which np.loadtxt's tokenizer and number parsers could part
#: from csv.reader, int() and float(): quotes, signs, padding, control bytes
ASCII_CELLS = ['"1"', '"1"2', '""1', '"1" ', ' "1"', '1"2"', '"1""', '"1', "+1", "-0", "01",
               " 1\t", "\x0b1\x1f", "\x1c1", "1e3", "0x1", "1.", ".5", "-.5e-3",
               '"1,5"', "1 2", "#1", "1.0", "nan", "", "NA", "1e400", "1__0"]


def test_loadtxt_pass_matches_row_scanner_on_adversarial_ascii_cells(tmp_path, monkeypatch):
    # integer center labels, so np.loadtxt is tried on every file
    rng = np.random.default_rng(11)
    calls = count_block_parses(monkeypatch)
    one_pass = 0
    for rep in range(300):
        lines = ["center,arm,outcome,x1"]
        for _ in range(int(rng.integers(1, 6))):
            cells = [str(rng.integers(1, 4)), str(rng.integers(0, 2)), "0.5", "-2"]
            for j in np.flatnonzero(rng.random(4) < 0.2):
                cells[j] = ASCII_CELLS[rng.integers(len(ASCII_CELLS))]
            lines.append(",".join(cells))
        path = tmp_path / f"r{rep}.csv"
        ending = ["\n", "\r\n", "\r"][rep % 3]
        path.write_bytes((ending.join(lines) + ending).encode("utf-8"))
        before = len(calls)
        assert_same_as_reference(str(path), dataset._BLOCK_ROWS, monkeypatch)
        one_pass += len(calls) == before
    assert one_pass > 50 if dataset._LOADTXT_READS_INTS else one_pass == 0  # both readers ran


def test_center_labels_one_and_zero_one_are_one_center(tmp_path):
    p = write_csv(tmp_path / "t.csv",
                  "center,arm,outcome,x1\n01,0,1,0\n A,1,2,0\n1,1,3,0\nA,0,4,0\n")
    d = load_csv(p)
    assert d.center_labels == (1, "A")
    np.testing.assert_array_equal(d.center, [1, 2, 1, 2])


def test_undecodable_bytes_name_the_row(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"center,arm,outcome,x1\n1,0,1,2\n1,1,1,2\nZ\xfcrich,0,1,2\n")
    with pytest.raises(ParseError, match=r"latin1\.csv: data row 3 is not valid UTF-8"):
        load_csv(str(path))
    path.write_bytes(b"center,arm,outc\xf6me,x1\n1,0,1,2\n")
    with pytest.raises(ParseError, match="the header is not valid UTF-8"):
        load_csv(str(path))


def test_oversized_field_names_the_row(tmp_path):
    big = "9" * (csv.field_size_limit() + 1)
    p = write_csv(tmp_path / "t.csv", f"center,arm,outcome,x1\n1,0,1,2\n1,0,{big},2\n")
    with pytest.raises(ParseError, match=r"data row 2 cannot be read: field larger"):
        load_csv(p)
    # a field over the limit that parses to a finite number
    p = write_csv(tmp_path / "long.csv", f"center,arm,outcome,x1\n1,0,1,2\n1,0,1.{big},2\n")
    with pytest.raises(ParseError, match=r"data row 2 cannot be read: field larger"):
        load_csv(p)
    # an error in an earlier row of the same block is still reported first
    p = write_csv(tmp_path / "u.csv", f"center,arm,outcome,x1\n1,0,x,2\n1,0,{big},2\n")
    with pytest.raises(ParseError, match="non-numeric value 'x' in column 'outcome', data row 1"):
        load_csv(p)


def test_cell_counts_by_hand():
    d = from_arrays(
        covariates=[[0.0]] * 6,
        center=[1, 1, 1, 2, 2, 2],
        arm=[0, 0, 1, 0, 1, 1],
        outcome=np.arange(6.0),
    )
    table = cell_counts(d)
    np.testing.assert_array_equal(table.counts, [[2, 1], [1, 2]])
    np.testing.assert_array_equal(table.center_sizes, [3, 3])
    assert table.arms == (0, 1)


def test_validate_positivity_names_centers_by_label():
    d = from_arrays([[0.0]] * 4, ["x", "x", "y", "y"], [0, 1, 1, 1], [1.0, 2.0, 3.0, 4.0])
    message = r"^empty treatment cells: \(center y, arm 0\)$"
    with pytest.raises(PositivityError, match=message) as info:
        validate_positivity(d)
    assert list(info.value.cells) == [(2, 0)]


def test_validate_positivity_reports_empty_cells():
    d = from_arrays(
        covariates=[[0.0]] * 3,
        center=[1, 1, 2],
        arm=[0, 1, 0],
        outcome=[1.0, 2.0, 3.0],
    )
    with pytest.raises(PositivityError) as info:
        validate_positivity(d)
    assert list(info.value.cells) == [(2, 1)]
    # requesting only the arm present everywhere passes
    table = validate_positivity(d, arms=(0,))
    np.testing.assert_array_equal(table.counts[:, 0], [1, 1])
