"""Data model and CSV ingestion tests."""
import numpy as np
import pytest

from centereffects import (
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
