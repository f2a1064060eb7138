"""End-to-end command-line checks: exit codes, output files, reproducibility."""

import csv
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import centereffects as ce
import centereffects.inference as inference_module
from centereffects import cli


TWO_CENTER = {"m": 2, "membership_coeffs": [[0.5, -0.3, 0.1, 0.2]]}


def write_trial_csv(tmp_path, n=400, seed=5, name="trial.csv"):
    scenario = ce.Scenario.from_dict({**TWO_CENTER, "n": n})
    data = ce.generate_dataset(scenario, seed=seed)
    path = tmp_path / name
    ce.save_csv(data, path)
    return str(path)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_report(outdir, name="report.json"):
    with open(outdir / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_writes_report_and_csv(tmp_path, capsys):
    csv_path = write_trial_csv(tmp_path)
    outdir = tmp_path / "out"
    code = cli.main(["analyze", "--input", csv_path, "--output", str(outdir)])
    assert code == 0

    report = read_report(outdir)
    assert report["command"] == "analyze"
    assert report["n"] == 400
    assert report["m"] == 2
    # reloading assigns ids by first appearance, but both labels survive
    assert sorted(report["center_labels"]) == ["1", "2"]
    assert report["arms"] == [0, 1]
    counts = np.asarray(report["cell_counts"])
    assert counts.shape == (2, 2)
    assert counts.sum() == 400

    # default estimators: tau, phi, psi for each of the two centers
    estimates = report["estimates"]
    assert len(estimates) == 6
    for rec in estimates:
        assert set(rec) == {
            "estimand", "estimator", "center", "arms", "value",
            "se", "ci_low", "ci_high", "alpha", "method",
        }
        assert rec["estimand"] == "contrast"
        assert rec["alpha"] == 0.05
        assert rec["method"] == "influence_curve"
        assert rec["arms"] == [1, 0]
        assert rec["ci_low"] < rec["value"] < rec["ci_high"]
        assert rec["se"] > 0.0
    assert sorted({r["estimator"] for r in estimates}) == ["phi", "psi", "tau"]
    assert sorted({r["center"] for r in estimates}) == [1, 2]

    lines = (outdir / "estimates.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: {")
    assert lines[1] == "center,estimator,estimate,se,ci_low,ci_high"
    assert len(lines) == 2 + 6
    first = lines[2].split(",")
    assert first[0] == "1" and first[1] == "tau"
    assert float(first[2]) == estimates[0]["value"]

    out = capsys.readouterr().out
    assert "analyze: 400 rows, 2 centers, contrast arms 1 vs 0" in out
    assert "wrote" in out


def test_analyze_csv_holds_plain_float_text(tmp_path):
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"; a rerun writes
    # the same text, so only a look at the cells shows it
    csv_path = write_trial_csv(tmp_path, n=300, seed=3)
    outdir = tmp_path / "out"
    assert cli.main(["analyze", "--input", csv_path, "--output", str(outdir),
                     "--estimators", "tau,phi,psi,chi,pooled,fe1,fe2"]) == 0
    text = (outdir / "estimates.csv").read_text(encoding="utf-8")
    assert "np." not in text
    rows = list(csv.reader(text.splitlines()[2:]))
    estimates = read_report(outdir)["estimates"]
    assert len(rows) == len(estimates) == 7 * 2
    for row, rec in zip(rows, estimates):
        assert [float(v) for v in row[2:]] == [rec[k] for k in ("value", "se", "ci_low", "ci_high")]


def test_analyze_efficiency_ordering_of_intervals(tmp_path):
    # the outcome depends strongly on x1, so the covariate-using estimators
    # should report visibly narrower intervals than the raw cell contrast
    csv_path = write_trial_csv(tmp_path, n=600, seed=9)
    outdir = tmp_path / "out"
    assert cli.main(["analyze", "--input", csv_path, "--output", str(outdir)]) == 0
    by_key = {
        (r["center"], r["estimator"]): r for r in read_report(outdir)["estimates"]
    }
    for c in (1, 2):
        width = {
            est: by_key[(c, est)]["ci_high"] - by_key[(c, est)]["ci_low"]
            for est in ("tau", "phi", "psi")
        }
        assert width["phi"] < width["tau"]
        assert width["psi"] < width["tau"]


def test_analyze_arm_flip_negates_estimates(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=2)
    out10 = tmp_path / "a"
    out01 = tmp_path / "b"
    args = ["analyze", "--input", csv_path, "--estimators", "tau,phi,psi,pooled"]
    assert cli.main(args + ["--output", str(out10), "--arms", "1,0"]) == 0
    assert cli.main(args + ["--output", str(out01), "--arms", "0,1"]) == 0
    rec10 = {(r["center"], r["estimator"]): r for r in read_report(out10)["estimates"]}
    rec01 = {(r["center"], r["estimator"]): r for r in read_report(out01)["estimates"]}
    assert set(rec10) == set(rec01)
    for key, r in rec10.items():
        assert rec01[key]["value"] == -r["value"]
        assert rec01[key]["se"] == r["se"]


def test_analyze_comparators_repeat_across_centers(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=7)
    outdir = tmp_path / "out"
    code = cli.main([
        "analyze", "--input", csv_path, "--output", str(outdir),
        "--estimators", "pooled,fe1,fe2",
    ])
    assert code == 0
    estimates = read_report(outdir)["estimates"]
    assert len(estimates) == 6
    for est in ("pooled", "fe1", "fe2"):
        rows = [r for r in estimates if r["estimator"] == est]
        assert [r["center"] for r in rows] == [1, 2]
        assert rows[0]["value"] == rows[1]["value"]
        assert rows[0]["se"] == rows[1]["se"]
        assert rows[0]["method"] == "ols"  # homoskedastic, not an influence-curve SE


def test_analyze_comparator_requires_binary_contrast(tmp_path, capsys):
    csv_path = write_trial_csv(tmp_path, n=200, seed=3)
    code = cli.main([
        "analyze", "--input", csv_path, "--output", str(tmp_path / "o"),
        "--estimators", "pooled", "--arms", "1,1",
    ])
    assert code == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert payload["exit_code"] == 1


def test_analyze_custom_schema_from_config(tmp_path):
    raw = tmp_path / "renamed.csv"
    raw.write_text(
        "site,treat,y,x1\n"
        "s1,0,1.0,0.2\n" "s1,1,2.5,-0.1\n" "s1,0,0.5,1.0\n" "s1,1,3.0,0.3\n"
        "s2,0,1.5,0.0\n" "s2,1,2.0,0.9\n" "s2,0,0.0,-0.4\n" "s2,1,4.0,0.1\n",
        encoding="utf-8",
    )
    cfg = write_config(tmp_path, {
        "input": str(raw),
        "schema": {"center_col": "site", "arm_col": "treat", "outcome_col": "y"},
        "estimators": ["tau"],
    })
    outdir = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--output", str(outdir)]) == 0
    report = read_report(outdir)
    assert report["n"] == 8
    assert report["center_labels"] == ["s1", "s2"]
    assert len(report["estimates"]) == 2


def test_analyze_nonbinary_arms_need_explicit_contrast(tmp_path, capsys):
    rng = np.random.default_rng(0)
    data = ce.from_arrays(
        rng.normal(size=(12, 1)),
        np.ones(12, dtype=int),
        np.tile([1, 2], 6),
        rng.normal(size=12),
    )
    path = tmp_path / "arms12.csv"
    ce.save_csv(data, path)
    code = cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 1
    assert stderr_payload(capsys)["error"] == "ConfigError"

    code = cli.main([
        "analyze", "--input", str(path), "--output", str(tmp_path / "o2"),
        "--arms", "2,1", "--estimators", "tau",
    ])
    assert code == 0
    rec = read_report(tmp_path / "o2")["estimates"][0]
    assert rec["arms"] == [2, 1]


def test_analyze_runs_the_estimators_that_need_no_rows_in_an_empty_cell(tmp_path, capsys):
    # center "3" has no arm-1 rows: psi, chi and the comparators need none
    # there; tau and phi name the empty cell by the center's label, not by its
    # position (8: centers are numbered as they first appear), and an arm the
    # data lack is named
    data = ce.generate_dataset(ce.Scenario(), seed=7)
    keep = ~((data.center == 3) & (data.arm == 1))
    path = tmp_path / "hole.csv"
    ce.save_csv(ce.from_arrays(data.covariates[keep], data.center[keep], data.arm[keep],
                               data.outcome[keep]), path)
    out = tmp_path / "o"
    assert cli.main(["analyze", "--input", str(path), "--output", str(out),
                     "--estimators", "psi,chi,pooled,fe1,fe2"]) == 0
    report = read_report(out)
    c = report["center_labels"].index("3") + 1
    assert c == 8
    got = {rec["estimator"]: rec["value"] for rec in report["estimates"] if rec["center"] == c}
    assert got["psi"] == pytest.approx(-46.54, abs=0.005)
    assert got["chi"] == pytest.approx(-46.00, abs=0.005)
    for estimator in ("tau", "phi"):
        assert cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / estimator),
                         "--estimators", f"psi,{estimator}"]) == 2
        payload = stderr_payload(capsys)
        assert (payload["error"], payload["message"]) == ("PositivityError",
                                                         "empty cell: center 3, arm 1")
    assert cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / "a"),
                     "--arms", "1,7"]) == 1
    assert "arm 7 not present in data" in stderr_payload(capsys)["message"]


def test_analyze_nuisance_overrides_echoed(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=4)
    cfg = write_config(tmp_path, {
        "input": csv_path,
        "estimators": ["phi"],
        "nuisance": {"phi": {
            "outcome_spec": ["1", "x1"],
            "treatment_spec": {"known": {"constant": 0.5}},
        }},
    })
    outdir = tmp_path / "out"
    assert cli.main(["analyze", "--config", cfg, "--output", str(outdir)]) == 0
    echo = read_report(outdir)["config"]
    phi = echo["nuisance"]["phi"]
    assert phi["outcome_spec"] == ["1", "x1"]
    assert phi["treatment_spec"]["known"]["arms"] == [0, 1]
    assert np.allclose(phi["treatment_spec"]["known"]["table"], 0.5)
    # untouched estimators keep their defaults in the echo
    assert "psi" in echo["nuisance"] and "chi" in echo["nuisance"]


def test_analyze_nuisance_block_keeps_defaults_for_fields_it_leaves_out(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=4)
    cfg = write_config(tmp_path, {
        "input": csv_path, "estimators": ["psi"],
        "nuisance": {"psi": {"outcome_spec": ["1", "x1"]}},
    })
    out1 = tmp_path / "run1"
    assert cli.main(["analyze", "--config", cfg, "--output", str(out1)]) == 0
    echo = read_report(out1)["config"]
    assert echo["nuisance"]["psi"] == {
        "outcome_spec": ["1", "x1"], "treatment_spec": ["1"],
        "membership_spec": ["1", "x1", "x2", "x3"],
    }
    assert echo["nuisance"]["phi"] == {
        "outcome_spec": ["1", "x1", "x2", "x3", "C"], "treatment_spec": ["1"],
    }

    rerun_cfg = write_config(tmp_path, echo, name="echo.json")
    out2 = tmp_path / "run2"
    assert cli.main(["analyze", "--config", rerun_cfg, "--output", str(out2)]) == 0
    for name in ("report.json", "estimates.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("estimator, field, spec", [
    ("psi", "membership_spec", ["1", "x1", "C"]),
    ("chi", "outcome_spec", ["1", "x1:C"]),
])
def test_analyze_center_terms_in_pooled_models_exit_1(tmp_path, capsys, estimator, field, spec):
    csv_path = write_trial_csv(tmp_path, n=200, seed=4)
    cfg = write_config(tmp_path, {
        "input": csv_path,
        "estimators": [estimator],
        "nuisance": {estimator: {
            "outcome_spec": ["1", "x1"], "treatment_spec": ["1"],
            "membership_spec": ["1", "x1"], field: spec,
        }},
    })
    assert cli.main(["analyze", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "SpecError"
    assert "center terms" in payload["message"]


def test_analyze_unknown_nuisance_estimator(tmp_path, capsys):
    csv_path = write_trial_csv(tmp_path, n=200, seed=4)
    cfg = write_config(tmp_path, {"input": csv_path, "nuisance": {"eta": {}}})
    assert cli.main(["analyze", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert stderr_payload(capsys)["error"] == "ConfigError"


# ---------------------------------------------------------------------------
# configuration plumbing and exit codes
# ---------------------------------------------------------------------------


def test_flags_override_config_file(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=6)
    cfg = write_config(tmp_path, {
        "input": csv_path, "alpha": 0.2, "estimators": ["tau", "phi"],
    })
    outdir = tmp_path / "out"
    code = cli.main([
        "analyze", "--config", cfg, "--output", str(outdir),
        "--alpha", "0.05", "--estimators", "tau",
    ])
    assert code == 0
    report = read_report(outdir)
    assert report["config"]["alpha"] == 0.05
    assert report["config"]["estimators"] == ["tau"]
    assert {r["estimator"] for r in report["estimates"]} == {"tau"}


def test_missing_input_is_usage_error(tmp_path, capsys):
    assert cli.main(["analyze", "--output", str(tmp_path)]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "UsageError"
    assert "input" in payload["message"]


def test_unreadable_input_is_data_error(tmp_path, capsys):
    code = cli.main([
        "analyze", "--input", str(tmp_path / "absent.csv"), "--output", str(tmp_path),
    ])
    assert code == 2
    assert stderr_payload(capsys)["error"] == "DataError"


def test_input_not_utf8_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"center,arm,outcome,x1\n1,0,1.5,2\n2,1,\xe9,2\n")
    code = cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"] == f"{path}: data row 2 is not valid UTF-8"


def test_arm_beyond_int64_is_parse_error(tmp_path, capsys):
    path = tmp_path / "big_arm.csv"
    path.write_text("center,arm,outcome,x1\n1,0,1.5,2\n2,99999999999999999999,1,2\n",
                    encoding="utf-8")
    code = cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"] == ("arm value '99999999999999999999' is not a 64-bit "
                                  "integer in column 'arm', data row 2")


def test_input_field_over_size_limit_is_parse_error(tmp_path, capsys):
    path = tmp_path / "wide.csv"
    big = "1" * (csv.field_size_limit() + 1)
    path.write_text(f"center,arm,outcome,x1\n1,0,1.5,2\n2,1,{big},2\n", encoding="utf-8")
    code = cli.main(["analyze", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "ParseError"
    assert payload["message"].startswith(f"{path}: data row 2 cannot be read: field larger")


def test_usage_errors_exit_1(capsys):
    assert cli.main([]) == 1
    assert stderr_payload(capsys)["error"] == "UsageError"
    assert cli.main(["frobnicate"]) == 1
    assert stderr_payload(capsys)["error"] == "UsageError"
    assert cli.main(["analyze", "--bogus"]) == 1
    assert stderr_payload(capsys)["error"] == "UsageError"
    assert cli.main(["analyze", "--arms", "1"]) == 1
    assert cli.main(["analyze", "--arms", "a,b"]) == 1


def test_bad_config_files_exit_1(tmp_path, capsys):
    unknown = write_config(tmp_path, {"bogus": 1}, name="u.json")
    assert cli.main(["analyze", "--config", unknown]) == 1
    assert stderr_payload(capsys)["error"] == "ConfigError"

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["analyze", "--config", str(not_object)]) == 1

    invalid = tmp_path / "broken.json"
    invalid.write_text("{nope", encoding="utf-8")
    assert cli.main(["analyze", "--config", str(invalid)]) == 1

    assert cli.main(["analyze", "--config", str(tmp_path / "ghost.json")]) == 1

    pair = write_config(tmp_path, {"arms": [1]}, name="pair.json")
    assert cli.main(["analyze", "--config", pair]) == 1


def test_unknown_estimator_exits_1(tmp_path, capsys):
    csv_path = write_trial_csv(tmp_path, n=200, seed=8)
    code = cli.main([
        "analyze", "--input", csv_path, "--output", str(tmp_path / "o"),
        "--estimators", "tau,bogus",
    ])
    assert code == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "ParameterError"  # a ConfigError: exit 1
    assert "bogus" in payload["message"]


def test_unexpected_failure_exits_3(tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("numerical surprise")

    monkeypatch.setattr(cli, "run_study", boom)
    cfg = write_config(tmp_path, {"scenario": {**TWO_CENTER, "n": 50}})
    code = cli.main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload == {
        "error": "RuntimeError", "message": "numerical surprise", "exit_code": 3,
    }


# ---------------------------------------------------------------------------
# check-assumptions
# ---------------------------------------------------------------------------


def test_check_assumptions_on_duplicated_centers(tmp_path, capsys):
    # center 2 is an exact copy of center 1, so every homogeneity statistic
    # collapses to zero and the center terms explain nothing in the F test
    rng = np.random.default_rng(11)
    n1 = 60
    X = rng.normal(size=(n1, 2))
    arm = np.tile([0, 1], n1 // 2)
    y = 2.0 + X[:, 0] - 0.5 * X[:, 1] + 1.5 * arm + rng.normal(size=n1)
    data = ce.from_arrays(
        np.vstack([X, X]),
        np.r_[np.ones(n1, dtype=int), np.full(n1, 2, dtype=int)],
        np.r_[arm, arm],
        np.r_[y, y],
        covariate_names=("x1", "x2"),
    )
    path = tmp_path / "dup.csv"
    ce.save_csv(data, path)

    outdir = tmp_path / "out"
    code = cli.main(["check-assumptions", "--input", str(path), "--output", str(outdir)])
    assert code == 0

    report = read_report(outdir)
    assert report["command"] == "check-assumptions"
    assert report["m"] == 2
    tests = report["tests"]
    assert len(tests) == 4

    ancova = tests[0]
    assert ancova["test"] == "ancova_f"
    assert ancova["estimator"] is None
    assert isinstance(ancova["df"], list) and len(ancova["df"]) == 2
    assert abs(ancova["statistic"]) < 1e-6
    assert ancova["p_value"] > 0.999

    wald = {t["estimator"]: t for t in tests[1:]}
    assert set(wald) == {"tau", "phi", "psi"}
    assert wald["tau"]["statistic"] == 0.0
    assert wald["tau"]["p_value"] == 1.0
    for est in ("phi", "psi"):
        assert wald[est]["test"] == "homogeneity_wald"
        assert wald[est]["df"] == 1
        assert abs(wald[est]["statistic"]) < 1e-6
        assert wald[est]["p_value"] > 0.999

    # the default model specs are echoed so the run is reproducible
    echo = report["config"]
    assert "1" in echo["base_spec"]
    assert set(echo["base_spec"]) < set(echo["extended_spec"])
    out = capsys.readouterr().out
    assert "check-assumptions: 120 rows, 2 centers" in out


def test_check_assumptions_spec_pair_required(tmp_path, capsys):
    csv_path = write_trial_csv(tmp_path, n=200, seed=1)
    cfg = write_config(tmp_path, {"input": csv_path, "base_spec": ["1", "A"]})
    code = cli.main(["check-assumptions", "--config", cfg, "--output", str(tmp_path / "o")])
    assert code == 1
    assert stderr_payload(capsys)["error"] == "ConfigError"


def test_check_assumptions_custom_estimator_list(tmp_path):
    csv_path = write_trial_csv(tmp_path, n=300, seed=12)
    outdir = tmp_path / "out"
    code = cli.main([
        "check-assumptions", "--input", csv_path, "--output", str(outdir),
        "--estimators", "tau",
    ])
    assert code == 0
    tests = read_report(outdir)["tests"]
    assert [t["estimator"] for t in tests] == [None, "tau"]


@pytest.mark.parametrize("m, code, error, message", [
    (2, 1, "ParameterError", "homogeneity test supports tau, phi, psi (got 'chi')"),
    (1, 2, "InsufficientDataError", "homogeneity test needs at least 2 centers"),
], ids=["two-centers", "one-center"])
def test_check_assumptions_checks_estimator_names_with_the_homogeneity_request(
        tmp_path, capsys, m, code, error, message):
    # the library's homogeneity request rules name the estimators; on one
    # center, tau's request fails first
    rng = np.random.default_rng(12)
    data = ce.from_arrays(rng.normal(size=(200, 2)), np.repeat(np.arange(1, m + 1), 200 // m),
                          np.tile([0, 1], 100), rng.normal(size=200))
    path = tmp_path / "trial.csv"
    ce.save_csv(data, path)
    assert cli.main(["check-assumptions", "--input", str(path), "--output", str(tmp_path / "o"),
                     "--estimators", "tau,chi"]) == code
    payload = stderr_payload(capsys)
    assert (payload["error"], payload["message"]) == (error, message)


def test_check_assumptions_outcome_fit_exactly_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(1)
    data = ce.from_arrays(
        rng.normal(size=(300, 2)), np.repeat([1, 2, 3], 100), rng.integers(0, 2, 300),
        np.zeros(300),
    )
    path = tmp_path / "zero.csv"
    ce.save_csv(data, path)
    code = cli.main(["check-assumptions", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 3
    payload = stderr_payload(capsys)
    assert payload["error"] == "TestError"
    assert "fits the outcome exactly" in payload["message"]


def test_check_assumptions_checks_every_request_before_the_ancova(tmp_path, capsys, monkeypatch):
    csv_path = write_trial_csv(tmp_path, n=200, seed=4)
    calls = []
    for name in ("factor_cells", "fit_ols_cells"):
        monkeypatch.setattr(inference_module, name, lambda *a, _name=name, **k: calls.append(_name))
    code = cli.main(["check-assumptions", "--input", csv_path, "--arms", "1,7",
                     "--output", str(tmp_path / "o")])
    assert code == 1
    assert "arm 7 not present in data" in stderr_payload(capsys)["message"]
    assert calls == []


def test_check_assumptions_on_one_center_fails_before_the_ancova(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(2)
    data = ce.from_arrays(rng.normal(size=(40, 2)), np.ones(40, dtype=int), np.tile([0, 1], 20),
                          rng.normal(size=40))
    path = tmp_path / "one.csv"
    ce.save_csv(data, path)
    calls = []
    for name in ("factor_cells", "fit_ols_cells"):
        monkeypatch.setattr(inference_module, name, lambda *a, _name=name, **k: calls.append(_name))
    code = cli.main(["check-assumptions", "--input", str(path), "--output", str(tmp_path / "o")])
    assert code == 2
    assert stderr_payload(capsys)["message"] == "homogeneity test needs at least 2 centers"
    assert calls == []


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                         "VECLIB_MAXIMUM_THREADS")


def src_env(**variables):
    """The environment with ``src`` on PYTHONPATH, no BLAS thread variables, and
    then ``variables``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return {**env, **variables}


IMPORT_GRAPH_SCRIPT = """
import sys
from centereffects import cli
csv_path, outdir, study = sys.argv[1:]
assert cli.main(["analyze", "--input", csv_path, "--output", outdir + "/a",
                 "--estimators", "tau,phi,psi,chi,pooled,fe1,fe2", "--arms", "0,1"]) == 0
assert cli.main(["check-assumptions", "--input", csv_path, "--output", outdir + "/c"]) == 0
assert cli.main(["simulate", "--config", study, "--output", outdir + "/s"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[:2] in
             (["scipy", "stats"], ["scipy", "optimize"], ["scipy", "interpolate"])))
"""


def test_cli_commands_do_not_import_slow_scipy_subpackages(tmp_path):
    # scipy.stats alone took 0.7 s of a 1.1 s `import centereffects.cli`
    csv_path = write_trial_csv(tmp_path, n=300, seed=4)
    study = write_config(tmp_path, {
        "scenario": {**TWO_CENTER, "n": 150}, "replicates": 2, "oracle_n": 10_000,
        "estimators": ["tau", "chi", "pooled"],
    })
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GRAPH_SCRIPT, csv_path, str(tmp_path), study],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


IMPORT_GUARD_SCRIPT = """
import sys
import numpy, scipy.linalg.lapack, scipy.special
def concurrent_modules():
    return {m for m in sys.modules if m.split(".")[0] == "concurrent"}
preloaded = concurrent_modules()  # scipy.special's numpy.testing may import concurrent.futures
from centereffects import cli, simulation
csv_path, outdir = sys.argv[1:]
assert cli.main(["analyze", "--input", csv_path, "--output", outdir + "/a",
                 "--estimators", "tau,phi,psi,chi,pooled,fe1,fe2", "--arms", "0,1"]) == 0
assert cli.main(["check-assumptions", "--input", csv_path, "--output", outdir + "/c"]) == 0
print("concurrent" in vars(simulation), sorted(concurrent_modules() - preloaded))
"""


def test_analyze_and_check_assumptions_do_not_import_concurrent_futures(tmp_path):
    # run_study imports concurrent.futures inside the function, so the other
    # commands' startup never pays for it
    csv_path = write_trial_csv(tmp_path, n=300, seed=4)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD_SCRIPT, csv_path, str(tmp_path)],
        env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False []"


THREAD_POLICY_SCRIPT = """
import os, sys
if sys.argv[1] == "numpy-first":
    import numpy
import centereffects
print(centereffects._ONE_BLAS_THREAD, [os.environ.get(v) for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")])
"""


@pytest.mark.parametrize("order, variables, expected", [
    ("package-first", {}, "True ['1', '1', '1', '1']"),
    ("package-first", {"OPENBLAS_NUM_THREADS": "4"}, "False ['4', '1', '1', '1']"),
    ("package-first", {"VECLIB_MAXIMUM_THREADS": "8"}, "False ['1', '1', '1', '8']"),
    ("numpy-first", {}, "False [None, None, None, None]"),
], ids=["unset", "user-value-kept", "accelerate-value-kept", "numpy-first"])
def test_package_sets_one_blas_thread_before_numpy_loads(order, variables, expected):
    done = subprocess.run([sys.executable, "-c", THREAD_POLICY_SCRIPT, order],
                          env=src_env(**variables), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == expected


#: rows of the thread-invariance input; at 1e4 rows and more, a multithreaded
#: BLAS changed report.json before the package set its thread policy
THREAD_INVARIANCE_ROWS = 20_000


def test_analyze_report_does_not_depend_on_the_thread_variables(tmp_path):
    # without the package's thread policy, the unset shell's multithreaded
    # BLAS moved the last bits of some estimates on this input
    data = ce.generate_dataset(ce.Scenario.strong(n=THREAD_INVARIANCE_ROWS), seed=11)
    csv_path = str(tmp_path / "trial.csv")
    ce.save_csv(data, csv_path)
    reports = []
    for name, variables in [("unset", {}), ("one", dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))]:
        outdir = tmp_path / name
        done = subprocess.run(
            [sys.executable, "-m", "centereffects.cli", "analyze", "--input", csv_path,
             "--output", str(outdir), "--estimators", "tau,phi,psi,chi,pooled,fe1,fe2"],
            env=src_env(**variables), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        reports.append((outdir / "report.json").read_bytes())
    assert reports[0] == reports[1]


TRIAL, STUDY, NUISANCE = "<trial.csv>", "<study.json>", "<nuisance.json>"
#: every nuisance field away from its default in some estimator; psi's known
#: arm probabilities vary across the two centers (the membership mixture)
NUISANCE_OVERRIDES = {
    "phi": {"outcome_spec": ["1", "x1", "C", "x1:C"], "treatment_spec": ["1"]},
    "psi": {"outcome_spec": ["1", "x1"], "membership_spec": ["1", "x1"],
            "treatment_spec": {"known": {"table": [[0.45, 0.55], [0.55, 0.45]]}}},
    "chi": {"outcome_spec": ["1", "x1"], "treatment_spec": ["1"],
            "membership_spec": ["1", "x1", "x2"]},
}


@pytest.mark.parametrize("command, flags, outputs", [
    ("analyze", ["--input", TRIAL, "--estimators", "tau,phi,psi,chi,pooled,fe1,fe2",
                 "--arms", "0,1"], ["report.json", "estimates.csv"]),
    ("analyze", ["--config", NUISANCE], ["report.json", "estimates.csv"]),
    ("check-assumptions", ["--input", TRIAL], ["report.json"]),
    ("simulate", ["--config", STUDY, "--replicates", "2", "--arms", "0,1"],
     ["study_report.json", "study_report.csv", "study_coverage.csv"]),
    ("oracle", ["--config", STUDY, "--seed", "3"], ["report.json"]),
], ids=["analyze", "analyze-nuisance", "check-assumptions", "simulate", "oracle"])
def test_byte_exact_rerun_from_echoed_config(tmp_path, command, flags, outputs):
    inputs = {
        TRIAL: write_trial_csv(tmp_path, n=300, seed=8),
        STUDY: write_config(tmp_path, {
            "scenario": {**TWO_CENTER, "n": 150}, "oracle_n": 10_000,
        }, name="study.json"),
    }
    inputs[NUISANCE] = write_config(tmp_path, {
        "input": inputs[TRIAL], "estimators": ["phi", "psi", "chi"],
        "nuisance": NUISANCE_OVERRIDES,
    }, name="nuisance.json")
    out1 = tmp_path / "run1"
    flags = [inputs.get(flag, flag) for flag in flags]
    assert cli.main([command, *flags, "--output", str(out1)]) == 0

    echoed = read_report(out1, outputs[0])["config"]
    rerun_cfg = write_config(tmp_path, echoed, name="echo.json")
    out2 = tmp_path / "run2"
    assert cli.main([command, "--config", rerun_cfg, "--output", str(out2)]) == 0
    for name in outputs:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# each command with a flag and config keys it does not read (simulate's keys
# are the other commands' settings)
UNREAD = {
    "analyze": (["--seed", "1"], {"seed": 1}),
    "check-assumptions": (["--alpha", "0.1"], {"alpha": 0.1}),
    "simulate": (["--input", "trial.csv"], {
        "nuisance": {"psi": {"outcome_spec": ["1"], "ridge": 5.0}},
        "input": "nonexistent.csv", "base_spec": ["1"],
    }),
    "oracle": (["--replicates", "3"], {"oracle_seed": 1}),
}


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_unread_flags_and_config_keys_exit_1(tmp_path, capsys, command):
    flags, keys = UNREAD[command]
    outdir = tmp_path / "o"
    assert cli.main([command, *flags, "--output", str(outdir)]) == 1
    assert stderr_payload(capsys)["error"] == "UsageError"

    cfg = write_config(tmp_path, {"command": command, **keys})
    assert cli.main([command, "--config", cfg, "--output", str(outdir)]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert all(repr(key) in payload["message"] for key in keys), payload["message"]

    other = next(c for c in cli.COMMANDS if c != command)
    cfg = write_config(tmp_path, {"command": other}, name="other.json")
    assert cli.main([command, "--config", cfg, "--output", str(outdir)]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "ConfigError"
    assert repr(other) in payload["message"]
    assert not outdir.exists()


SIM = {"scenario": {**TWO_CENTER, "n": 150}, "replicates": 2, "oracle_n": 10_000,
       "estimators": ["tau"]}
ORACLE = {"scenario": SIM["scenario"], "oracle_n": 10_000}

# (command, config keys, flags, error class, text the message must hold); the
# analyze and check-assumptions configs also get a valid input file
WRONG_VALUES = [
    # wrong JSON type or shape of a config key or flag: the settings table
    ("analyze", {"arms": [1, "x"]}, [], "ConfigError", "arms"),
    ("simulate", {**SIM, "arms": [1, None]}, [], "ConfigError", "arms"),
    ("analyze", {}, ["--arms", "1,1"], "ConfigError", "arms"),
    ("analyze", {"drop_incomplete_rows": "no"}, [], "ConfigError", "drop_incomplete_rows"),
    ("analyze", {}, ["--estimators", "tau,tau"], "ConfigError", "estimators"),
    ("simulate", SIM, ["--estimators", "tau,tau"], "ConfigError", "estimators"),
    ("analyze", {}, ["--estimators", ""], "ConfigError", "estimators"),
    ("simulate", {**SIM, "workers": 2.7}, [], "ConfigError", "workers"),
    ("simulate", {**SIM, "seed": True}, [], "ConfigError", "seed"),
    ("analyze", {"alpha": "0.1"}, [], "ConfigError", "alpha"),
    ("analyze", {"input": 5}, [], "ConfigError", "input"),
    ("analyze", {"output": 5}, [], "ConfigError", "output"),
    ("oracle", {**ORACLE, "oracle_n": "1e4"}, [], "ConfigError", "oracle_n"),
    ("analyze", {"schema": ["a"]}, [], "ConfigError", "schema"),
    ("check-assumptions", {"base_spec": [1], "extended_spec": ["1"]}, [], "ConfigError",
     "base_spec"),
    ("check-assumptions", {"base_spec": "x1", "extended_spec": ["1", "x1", "C"]}, [],
     "ConfigError", "base_spec"),
    # nested values: the library's own checks
    ("simulate", {**SIM, "scenario": {"n": "x"}}, [], "ParameterError", "scenario n"),
    ("simulate", {**SIM, "scenario": {"membership_coeffs": 3}}, [], "ParameterError",
     "membership_coeffs"),
    # settings that no longer exist, as configs echoed by earlier versions hold them
    ("analyze", {"nuisance": {"psi": {"ridge": 0.0}}}, [], "ConfigError", "ridge"),
    ("analyze", {"nuisance": {"psi": {"weight_floor": 0.0}}}, [], "ConfigError", "weight_floor"),
    ("analyze", {"nuisance": {"chi": {"weight_floor": 0.0}}}, [], "ConfigError",
     "chi has unknown fields ['weight_floor']"),
    ("analyze", {"nuisance": {"psi": {"treatment_decomposition": False}}}, [], "ConfigError",
     "treatment_decomposition"),
    # phi reads no membership model, so its block has no such field
    ("analyze", {"nuisance": {"phi": {"membership_spec": None}}}, [], "ConfigError",
     "nuisance.phi has unknown fields ['membership_spec']"),
    ("oracle", {**ORACLE, "scenario": {**ORACLE["scenario"], "strong_doubles": "x1"}}, [],
     "ParameterError", "strong_doubles"),
    ("analyze", {"nuisance": {"phi": {"treatment_spec": {"known": {}}}}}, [], "ConfigError",
     "treatment_spec"),
    ("analyze", {"nuisance": {"phi": {"treatment_spec": {"known": {"constant": "a"}}}}}, [],
     "SpecError", "constant"),
    # an error inside nuisance.<estimator> names the estimator and the field
    ("analyze", {"nuisance": {"psi": {"outcome_spec": [1]}}}, [], "SpecError",
     "nuisance.psi.outcome_spec"),
    ("analyze", {"nuisance": {"phi": {"treatment_spec": {"known": {"table": [["a", "b"]]}}}}},
     [], "SpecError", "nuisance.phi.treatment_spec"),
    ("analyze", {"nuisance": {"chi": {"membership_spec": "x1"}}}, [], "SpecError",
     "nuisance.chi.membership_spec"),
    ("analyze", {"estimators": ["psi"], "nuisance": {"psi": {"membership_spec": None}}}, [],
     "ConfigError", "nuisance.psi.membership_spec"),
    ("check-assumptions", {"base_spec": ["1", "1:A"], "extended_spec": ["1", "A", "C"]}, [],
     "SpecError", "base_spec: intercept cannot appear in an interaction"),
    # a covariate the data lack, named with its place before anything is fitted
    ("analyze", {"nuisance": {"psi": {"outcome_spec": ["1", "x9"]}}}, [], "SpecError",
     "nuisance.psi.outcome_spec: unknown covariate 'x9'"),
    ("check-assumptions", {"base_spec": ["1", "x9"], "extended_spec": ["1", "x1", "C"]}, [],
     "SpecError", "base_spec: unknown covariate 'x9'"),
    ("analyze", {"schema": {"covariate_cols": 5}}, [], "ConfigError", "covariate_cols"),
    ("analyze", {"schema": {"bogus": 1}}, [], "ConfigError", "bogus"),
    # seeds, draw counts and the interval level out of range
    ("simulate", {**SIM, "seed": -1}, [], "ParameterError", "seed"),
    ("simulate", {**SIM, "oracle_seed": -1}, [], "ParameterError", "oracle_seed"),
    ("simulate", {**SIM, "oracle_n": 0}, [], "ParameterError", "oracle_n"),
    ("oracle", {**ORACLE, "seed": -1}, [], "ParameterError", "seed"),
    ("oracle", {**ORACLE, "oracle_n": 0}, [], "ParameterError", "oracle_n"),
    ("simulate", {**SIM, "alpha": 2}, [], "ParameterError", "alpha"),
]


@pytest.mark.parametrize("command, keys, flags, error, key", WRONG_VALUES,
                         ids=[f"{case[0]}-{case[4]}" for case in WRONG_VALUES])
def test_wrong_config_values_exit_1(tmp_path, capsys, command, keys, flags, error, key):
    if command in ("analyze", "check-assumptions"):
        keys = {"input": write_trial_csv(tmp_path, n=200, seed=4), **keys}
    cfg = write_config(tmp_path, keys)
    outdir = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--output", str(outdir), *flags]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == error
    assert issubclass(getattr(ce, error), ce.ConfigError)
    assert key in payload["message"], payload["message"]
    assert not (outdir / "report.json").exists()
    assert not (outdir / "study_report.json").exists()


@pytest.mark.parametrize("command, keys", [("simulate", SIM), ("oracle", ORACLE)],
                         ids=["simulate", "oracle"])
def test_whole_number_float_oracle_n_reads_as_integer(tmp_path, command, keys):
    runs = []
    for oracle_n in (1e4, 10_000):
        cfg = write_config(tmp_path, {**keys, "oracle_n": oracle_n}, name=f"{oracle_n!r}.json")
        outdir = tmp_path / repr(oracle_n)
        assert cli.main([command, "--config", cfg, "--output", str(outdir)]) == 0
        runs.append({p.name: p.read_bytes() for p in outdir.iterdir()})
    assert runs[0] == runs[1]
    assert not any(b"10000.0" in data for data in runs[0].values())


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_outputs_and_byte_exact_rerun(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "scenario": {**TWO_CENTER, "n": 150},
        "replicates": 25,
        "seed": 3,
        "oracle_n": 150_000,
        "oracle_seed": 1,
        "estimators": ["tau", "phi", "psi", "pooled"],
    })
    out1 = tmp_path / "run1"
    assert cli.main(["simulate", "--config", cfg, "--output", str(out1)]) == 0

    names = ["study_report.json", "study_report.csv"] + [
        f"study_{metric}.csv"
        for metric in ("bias", "mse", "coverage", "avg_se", "avg_ci_width", "empirical_sd")
    ]
    for name in names:
        assert (out1 / name).is_file(), name

    payload = read_report(out1, "study_report.json")
    assert payload["replicates"] == 25
    assert payload["failures"] == 0
    assert len(payload["cells"]) == 2 * 4
    assert payload["config"]["seed"] == 3
    assert payload["config"]["scenario"]["n"] == 150
    assert "workers" not in payload["config"]  # the default is echoed only when given

    bias_lines = (out1 / "study_bias.csv").read_text(encoding="utf-8").splitlines()
    assert bias_lines[1] == "center,tau,phi,psi,pooled"
    assert len(bias_lines) == 2 + 2

    long_lines = (out1 / "study_report.csv").read_text(encoding="utf-8").splitlines()
    assert long_lines[1].startswith("center,estimator,true_value,bias,mse,coverage")
    assert len(long_lines) == 2 + 8

    out = capsys.readouterr().out
    assert "simulate:" in out and "25 replicates" in out

    # feeding the echoed config back reproduces every output byte for byte
    rerun_cfg = write_config(tmp_path, payload["config"], name="echo.json")
    out2 = tmp_path / "run2"
    assert cli.main(["simulate", "--config", rerun_cfg, "--output", str(out2)]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_simulate_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {**TWO_CENTER, "n": 120},
        "replicates": 50,
        "oracle_n": 100_000,
        "estimators": ["tau"],
    })
    outdir = tmp_path / "out"
    code = cli.main([
        "simulate", "--config", cfg, "--output", str(outdir),
        "--replicates", "10", "--seed", "5",
    ])
    assert code == 0
    payload = read_report(outdir, "study_report.json")
    assert payload["replicates"] == 10
    assert payload["config"]["replicates"] == 10
    assert payload["config"]["seed"] == 5


def test_simulate_rejects_bad_scenario(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"n": 100, "volume": 11}})
    assert cli.main(["simulate", "--config", cfg, "--output", str(tmp_path / "o")]) == 1
    assert stderr_payload(capsys)["error"] == "ParameterError"


@pytest.mark.parametrize("workers", [0, -1])
def test_simulate_rejects_nonpositive_workers(tmp_path, capsys, workers):
    cfg = write_config(tmp_path, {"scenario": {**TWO_CENTER, "n": 50}, "workers": workers})
    outdir = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--output", str(outdir)]) == 1
    payload = stderr_payload(capsys)
    assert payload["error"] == "ParameterError"
    assert "workers" in payload["message"]
    assert not (outdir / "study_report.json").exists()


@pytest.mark.parametrize("workers", [1, 2, None])
def test_simulate_oracle_failure_exit_code(tmp_path, capsys, workers):
    # one oracle draw leaves a center without draws
    cfg = write_config(tmp_path, {
        "scenario": {**TWO_CENTER, "n": 300}, "replicates": 200, "oracle_n": 1,
        "estimators": ["tau", "phi"], **({} if workers is None else {"workers": workers}),
    })
    outdir = tmp_path / "o"
    assert cli.main(["simulate", "--config", cfg, "--output", str(outdir)]) == 2
    payload = stderr_payload(capsys)
    assert payload["error"] == "InsufficientDataError"
    assert "no oracle draws" in payload["message"]
    assert not (outdir / "study_report.json").exists()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_report_and_effect_modification_note(tmp_path, capsys):
    flat = write_config(tmp_path, {
        "scenario": {
            **TWO_CENTER, "n": 100,
            "outcome_coeffs": [161, 62, -1, -1, -43, 0],
        },
        "oracle_n": 50_000,
    }, name="flat.json")
    outdir = tmp_path / "flat"
    assert cli.main(["oracle", "--config", flat, "--output", str(outdir)]) == 0
    report = read_report(outdir)
    assert set(report) == {"command", "config", "oracle"}
    assert report["command"] == "oracle"
    oracle = report["oracle"]
    assert oracle["true_ate"] == [-43.0, -43.0]
    assert oracle["mc_se"] == [0.0, 0.0]
    assert oracle["draws"] == 50_000
    assert oracle["method"] == "monte_carlo"
    out = capsys.readouterr().out
    assert "note: no effect modification; all centers share one true effect" in out

    varying = write_config(tmp_path, {
        "scenario": {**TWO_CENTER, "n": 100}, "oracle_n": 50_000,
    }, name="varying.json")
    outdir2 = tmp_path / "varying"
    assert cli.main(["oracle", "--config", varying, "--output", str(outdir2)]) == 0
    values = read_report(outdir2)["oracle"]["true_ate"]
    assert values[0] != values[1]
    assert "note:" not in capsys.readouterr().out
