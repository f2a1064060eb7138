"""Command-line interface: analyze, check-assumptions, simulate, oracle.

Every run merges an optional JSON config file with command-line flags (flags
win), echoes the effective configuration into each output file, and uses only
seeded randomness — re-running any output's embedded config reproduces that
output byte for byte.

Exit codes: 0 success; 1 usage or configuration problem; 2 data or validation
problem; 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .dataset import load_csv, cell_counts, validate_positivity
from .errors import CenterEffectsError, ConfigError, DataError, UsageError
from .estimators import COMPARATORS, KnownProbabilities, MEAN_ESTIMATORS, NuisanceConfig
from .inference import (
    HOMOGENEITY_ESTIMATORS,
    ancova_center_outcome_test,
    default_assumption_specs,
    estimate_effects,
    homogeneity_test,
)
from .nuisance import DesignSpec
from .simulation import (
    DEFAULT_ESTIMATORS,
    Scenario,
    default_nuisance_configs,
    run_study,
    true_center_ates,
)

COMMANDS = ("analyze", "check-assumptions", "simulate", "oracle")


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via our exit-code scheme."""

    def error(self, message):
        raise UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="centereffects",
        description=(
            "Center-specific treatment effects from multicenter randomized "
            "trial data: estimation, assumption checks, and simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    specs = {
        "analyze": "estimate center-specific treatment effects from a CSV dataset",
        "check-assumptions": "test effect homogeneity and center-outcome association",
        "simulate": "run the replicated simulation study",
        "oracle": "compute true scenario effects per center",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--output", metavar="DIR", help="output directory (default .)")
        for key, (kind, metavar, flag_help) in _FLAGS.items():
            if key in _COMMAND_KEYS[name]:
                p.add_argument(f"--{key}", type=kind, metavar=metavar, help=flag_help)
    return parser


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

#: the config keys each command reads; a config file may also hold "command"
#: (naming the same command) and "output"
_DATA_KEYS = ("input", "schema", "drop_incomplete_rows", "estimators", "arms", "nuisance")
_COMMAND_KEYS = {
    "analyze": _DATA_KEYS + ("alpha",),
    "check-assumptions": _DATA_KEYS + ("base_spec", "extended_spec"),
    "simulate": (
        "scenario", "replicates", "seed", "alpha", "estimators", "arms", "oracle_n",
        "oracle_seed", "workers",
    ),
    "oracle": ("scenario", "oracle_n", "seed"),
}


def _parse_arms(text):
    parts = [p.strip() for p in str(text).split(",")]
    if len(parts) != 2:
        raise UsageError(f"--arms expects two comma-separated arms, got {text!r}")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError:
        raise UsageError(f"arms must be integers, got {text!r}") from None


def _parse_list(text):
    return [e.strip() for e in text.split(",") if e.strip()]


#: keys that a flag can also set: (parser, metavar, help); a command has the
#: flag only when it reads the key
_FLAGS = {
    "input": (str, "PATH", "input dataset CSV"),
    "seed": (int, "N", "random seed"),
    "replicates": (int, "N", "simulation replicates"),
    "alpha": (float, "F", "interval level (default 0.05)"),
    "estimators": (_parse_list, "LIST", "comma-separated estimator names"),
    "arms": (_parse_arms, "A,A2", "contrast arms, e.g. 1,0"),
}


def _load_config_file(path, command):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    if cfg.get("command", command) != command:
        raise ConfigError(f"config file is for command {cfg['command']!r}, not {command!r}")
    unread = set(cfg) - set(_COMMAND_KEYS[command]) - {"command", "output"}
    if unread:
        raise ConfigError(f"{command} does not read config keys {sorted(unread)}")
    return cfg


def _merge_config(args):
    """Effective config: file values overridden by explicit flags."""
    cfg = _load_config_file(args.config, args.command) if args.config else {}
    cfg["command"] = args.command
    for key in _FLAGS:
        if getattr(args, key, None) is not None:
            cfg[key] = getattr(args, key)
    output = args.output if args.output is not None else cfg.pop("output", ".")
    return cfg, Path(output)


def _spec_to_json(spec):
    return spec.to_strings() if spec is not None else None


def _treatment_to_json(ts):
    if ts is None:
        return None
    if isinstance(ts, KnownProbabilities):
        return {"known": {"table": ts.table.tolist(), "arms": list(ts.arms)}}
    return ts.to_strings()


def _nuisance_to_json(cfg):
    return {
        "outcome_spec": _spec_to_json(cfg.outcome_spec),
        "treatment_spec": _treatment_to_json(cfg.treatment_spec),
        "membership_spec": _spec_to_json(cfg.membership_spec),
        "treatment_decomposition": cfg.treatment_decomposition,
        "weight_floor": cfg.weight_floor,
        "ridge": cfg.ridge,
    }


def _treatment_from_json(value):
    if value is None or isinstance(value, list):
        return value
    if isinstance(value, dict) and "known" in value:
        known = value["known"]
        if "constant" in known:
            return KnownProbabilities.constant(
                known["constant"], arms=tuple(known.get("arms", (0, 1)))
            )
        return KnownProbabilities(
            np.asarray(known["table"], dtype=np.float64),
            arms=tuple(known.get("arms", (0, 1))),
        )
    raise ConfigError(f"unrecognized treatment_spec {value!r}")


def _nuisance_from_json(d):
    if not isinstance(d, dict):
        raise ConfigError("each nuisance entry must be a JSON object")
    allowed = {
        "outcome_spec", "treatment_spec", "membership_spec",
        "treatment_decomposition", "weight_floor", "ridge",
    }
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown nuisance fields: {sorted(unknown)}")
    d = dict(d)
    if "treatment_spec" in d:
        d["treatment_spec"] = _treatment_from_json(d["treatment_spec"])
    return NuisanceConfig(**d)


def _resolve_nuisance_configs(cfg, data):
    configs = default_nuisance_configs(data.covariate_names)
    overrides = cfg.get("nuisance", {})
    if not isinstance(overrides, dict):
        raise ConfigError("nuisance section must map estimator names to settings")
    for name, sub in overrides.items():
        if name not in ("phi", "psi", "chi"):
            raise ConfigError(f"nuisance settings for unknown estimator {name!r}")
        configs[name] = _nuisance_from_json(sub)
    cfg["nuisance"] = {name: _nuisance_to_json(configs[name]) for name in sorted(configs)}
    return configs


def _echo(cfg):
    """The reproducibility block embedded in every output (no output paths)."""
    return {k: cfg[k] for k in sorted(cfg) if k != "output"}


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows, echo):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(echo, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])


def _require_input(cfg):
    path = cfg.get("input")
    if not path:
        raise UsageError("an input dataset is required (--input or config 'input')")
    try:
        return load_csv(path, schema=cfg.get("schema"),
                        drop_incomplete_rows=bool(cfg.get("drop_incomplete_rows", False)))
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}") from None


def _estimator_list(cfg, default, allowed):
    estimators = tuple(cfg.get("estimators", default))
    for est in estimators:
        if est not in allowed:
            raise ConfigError(f"unknown estimator {est!r}; allowed: {sorted(allowed)}")
    cfg["estimators"] = list(estimators)
    return estimators


def _arm_pair(cfg, data=None):
    arms = cfg.get("arms")
    if arms is None:
        arms = [1, 0]
        if data is not None and set(data.arms) != {0, 1}:
            raise ConfigError(
                f"data arms are {data.arms}; choose a contrast with --arms"
            )
    elif not (isinstance(arms, (list, tuple)) and len(arms) == 2):
        raise ConfigError("config arms must be a pair")
    cfg["arms"] = [int(arms[0]), int(arms[1])]
    return cfg["arms"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(cfg, outdir):
    data = _require_input(cfg)
    a, a_prime = _arm_pair(cfg, data)
    alpha = float(cfg.setdefault("alpha", 0.05))
    estimators = _estimator_list(
        cfg, ("tau", "phi", "psi"), MEAN_ESTIMATORS + COMPARATORS
    )
    validate_positivity(data, arms=sorted(set((a, a_prime))))
    configs = _resolve_nuisance_configs(cfg, data)
    if set(estimators) & set(COMPARATORS) and (a, a_prime) not in ((1, 0), (0, 1)):
        raise ConfigError("comparators require the contrast arms to be 0 and 1")

    records = []
    for rec in estimate_effects(data, estimators, (a, a_prime), configs, alpha):
        if rec.center == 0:  # a comparator: one number for every center
            records.extend(
                dataclasses.replace(rec, center=c) for c in range(1, data.m + 1)
            )
        else:
            records.append(rec)

    echo = _echo(cfg)
    counts = cell_counts(data)
    report = {
        "command": "analyze",
        "config": echo,
        "n": data.n,
        "m": data.m,
        "center_labels": [str(lab) for lab in data.center_labels],
        "arms": list(counts.arms),
        "cell_counts": counts.counts.tolist(),
        "estimates": [rec.to_dict() for rec in records],
    }
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)
    _write_csv(
        outdir / "estimates.csv",
        ["center", "estimator", "estimate", "se", "ci_low", "ci_high"],
        [[r.center, r.estimator, r.value, r.se, r.ci_low, r.ci_high] for r in records],
        echo,
    )

    print(f"analyze: {data.n} rows, {data.m} centers, contrast arms {a} vs {a_prime}")
    print(f"{'center':>6} {'estimator':>10} {'estimate':>12} {'se':>10} "
          f"{'ci_low':>12} {'ci_high':>12}")
    for r in records:
        print(f"{r.center:>6} {r.estimator:>10} {r.value:>12.4f} {r.se:>10.4f} "
              f"{r.ci_low:>12.4f} {r.ci_high:>12.4f}")
    print(f"wrote {outdir / 'report.json'} and {outdir / 'estimates.csv'}")
    return 0


def cmd_check_assumptions(cfg, outdir):
    data = _require_input(cfg)
    a, a_prime = _arm_pair(cfg, data)
    estimators = _estimator_list(
        cfg, HOMOGENEITY_ESTIMATORS, set(HOMOGENEITY_ESTIMATORS)
    )
    configs = _resolve_nuisance_configs(cfg, data)

    if ("base_spec" in cfg) != ("extended_spec" in cfg):
        raise ConfigError("supply both base_spec and extended_spec or neither")
    if "base_spec" in cfg:
        base = DesignSpec.parse(cfg["base_spec"])
        extended = DesignSpec.parse(cfg["extended_spec"])
    else:
        base, extended = default_assumption_specs(data)
        cfg["base_spec"] = base.to_strings()
        cfg["extended_spec"] = extended.to_strings()

    tests = []
    ancova = ancova_center_outcome_test(data, base, extended)
    entry = ancova.to_dict()
    entry["estimator"] = None
    tests.append(entry)
    fits = {}
    for estimator in estimators:
        result = homogeneity_test(
            data, estimator, a, a_prime, configs.get(estimator), fits
        )
        entry = result.to_dict()
        entry["estimator"] = estimator
        tests.append(entry)

    echo = _echo(cfg)
    report = {
        "command": "check-assumptions",
        "config": echo,
        "n": data.n,
        "m": data.m,
        "tests": tests,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)

    print(f"check-assumptions: {data.n} rows, {data.m} centers")
    print(f"{'test':>18} {'estimator':>10} {'statistic':>12} {'df':>10} {'p_value':>10}")
    for t in tests:
        df = t["df"]
        df_text = ",".join(str(v) for v in df) if isinstance(df, list) else str(df)
        est = t["estimator"] or "-"
        print(f"{t['test']:>18} {est:>10} {t['statistic']:>12.4f} {df_text:>10} "
              f"{t['p_value']:>10.4f}")
    print(f"wrote {outdir / 'report.json'}")
    return 0


def _scenario_from_config(cfg):
    block = cfg.get("scenario", {})
    if not isinstance(block, dict):
        raise ConfigError("scenario section must be a JSON object")
    scenario = Scenario.from_dict(block)
    cfg["scenario"] = scenario.to_dict()
    return scenario


_METRIC_TABLES = ("bias", "mse", "coverage", "avg_se", "avg_ci_width", "empirical_sd")


def cmd_simulate(cfg, outdir):
    scenario = _scenario_from_config(cfg)
    replicates = int(cfg.setdefault("replicates", 1000))
    seed = int(cfg.setdefault("seed", 0))
    alpha = float(cfg.setdefault("alpha", 0.05))
    estimators = _estimator_list(
        cfg, DEFAULT_ESTIMATORS, MEAN_ESTIMATORS + COMPARATORS
    )
    a, a_prime = _arm_pair(cfg)
    oracle_n = int(cfg.setdefault("oracle_n", 10_000_000))
    oracle_seed = int(cfg.setdefault("oracle_seed", 0))
    workers = int(cfg.setdefault("workers", 1))

    report = run_study(
        scenario,
        replicates=replicates,
        estimators=estimators,
        master_seed=seed,
        arms=(a, a_prime),
        alpha=alpha,
        oracle_n=oracle_n,
        oracle_seed=oracle_seed,
        workers=workers,
    )

    echo = _echo(cfg)
    payload = report.to_dict()
    payload["config"] = echo
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "study_report.json", payload)

    long_header = [
        "center", "estimator", "true_value", "bias", "mse", "coverage",
        "avg_ci_width", "avg_se", "empirical_sd", "avg_n_c",
    ]
    long_rows = []
    for key in sorted(report.cells):
        cell = report.cells[key]
        long_rows.append([
            cell.center, cell.estimator, cell.true_value, cell.bias, cell.mse,
            cell.coverage, cell.avg_ci_width, cell.avg_se, cell.empirical_sd,
            cell.avg_n_c,
        ])
    _write_csv(outdir / "study_report.csv", long_header, long_rows, echo)
    for metric in _METRIC_TABLES:
        header, rows = report.metric_table(metric)
        _write_csv(outdir / f"study_{metric}.csv", header, rows, echo)

    print(f"simulate: {scenario.strength} scenario, {replicates} replicates, "
          f"seed {seed}, {report.failures} failures")
    header, rows = report.metric_table("bias")
    print("bias (estimate minus true effect):")
    print(" ".join(f"{h:>10}" for h in header))
    for row in rows:
        print(" ".join(f"{v:>10.3f}" if isinstance(v, float) else f"{v:>10}" for v in row))
    print(f"wrote {outdir / 'study_report.json'} and study_*.csv tables")
    return 0


def cmd_oracle(cfg, outdir):
    scenario = _scenario_from_config(cfg)
    oracle_n = int(cfg.setdefault("oracle_n", 10_000_000))
    seed = int(cfg.setdefault("seed", 0))
    zero_interaction = scenario.effective_outcome_coeffs()[5] == 0.0
    oracle = true_center_ates(scenario, oracle_n, seed)

    echo = _echo(cfg)
    report = {"command": "oracle", "config": echo, "oracle": oracle.to_dict()}
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)

    print(f"oracle: {scenario.strength} scenario, {oracle.draws} draws, seed {seed}")
    print(f"{'center':>6} {'true_ate':>12} {'mc_se':>10}")
    for c, (v, s) in enumerate(zip(oracle.values, oracle.mc_se), start=1):
        print(f"{c:>6} {v:>12.5f} {s:>10.5f}")
    if zero_interaction:
        print("note: no effect modification; all centers share one true effect")
    print(f"wrote {outdir / 'report.json'}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_DISPATCH = {
    "analyze": cmd_analyze,
    "check-assumptions": cmd_check_assumptions,
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required (analyze, check-assumptions, "
                             "simulate, oracle)")
        cfg, outdir = _merge_config(args)
        return _DISPATCH[args.command](cfg, outdir)
    except CenterEffectsError as exc:
        payload = {
            "error": type(exc).__name__,
            "message": str(exc),
            "exit_code": exc.exit_code,
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # unexpected numerical failure
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": 3}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
