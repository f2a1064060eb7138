"""Command-line interface: analyze, check-assumptions, simulate, oracle.

Every run merges an optional JSON config file with command-line flags (flags
win), checks each value's type against ``_SETTINGS`` (ConfigError otherwise),
fills in the defaults ``COMMANDS`` gives, echoes the effective configuration
into each output file, and uses only seeded randomness — re-running any
output's embedded config reproduces that output byte for byte.

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

from .dataset import load_csv, cell_counts
from .errors import CenterEffectsError, ConfigError, DataError, SpecError, UsageError
from .estimators import _coerce_spec
from .inference import (
    HOMOGENEITY_ESTIMATORS,
    _homogeneity_request,
    ancova_center_outcome_test,
    default_assumption_specs,
    estimate_effects,
    homogeneity_test,
)
from .nuisance import ARM_TOKEN, CENTER_TOKEN, INTERCEPT_TOKEN, DesignSpec
from .simulation import (
    DEFAULT_ESTIMATORS,
    Scenario,
    default_nuisance_configs,
    run_study,
    true_center_ates,
)


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
    for name, (help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="JSON configuration file")
        p.add_argument("--output", metavar="DIR", help="output directory (default .)")
        for key, (_, *flag) in _SETTINGS.items():
            if flag and key in keys:
                kind, metavar, flag_help = flag
                p.add_argument(f"--{key}", type=kind, metavar=metavar, help=flag_help)
    return parser


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

# A check returns the value as read, or None for a value of the wrong type.
# JSON gives exact Python types, so ``type(v) is int`` turns away booleans.


def _of_type(kind):
    return lambda value: value if type(value) is kind else None


def _integer(value):
    """An integer; a whole-number float such as 1e7 is read as one."""
    if type(value) is float and value.is_integer():
        return int(value)
    return value if type(value) is int else None


def _arm_pair(value):
    pair = [_integer(a) for a in value] if type(value) is list and len(value) == 2 else [None]
    return pair if None not in pair and pair[0] != pair[1] else None


def _strings(value):
    return value if type(value) is list and all(type(v) is str for v in value) else None


def _distinct_names(value):
    return value if _strings(value) and len(set(value)) == len(value) else None


def _parse_arms(text):
    return [int(a) for a in text.split(",")]


def _parse_list(text):
    return [e.strip() for e in text.split(",") if e.strip()]


_STRING = ("a string", _of_type(str))
_INTEGER = ("an integer", _integer)
_NUMBER = ("a number", lambda value: value if type(value) in (int, float) else None)
_OBJECT = ("an object", _of_type(dict))

#: every setting: (what its value must be, its check), then for the keys a
#: flag can also set, the flag's parser, metavar and help
_SETTINGS = {
    "input": (_STRING, str, "PATH", "input dataset CSV"),
    "seed": (_INTEGER, int, "N", "random seed"),
    "replicates": (_INTEGER, int, "N", "simulation replicates"),
    "alpha": (_NUMBER, float, "F", "interval level (default 0.05)"),
    "estimators": (("a non-empty list of distinct names", _distinct_names),
                   _parse_list, "LIST", "comma-separated estimator names"),
    "arms": (("two different integers", _arm_pair), _parse_arms, "A,A2",
             "contrast arms, e.g. 1,0"),
    "output": (_STRING,),
    "schema": (_OBJECT,),
    "drop_incomplete_rows": (("true or false", _of_type(bool)),),
    "nuisance": (_OBJECT,),
    "base_spec": (("a list of terms", _strings),),
    "extended_spec": (("a list of terms", _strings),),
    "scenario": (_OBJECT,),
    "oracle_n": (_INTEGER,),
    "oracle_seed": (_INTEGER,),
    "workers": (_INTEGER,),
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
    other = cfg.pop("command", command)
    if other != command:
        raise ConfigError(f"config file is for command {other!r}, not {command!r}")
    unread = set(cfg) - set(COMMANDS[command][1]) - {"output"}
    if unread:
        raise ConfigError(f"{command} does not read config keys {sorted(unread)}")
    return cfg


def _merge_config(args):
    """Effective config: each file value and flag checked, flags winning, then defaults."""
    given = list(_load_config_file(args.config, args.command).items()) if args.config else []
    given += [(k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None]
    cfg = {}
    for key, value in given:
        (what, check), *_ = _SETTINGS[key]
        cfg[key] = check(value)
        if cfg[key] is None:
            raise ConfigError(f"{key} must be {what}, got {value!r}")
    outdir = Path(cfg.pop("output", "."))
    defaults = {k: v for k, v in COMMANDS[args.command][1].items() if v is not None}
    return {**defaults, **cfg, "command": args.command}, outdir


def _known_covariates(spec, what, data):
    """``spec``, or SpecError naming ``what`` when a term uses a covariate the data lack."""
    allowed = {INTERCEPT_TOKEN, CENTER_TOKEN, ARM_TOKEN, *data.covariate_names}
    for term in spec.terms:
        for atom in term.split(":"):
            if atom not in allowed:
                raise SpecError(f"{what}: unknown covariate {atom!r}; "
                                f"covariates are {list(data.covariate_names)}")
    return spec


def _resolve_nuisance_configs(cfg, data):
    """Each estimator's NuisanceConfig: its default with the fields ``nuisance.<name>``
    gives, whose errors are re-raised with ``nuisance.<name>.`` before the field's name.
    A block may set only the fields its default sets (``to_dict``), each a model, and
    none of them to null."""
    configs = default_nuisance_configs(data.covariate_names)
    for name, sub in cfg.get("nuisance", {}).items():
        if name not in configs:
            raise ConfigError(f"nuisance settings for unknown estimator {name!r}")
        if not isinstance(sub, dict):
            raise ConfigError(f"nuisance.{name} must be a JSON object, got {sub!r}")
        fields = list(configs[name].to_dict())
        unknown = set(sub) - set(fields)
        if unknown:
            raise ConfigError(f"nuisance.{name} has unknown fields {sorted(unknown)}; "
                              f"its fields are {fields}")
        try:
            for field in sub:
                if sub[field] is None:
                    raise ConfigError(f"{field}: {name} needs a model here, got null")
            configs[name] = dataclasses.replace(configs[name], **sub)
            for field in sub:
                spec = getattr(configs[name], field)
                if isinstance(spec, DesignSpec):
                    _known_covariates(spec, field, data)
        except ConfigError as exc:
            raise type(exc)(f"nuisance.{name}.{exc}") from None
    cfg["nuisance"] = {name: configs[name].to_dict() for name in sorted(configs)}
    return configs


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows, cfg):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# config: " + json.dumps(cfg, sort_keys=True) + "\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else repr(v) if isinstance(v, float) else v for v in row])


def _read_input(cfg):
    """The input dataset and the contrast arms, 1 vs 0 by default when the data arms are 0, 1."""
    path = cfg.get("input")
    if not path:
        raise UsageError("an input dataset is required (--input or config 'input')")
    try:
        data = load_csv(path, schema=cfg.get("schema"),
                        drop_incomplete_rows=cfg.get("drop_incomplete_rows", False))
    except OSError as exc:
        raise DataError(f"cannot read input {path}: {exc}") from None
    if "arms" not in cfg:
        if set(data.arms) != {0, 1}:
            raise ConfigError(f"data arms are {data.arms}; choose a contrast with --arms")
        cfg["arms"] = [1, 0]
    return data, cfg["arms"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(cfg, outdir):
    data, (a, a_prime) = _read_input(cfg)
    configs = _resolve_nuisance_configs(cfg, data)

    records = estimate_effects(data, cfg["estimators"], (a, a_prime), configs, cfg["alpha"])

    counts = cell_counts(data)
    report = {
        "command": "analyze",
        "config": cfg,
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
        cfg,
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
    data, (a, a_prime) = _read_input(cfg)
    configs = _resolve_nuisance_configs(cfg, data)

    if ("base_spec" in cfg) != ("extended_spec" in cfg):
        raise ConfigError("supply both base_spec and extended_spec or neither")
    if "base_spec" in cfg:
        base = _known_covariates(_coerce_spec(cfg["base_spec"], "base_spec"), "base_spec", data)
        extended = _known_covariates(_coerce_spec(cfg["extended_spec"], "extended_spec"),
                                     "extended_spec", data)
    else:
        base, extended = default_assumption_specs(data)
        cfg["base_spec"] = list(base.terms)
        cfg["extended_spec"] = list(extended.terms)

    for est in cfg["estimators"]:  # every homogeneity request is checked before the ANCOVA's fits
        _homogeneity_request(data, est, a, a_prime, configs.get(est))
    tests = []
    ancova = ancova_center_outcome_test(data, base, extended)
    entry = ancova.to_dict()
    entry["estimator"] = None
    tests.append(entry)
    for estimator in cfg["estimators"]:
        result = homogeneity_test(data, estimator, a, a_prime, configs.get(estimator))
        entry = result.to_dict()
        entry["estimator"] = estimator
        tests.append(entry)

    report = {
        "command": "check-assumptions",
        "config": cfg,
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
    scenario = Scenario.from_dict(cfg["scenario"])
    cfg["scenario"] = scenario.to_dict()
    return scenario


_METRIC_TABLES = ("bias", "mse", "coverage", "avg_se", "avg_ci_width", "empirical_sd")


def cmd_simulate(cfg, outdir):
    scenario = _scenario_from_config(cfg)
    report = run_study(
        scenario,
        replicates=cfg["replicates"],
        estimators=cfg["estimators"],
        master_seed=cfg["seed"],
        arms=cfg["arms"],
        alpha=cfg["alpha"],
        oracle_n=cfg["oracle_n"],
        oracle_seed=cfg["oracle_seed"],
        workers=cfg.get("workers"),
    )

    payload = report.to_dict()
    payload["config"] = cfg
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
    _write_csv(outdir / "study_report.csv", long_header, long_rows, cfg)
    for metric in _METRIC_TABLES:
        header, rows = report.metric_table(metric)
        _write_csv(outdir / f"study_{metric}.csv", header, rows, cfg)

    print(f"simulate: {scenario.strength} scenario, {cfg['replicates']} replicates, "
          f"seed {cfg['seed']}, {report.failures} failures")
    header, rows = report.metric_table("bias")
    print("bias (estimate minus true effect):")
    print(" ".join(f"{h:>10}" for h in header))
    for row in rows:
        print(" ".join(f"{v:>10.3f}" if isinstance(v, float) else f"{v:>10}" for v in row))
    print(f"wrote {outdir / 'study_report.json'} and study_*.csv tables")
    return 0


def cmd_oracle(cfg, outdir):
    scenario = _scenario_from_config(cfg)
    zero_interaction = scenario.effective_outcome_coeffs()[5] == 0.0
    oracle = true_center_ates(scenario, cfg["oracle_n"], cfg["seed"])

    report = {"command": "oracle", "config": cfg, "oracle": oracle.to_dict()}
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(outdir / "report.json", report)

    print(f"oracle: {scenario.strength} scenario, {oracle.draws} draws, seed {cfg['seed']}")
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

_DATA_KEYS = dict.fromkeys(("input", "schema", "drop_incomplete_rows", "arms", "nuisance"))

#: each command: (help, the config keys it reads with their defaults; None: the
#: command works the value out or leaves it unset). A config file may also hold
#: "command" (naming the same command) and "output". ``main`` looks cmd_<name>
#: up at each call, so that a wrapper installed on that attribute runs.
COMMANDS = {
    "analyze": ("estimate center-specific treatment effects from a CSV dataset", {
        **_DATA_KEYS, "estimators": ["tau", "phi", "psi"], "alpha": 0.05,
    }),
    "check-assumptions": ("test effect homogeneity and center-outcome association", {
        **_DATA_KEYS, "estimators": list(HOMOGENEITY_ESTIMATORS),
        "base_spec": None, "extended_spec": None,
    }),
    "simulate": ("run the replicated simulation study", {
        "scenario": {}, "replicates": 1000, "seed": 0, "alpha": 0.05,
        "estimators": list(DEFAULT_ESTIMATORS), "arms": [1, 0],
        "oracle_n": 10_000_000, "oracle_seed": 0, "workers": None,
    }),
    "oracle": ("compute true scenario effects per center", {
        "scenario": {}, "oracle_n": 10_000_000, "seed": 0,
    }),
}


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError(f"a command is required ({', '.join(COMMANDS)})")
        cfg, outdir = _merge_config(args)
        return globals()["cmd_" + args.command.replace("-", "_")](cfg, outdir)
    except Exception as exc:  # any error but the package's own is an unexpected numerical failure
        code = exc.exit_code if isinstance(exc, CenterEffectsError) else 3
        payload = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
