"""Compare the command-line outputs of two checkouts byte for byte.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT CHANGE [--scale tiny|full]

PARENT and CHANGE are checkout roots. The benchmark's inputs, variants 0 and 1
of each workload in ``perfbench/workloads.py`` at the chosen scale (default
full), are written once. Then each checkout's CLI, imported from its own
``src/``, runs every case:

  * ``analyze`` with all seven estimators at arms 1,0 and at 0,1, and
    ``check-assumptions``, on the analyze_large_n and many_centers CSVs;
  * ``analyze`` as above on the same CSVs with text center labels (site-01,
    ...), which ``load_csv`` reads with its block parser rather than
    np.loadtxt, so both readers are compared;
  * ``analyze`` at both arm orders with a ``--config`` that sets
    ``treatment_spec`` to ["1", "x1"] for phi, psi and chi, so the fitted
    logistic treatment models run (on all rows and, for chi, on each donor
    pool), which the default intercept-only spec takes from the arm counts;
  * ``check-assumptions`` on the text-label CSVs, at arms 0,1, and with a
    ``--config`` of nested custom ``base_spec``/``extended_spec`` that puts C
    in the base and has a three-atom term x1:A:C;
  * ``simulate`` on the study_strong configuration at arms 1,0 and at 0,1;
  * ``oracle`` on the baseline and the strong scenario, and on an m = 2 and
    an m = 60 scenario with explicit ``membership_coeffs``, with an
    ``oracle_n`` that crosses a chunk boundary of the Monte Carlo oracle
    (1 000 001 draws at tiny scale, 2 345 678 at full), which no ``simulate``
    case does;
  * three configs that exit 1 on the first trial CSV, so a change to the type
    or text of a CLI error shows: a nuisance outcome spec that names a
    covariate the data lack, a ``base_spec`` without ``extended_spec``, and a
    ``base_spec`` that names a covariate the data lack.

A case is identical when both runs give the same exit code, the same stderr,
the same stdout once each run's output directory is masked, and the same
output files with the same bytes. The script names each case that differs and
what differs, prints "N of M cases identical", and exits 0 only when every
case is identical.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True  # leave no cache files under perfbench/
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

ARMS = ("1,0", "0,1")
NESTED_SPECS = {"base_spec": ["1", "x1", "x2", "A", "C"],
                "extended_spec": ["1", "x1", "x2", "A", "C", "x1:C", "A:C", "x1:A:C"]}
FITTED_TREATMENT = {"nuisance": {name: {"treatment_spec": ["1", "x1"]}
                                 for name in ("phi", "psi", "chi")}}
#: (case name, command, config) of each error case
ERRORS = [
    ("nuisance outcome spec with a missing covariate", "analyze",
     {"nuisance": {"psi": {"outcome_spec": ["1", "x9"]}}}),
    ("base_spec without extended_spec", "check-assumptions", {"base_spec": ["1", "A"]}),
    ("base_spec with a missing covariate", "check-assumptions",
     {"base_spec": ["1", "x9"], "extended_spec": ["1", "x1", "C"]}),
]
#: oracle draws per scale: past one chunk of 10⁶ draws, so a chunk boundary is crossed
ORACLE_DRAWS = {"tiny": 1_000_001, "full": 2_345_678}
#: oracle scenarios: the block of rows narrows as m grows, so m = 2 and m = 60 end
#: their chunks in partial blocks of other widths than m = 10 does
ORACLE_SCENARIOS = {
    "baseline": {"strength": "baseline"},
    "strong": {"strength": "strong"},
    "m = 2": {"m": 2, "membership_coeffs": [[0.5, -0.3, 0.1, 0.2]]},
    "m = 60": {"m": 60, "strength": "strong", "membership_coeffs": np.column_stack(
        [np.linspace(-0.5, 0.5, 59), np.sin(np.arange(1, 178)).reshape(59, 3) * 0.4]
    ).round(3).tolist()},
}


def with_text_labels(trial, path):
    """Write ``trial`` to ``path`` with each integer center label c as site-cc."""
    with open(trial, encoding="utf-8") as src, open(path, "w", encoding="utf-8") as dst:
        dst.write(next(src))
        for line in src:
            center, rest = line.split(",", 1)
            dst.write(f"site-{int(center):02d},{rest}")
    return path


def cases(inputs, scale):
    """(case name, CLI arguments but --output) for every case; writes the inputs."""
    estimators = ",".join(workloads.ALL_ESTIMATORS)
    trials = []
    for variant in (0, 1):
        for name, workload in sorted(workloads.WORKLOADS[scale].items()):
            workdir = inputs / f"{name}-{variant}"
            workload.make_inputs(workdir, variant)
            prefix = f"{name} variant {variant}:"
            if workload.kind == "study":
                for arms in ARMS:
                    yield (f"{prefix} simulate --arms {arms}",
                           ["simulate", "--config", str(workdir / "study.json"), "--arms", arms])
                continue
            trial = str(workdir / "trial.csv")
            trials.append(trial)
            text = str(with_text_labels(trial, workdir / "trial_text_labels.csv"))
            fitted = workdir / "fitted_treatment.json"
            fitted.write_text(json.dumps(FITTED_TREATMENT), encoding="utf-8")
            for arms in ARMS:
                yield (f"{prefix} analyze --arms {arms}",
                       ["analyze", "--input", trial, "--estimators", estimators, "--arms", arms])
                yield (f"{prefix} analyze, text center labels, --arms {arms}",
                       ["analyze", "--input", text, "--estimators", estimators, "--arms", arms])
                yield (f"{prefix} analyze, fitted treatment models, --arms {arms}",
                       ["analyze", "--input", trial, "--estimators", estimators, "--arms", arms,
                        "--config", str(fitted)])
            yield f"{prefix} check-assumptions", ["check-assumptions", "--input", trial]
            yield (f"{prefix} check-assumptions, text center labels",
                   ["check-assumptions", "--input", text])
            yield (f"{prefix} check-assumptions --arms 0,1",
                   ["check-assumptions", "--input", trial, "--arms", "0,1"])
            specs = workdir / "nested_specs.json"
            specs.write_text(json.dumps(NESTED_SPECS), encoding="utf-8")
            yield (f"{prefix} check-assumptions, nested specs with x1:A:C",
                   ["check-assumptions", "--input", trial, "--config", str(specs)])
    for j, (what, command, keys) in enumerate(ERRORS):
        config = inputs / f"error_{j}.json"
        config.write_text(json.dumps(keys), encoding="utf-8")
        yield f"{command}, {what}", [command, "--input", trials[0], "--config", str(config)]
    for name, scenario in ORACLE_SCENARIOS.items():
        config = inputs / f"oracle_{name.replace(' ', '_')}.json"
        config.write_text(json.dumps({"scenario": scenario, "oracle_n": ORACLE_DRAWS[scale]}),
                          encoding="utf-8")
        yield (f"oracle, {name} scenario, {ORACLE_DRAWS[scale]} draws",
               ["oracle", "--config", str(config)])


def run(tree, args, outdir, cwd):
    """One CLI run from ``tree``'s src/: (exit code, stdout, stderr, {file: bytes}),
    with the output directory masked in stdout and stderr."""
    path = [str(tree / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-m", "centereffects.cli", *args,
                           "--output", str(outdir)], env=env, cwd=cwd, capture_output=True)
    mask = str(outdir).encode()
    files = {p.relative_to(outdir).as_posix(): p.read_bytes()
             for p in sorted(outdir.rglob("*")) if p.is_file()}
    return (proc.returncode, proc.stdout.replace(mask, b"<output>"),
            proc.stderr.replace(mask, b"<output>"), files)


def differences(parent, change):
    """What differs between two runs' results, as a list of words."""
    found = [what for what, a, b in zip(("exit code", "stdout", "stderr"), parent, change)
             if a != b]
    files = sorted(set(parent[3]) | set(change[3]))
    return found + [name for name in files if parent[3].get(name) != change[3].get(name)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--scale", choices=sorted(workloads.WORKLOADS), default="full",
                        help="workload sizes (default full)")
    args = parser.parse_args(argv)
    trees = [tree.resolve() for tree in (args.parent, args.change)]
    for tree in trees:
        if not (tree / "src" / "centereffects" / "cli.py").is_file():
            parser.error(f"{tree} has no src/centereffects/cli.py")
    identical = total = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
        work = Path(tmp)
        for total, (name, cli_args) in enumerate(cases(work / "inputs", args.scale), start=1):
            results = [run(tree, cli_args, work / side / str(total), work)
                       for side, tree in zip(("a", "b"), trees)]
            differ = differences(*results)
            identical += not differ
            if differ:
                print(f"differs: {name}: {', '.join(differ)}")
    print(f"{identical} of {total} cases identical")
    return 0 if identical == total else 1


if __name__ == "__main__":
    sys.exit(main())
