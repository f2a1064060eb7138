"""Benchmark of the centereffects command-line interface.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop: one process runs one iteration's CLI commands one after
another, then the next iteration starts in a fresh interpreter):

  study_strong     simulate, strong scenario, n=1000, m=10, 7 estimators,
                   100 replicates, 1e6 oracle draws
  analyze_large_n  analyze a n=1e5, m=10 CSV with all 7 estimators
  many_centers     analyze (tau, phi, psi, chi) then check-assumptions on a
                   n=1e4, m=60 CSV

The inputs are generated from ``--seed`` before timing starts (see
workloads.py). Iterations run for about ``--seconds`` seconds (at least
MIN_ITERATIONS); each iteration's outputs are checked against the recorded
reference, and an iteration whose check fails counts as a failed operation.
Every child gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1 and imports the package
from ``src/`` of this checkout.

With ``--trace 0`` the result holds the end-to-end metrics over the run's
iterations:
  wall_s        median seconds from the first CLI call to the last return,
                timed inside the process
  setup_s       median seconds of interpreter start plus ``import centereffects.cli``
  peak_rss_mib  smallest peak resident set size of an iteration's process. The
                peak depends on where the address-space randomisation puts the
                heap: on many_centers one process in two peaks 11-16 MiB higher
                than the rest with the same inputs, so the median would jump
                between those levels; the smallest peak does not.
With ``--trace 1`` iterations alternate between untraced and traced (see
layertrace.py), and the result holds the per-layer metrics of the traced
iteration with the median wall time, plus ``trace.overhead_frac``.

The names and units of the metrics come from BENCHMARK.json in the checkout.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The environment and input digests are printed
on a line before it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_ITERATIONS = 3
CHILD_TIMEOUT_S = 90

def load_manifest():
    """BENCHMARK.json of this checkout: the workloads and metrics it declares."""
    path = ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise workloads.SetupError(f"cannot read {path}: {exc}") from None


def child_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _spawn(argv, log_path):
    """Run a child to completion with its output in ``log_path``; return its exit code."""
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, env=child_env(), stdout=log, stderr=log,
                                stdin=subprocess.DEVNULL, cwd=ROOT)
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None


def warm_up(work):
    """Import the package once, untimed, so bytecode caches exist as for a user."""
    code = _spawn([sys.executable, "-c", "import centereffects.cli"], work / "child.log")
    if code != 0:
        raise workloads.SetupError(f"importing centereffects.cli failed; see {work / 'child.log'}")


def run_iteration(wl, reference, inputs, work, index, traced):
    """One fresh-interpreter iteration; returns its measurements and problems."""
    outdir = work / f"iter{index}"
    plan = {
        "commands": wl.commands(inputs, outdir),
        "result": str(work / f"result{index}.json"),
        "spans": str(work / f"spans{index}.json") if traced else None,
    }
    plan_path = work / f"plan{index}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    started = time.perf_counter()
    code = _spawn([sys.executable, str(HERE / "child.py"), str(plan_path)],
                  work / "child.log")
    record = {"traced": traced, "problems": []}
    if code != 0:
        record["problems"].append(f"iteration {index}: child exited with {code}")
        return record
    with open(plan["result"], encoding="utf-8") as fh:
        result = json.load(fh)
    record.update(setup_s=result["imported_at"] - started, wall_s=result["wall_s"],
                  peak_rss_mib=result["maxrss_kib"] / 1024.0)
    if traced:
        with open(plan["spans"], encoding="utf-8") as fh:
            record["trace"] = layertrace.summarize(json.load(fh))
    if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
        record["problems"].append(f"imported {result['module']}, not the checkout's src/")
    if any(c != 0 for c in result["exit_codes"]):
        record["problems"].append(f"iteration {index}: CLI exit codes {result['exit_codes']}")
    else:
        try:
            record["summary"] = wl.summarize(outdir)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            record["problems"].append(f"iteration {index}: unreadable output: {exc!r}")
        else:
            if reference is not None:
                record["problems"] += wl.check(record["summary"], reference)
    shutil.rmtree(outdir, ignore_errors=True)
    return record


def per_layer_metrics(summary, metrics):
    """Values of the per-layer ``metrics``, except the trace.* ones, from a span summary.

    A metric is a layer total ("<layer>.self_s"), a span total ("<span>.self_s"
    or "<span>.<count>"), or one of the derived metrics worked out below.
    """
    names, layers = summary["names"], summary["layers"]
    load = names.get("dataset.load_csv", {})
    study = names.get("simulation.run_study", {})
    values = {
        "estimators.bundles": names.get("estimators.FittedNuisances", {}).get("calls", 0),
        "dataset.load_csv.mb_per_s":
            load["bytes"] / 1e6 / load["self_s"] if load.get("self_s") else 0.0,
        "nuisance.dropped_columns": sum(
            names.get(f"nuisance.{fit}", {}).get("dropped", 0)
            for fit in ("fit_ols", "fit_logistic", "fit_multinomial")),
        "simulation.replicates_failed": study.get("failed", 0),
        "simulation.replicates_kept_frac":
            1.0 - study["failed"] / study["replicates"] if study else 1.0,
    }
    for metric in metrics:
        head, _, key = metric.rpartition(".")
        if metric in values or head == "trace":
            continue
        if head in layers:
            values[metric] = layers[head]
        else:
            values[metric] = names.get(head, {}).get(key, 0)
    return values


def environment(digests):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, check=False)
            commit = out.stdout.strip() or commit
        except OSError:
            pass
    env = child_env()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": env["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "inputs_sha256": digests,
    }


def measure(name, seed, seconds, trace, scale="full"):
    """Run one workload for about ``seconds``; return (result, environment, records)."""
    manifest = load_manifest()
    if not (SRC / "centereffects" / "cli.py").is_file():
        raise workloads.SetupError(f"no package source under {SRC}")
    wl = workloads.WORKLOADS[scale][name]
    variant = seed % workloads.VARIANTS
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    try:
        expected, reference = workloads.load_reference(name, scale, variant)
        digests = wl.make_inputs(inputs, variant)
        if digests != expected:
            raise workloads.SetupError(
                f"{name} variant {variant}: inputs {digests} differ from the recorded {expected}")
        warm_up(work)
        records = []
        minimum = MIN_ITERATIONS + (1 if trace else 0)
        started = time.perf_counter()
        while True:
            traced = bool(trace) and len(records) % 2 == 1
            records.append(run_iteration(wl, reference, inputs, work, len(records), traced))
            elapsed = time.perf_counter() - started
            if len(records) >= minimum and elapsed * (1 + 1 / len(records)) > seconds:
                break
        return summarize_run(records, trace, manifest), environment(digests), records
    finally:
        shutil.rmtree(work, ignore_errors=True)


def summarize_run(records, trace, manifest):
    failed = sum(1 for r in records if r["problems"])
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": {}}
    good = [r for r in records if not r["problems"]]
    untraced = [r for r in good if not r["traced"]]
    traced = sorted((r for r in good if r["traced"]), key=lambda r: r["wall_s"])
    metrics = result["metrics"]
    if not trace and untraced:
        for m in manifest["end_to_end"]:
            pick = min if m["name"] == "peak_rss_mib" else statistics.median
            metrics[m["name"]] = {"value": pick(r[m["name"]] for r in untraced),
                                  "unit": m["unit"]}
    elif trace and untraced and traced:
        chosen = traced[(len(traced) - 1) // 2]
        values = per_layer_metrics(chosen["trace"], [m["name"] for m in manifest["per_layer"]])
        values["trace.wall_s"] = chosen["wall_s"]
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced)
            / statistics.median(r["wall_s"] for r in untraced) - 1.0)
        for m in manifest["per_layer"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if not metrics:
        result["correct"] = False
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, env, records = measure(args.workload, args.seed, args.seconds, args.trace)
    except workloads.SetupError as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    for record in records:
        for problem in record["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("# environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
