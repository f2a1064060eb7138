"""Self-test of the benchmark at tiny sizes; exits 0 when every check holds.

Usage (from the repository root):

    python3 perfbench/selftest.py

It checks that:
  * each workload that BENCHMARK.json declares passes at the tiny scale,
    untraced and traced, and reports every metric it declares;
  * layer self times add up to the traced wall time, and every count repeats
    exactly between two traced iterations;
  * the output check rejects a deliberately perturbed report;
  * run.py fails, without printing a result, when the package source is absent.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import workloads

FAILURES = []


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def check_workload(name):
    manifest = run.load_manifest()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, _, records = run.measure(name, 0, 0.0, trace, scale="tiny")
        expect(result["correct"] and result["failed"] == 0,
               f"{name} trace={trace}: {result['attempted']} tiny iterations pass "
               f"{[p for r in records for p in r['problems']]}")
        expect(list(result["metrics"]) == [m["name"] for m in manifest[section]]
               and all(math.isfinite(v["value"]) for v in result["metrics"].values()),
               f"{name} trace={trace}: every metric reported and finite")
    traced = [r for r in records if r["traced"]]
    for record in traced:
        layers = sum(record["trace"]["layers"].values())
        expect(abs(layers - record["wall_s"]) <= 0.01 * record["wall_s"],
               f"{name}: layer self times sum to {layers:.4f} s of wall {record['wall_s']:.4f} s")
    names = [m["name"] for m in manifest["per_layer"]]
    counts = [{metric: value for metric, value in run.per_layer_metrics(r["trace"], names).items()
               if not metric.endswith(("self_s", "mb_per_s"))} for r in traced]
    expect(len(counts) >= 2 and all(c == counts[0] for c in counts),
           f"{name}: counts repeat exactly across {len(counts)} traced iterations")


def perturbations(wl):
    """(output file, what is perturbed, edit applied to the loaded file) triples."""
    def shift_estimate(doc):
        doc["estimates"][0]["value"] += 10 * workloads.EST_TOL * doc["estimates"][0]["se"]

    def shift_se(doc):
        doc["estimates"][-1]["se"] *= 1 + 10 * workloads.SE_RTOL

    def shift_statistic(doc):
        doc["tests"][1]["statistic"] *= 1 + 10 * workloads.STAT_RTOL

    def shift_mean(doc):
        doc["cells"][3]["bias"] += 10 * workloads.EST_TOL * doc["cells"][3]["avg_se"]

    def add_failure(doc):
        doc["failures"] = 1

    if wl.kind == "study":
        return [("simulate/study_report.json", "cell mean", shift_mean),
                ("simulate/study_report.json", "failure count", add_failure)]
    edits = [("analyze/report.json", "estimate", shift_estimate),
             ("analyze/report.json", "standard error", shift_se)]
    if wl.kind == "analyze+check":
        edits.append(("check/report.json", "homogeneity statistic", shift_statistic))
    return edits


def check_rejects_perturbed(name):
    wl = workloads.WORKLOADS["tiny"][name]
    work = run.WORK / f"selftest-{name}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        _, reference = workloads.load_reference(name, "tiny", 0)
        wl.make_inputs(work / "inputs", 0)
        outdir = work / "out"
        plan = {"commands": wl.commands(work / "inputs", outdir),
                "result": str(work / "result.json"), "spans": None}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        code = run._spawn([sys.executable, str(run.HERE / "child.py"), str(work / "plan.json")],
                          work / "child.log")
        expect(code == 0 and not wl.check(wl.summarize(outdir), reference),
               f"{name}: unperturbed output passes")
        for path, what, edit in perturbations(wl):
            original = (outdir / path).read_text(encoding="utf-8")
            doc = json.loads(original)
            edit(doc)
            (outdir / path).write_text(json.dumps(doc), encoding="utf-8")
            problems = wl.check(wl.summarize(outdir), reference)
            expect(bool(problems), f"{name}: perturbed {what} is rejected ({problems[:1]})")
            (outdir / path).write_text(original, encoding="utf-8")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_source():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "many_centers",
             "--seed", "1", "--seconds", "5", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               f"without src/ run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    for name in (w["name"] for w in run.load_manifest()["workloads"]):
        check_workload(name)
        check_rejects_perturbed(name)
    check_fails_without_source()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
