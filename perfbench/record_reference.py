"""Record the reference outputs that every benchmark run is checked against.

Run from the repository root, at the commit whose outputs define "correct":

    python3 perfbench/record_reference.py

For each workload it generates every input variant (full scale) and variant 0
at the self-test's tiny scale, runs one iteration, requires it to pass the
checks that do not need a reference (exit codes, finite values, no failed
replicates, Monte Carlo truth near the benchmark's own quadrature truth), and
writes reference/<workload>.json with the input digests and output summaries.
"""
from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run
import workloads


def cross_check_quadrature():
    """The benchmark's quadrature truth must equal the package's own."""
    sys.path.insert(0, str(run.SRC))
    from centereffects.simulation import Scenario, true_center_ates_quadrature

    ours = workloads.quadrature_truth(
        workloads.strong_membership(workloads.PUBLISHED_MEMBERSHIP))
    theirs = np.asarray(true_center_ates_quadrature(Scenario.strong()).values)
    if not np.allclose(ours, theirs, rtol=0.0, atol=1e-9):
        raise SystemExit(f"quadrature truths disagree: {ours} vs {theirs}")


def record_variant(wl, scale, variant):
    work = run.WORK / f"record-{wl.name}-{scale}-{variant}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        digests = wl.make_inputs(work / "inputs", variant)
        run.warm_up(work)
        rec = run.run_iteration(wl, None, work / "inputs", work, 0, traced=False)
        problems = rec["problems"] or wl.check(rec["summary"], rec["summary"])
        if problems:
            raise SystemExit(f"{wl.name} {scale} variant {variant}: {problems}")
        print(f"{wl.name} {scale} variant {variant}: wall {rec['wall_s']:.2f} s", flush=True)
        return {"inputs": digests, "outputs": rec["summary"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names):
    cross_check_quadrature()
    commit = run.environment({})["commit"]
    for name in names:
        doc = {"commit": commit, "full": {}, "tiny": {}}
        for variant in range(workloads.VARIANTS):
            doc["full"][str(variant)] = record_variant(
                workloads.WORKLOADS["full"][name], "full", variant)
        doc["tiny"]["0"] = record_variant(workloads.WORKLOADS["tiny"][name], "tiny", 0)
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        with open(workloads.reference_path(name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or sorted(workloads.WORKLOADS["full"])))
