"""Run every workload, check every output, and print each metric with its unit.

Usage (from the repository root):

    python3 perfbench/suite.py [--seed N] [--trace] [--out FILE]

For each workload it makes one run.py measurement of BENCHMARK.json's
``run_seconds`` with tracing off and prints
wall_s, setup_s and peak_rss_mib with their units and sample counts; with
``--trace`` it adds a traced measurement and prints the per-layer metrics.
``--out`` writes everything, with the environment, to a JSON file such as
perfbench/BENCH_<commit>.json, one point of the performance trajectory.
Exits 1 if any iteration failed its check.
"""
from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", help="write the results to this JSON file")
    args = parser.parse_args(argv)

    seconds = float(run.load_manifest()["run_seconds"])
    doc = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    failed = 0
    for name in workloads.WORKLOADS["full"]:
        entry = doc["workloads"][name] = {}
        for trace in (0, 1) if args.trace else (0,):
            result, env, records = run.measure(name, args.seed, seconds, trace)
            entry["inputs_sha256"] = env.pop("inputs_sha256")
            doc["environment"] = env
            failed += result["failed"]
            samples = sum(1 for r in records if not r["problems"] and r["traced"] == bool(trace))
            entry["trace" if trace else "end_to_end"] = dict(result, samples=samples)
            print(f"{name}: {result['attempted']} iterations, {result['failed']} failed"
                  f"{' (traced run)' if trace else ''}")
            for problem in (p for r in records for p in r["problems"]):
                print(f"  check failed: {problem}")
            for metric, value in result["metrics"].items():
                print(f"  {metric:<46} {value['value']:>14.6g} {value['unit']:<8} "
                      f"n={samples}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
