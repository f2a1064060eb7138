"""Benchmark workloads: their inputs, the CLI commands they run, and output checks.

Every input is generated here, from the workload seed, by the benchmark's own
numpy code (never by ``centereffects.simulation``), so a change to the program
cannot change what the program is given. The generative model mirrors the
paper's design: three standard normal covariates, center membership through a
reference-category multinomial logit on (1, x1, x2, x3), treatment
Bernoulli(0.5), and a linear outcome with an x1-by-treatment interaction. The
"strong" setting doubles the x1 membership column and the interaction.

A run's ``--seed`` selects one of ``VARIANTS`` input variants, whose reference
outputs were recorded at the commit named in ``reference/<workload>.json``.
The same seed always gives the same input bytes; the recorded SHA-256 of each
input is checked before timing starts.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

#: number of distinct input variants; ``--seed`` picks ``seed % VARIANTS``
VARIANTS = 8

#: published center-selection coefficient rows (centers 2..10), columns (1, x1, x2, x3)
PUBLISHED_MEMBERSHIP = np.array([
    (0.75, -0.36, -0.14, 0.36),
    (1.03, -0.18, 0.01, 0.18),
    (0.36, -0.32, -0.04, 0.44),
    (0.48, -0.13, -0.18, 0.35),
    (0.75, -0.47, 0.15, 0.34),
    (0.65, -0.42, -0.24, 0.37),
    (0.76, -0.52, -0.12, 0.34),
    (-0.09, -0.40, -0.09, 0.26),
    (1.46, -0.19, -0.16, 0.28),
])
#: outcome model (intercept, x1, x2, x3, arm, x1:arm), published values
PUBLISHED_OUTCOME = (161.0, 62.0, -1.0, -1.0, -43.0, -21.0)
NOISE_SD = 36.0

#: fixed seed that draws the many-centers coefficient rows, so every variant
#: shares one center structure and only the subject-level draws change
MANY_CENTERS_STRUCTURE_SEED = 60

ALL_ESTIMATORS = ("tau", "phi", "psi", "chi", "pooled", "fe1", "fe2")
MANY_CENTER_ESTIMATORS = ("tau", "phi", "psi", "chi")

# Output tolerances. An estimate may move by EST_TOL standard errors, a standard
# error by SE_RTOL of itself; a test statistic by STAT_RTOL of itself and a
# p-value by P_ATOL. Study cell means are held to EST_TOL of the cell's average
# SE. These are far below any statistically visible change, yet loose enough for
# a reordered sum or a differently started Newton solve.
EST_TOL = 1e-4
SE_RTOL = 1e-4
STAT_RTOL = 1e-5
P_ATOL = 1e-6
#: the Monte Carlo truth must sit within this many of its own MC standard
#: errors of the benchmark's quadrature truth (plus QUAD_ATOL for roundoff)
ORACLE_MC_SES = 4.0
QUAD_ATOL = 1e-6


class SetupError(Exception):
    """The benchmark could not prepare a workload's inputs."""


def strong_membership(rows):
    out = np.array(rows, dtype=np.float64)
    out[:, 1] *= 2.0
    return out


def strong_outcome():
    out = list(PUBLISHED_OUTCOME)
    out[5] *= 2.0
    return tuple(out)


def many_center_rows(m):
    rng = np.random.default_rng(MANY_CENTERS_STRUCTURE_SEED)
    pick = rng.integers(0, len(PUBLISHED_MEMBERSHIP), size=m - 1)
    return PUBLISHED_MEMBERSHIP[pick]


def sha256_of(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_trial_csv(path, n, membership, seed):
    """Draw one strong-scenario trial and write it as a CSV the CLI reads.

    Raises SetupError if any (center, arm) cell is empty.
    """
    rng = np.random.default_rng([0x5EED, int(seed)])
    m = membership.shape[0] + 1
    X = rng.standard_normal((n, 3))
    eta = np.zeros((n, m))
    eta[:, 1:] = membership[:, 0] + X @ membership[:, 1:].T
    eta -= eta.max(axis=1, keepdims=True)
    prob = np.exp(eta)
    prob /= prob.sum(axis=1, keepdims=True)
    u = rng.random(n)
    center = np.minimum(1 + (u[:, None] > np.cumsum(prob, axis=1)).sum(axis=1), m)
    arm = (rng.random(n) < 0.5).astype(np.int64)
    b0, b1, b2, b3, barm, binter = strong_outcome()
    y = (b0 + b1 * X[:, 0] + b2 * X[:, 1] + b3 * X[:, 2] + barm * arm
         + binter * X[:, 0] * arm + NOISE_SD * rng.standard_normal(n))

    cells = np.zeros((m, 2), dtype=np.int64)
    np.add.at(cells, (center - 1, arm), 1)
    if cells.min() == 0:
        empty = [(int(c) + 1, int(a)) for c, a in zip(*np.nonzero(cells == 0))]
        raise SetupError(f"{path.name}: empty (center, arm) cells {empty}")

    table = np.column_stack([center, arm, y, X])
    np.savetxt(path, table, fmt=["%d", "%d"] + ["%.17g"] * 4, delimiter=",",
               header="center,arm,outcome,x1,x2,x3", comments="")


# ---------------------------------------------------------------------------
# independent oracle for the study check
# ---------------------------------------------------------------------------


def quadrature_truth(membership, nodes=40):
    """True per-center ATE under the strong scenario by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / w.sum()
    g = np.stack(np.meshgrid(x, x, x, indexing="ij"), axis=-1).reshape(-1, 3)
    weights = np.einsum("i,j,k->ijk", w, w, w).ravel()
    eta = np.zeros((g.shape[0], membership.shape[0] + 1))
    eta[:, 1:] = membership[:, 0] + g @ membership[:, 1:].T
    eta -= eta.max(axis=1, keepdims=True)
    prob = np.exp(eta)
    prob /= prob.sum(axis=1, keepdims=True)
    mean_x1 = ((weights * g[:, 0]) @ prob) / (weights @ prob)
    _, _, _, _, barm, binter = strong_outcome()
    return barm + binter * mean_x1


# ---------------------------------------------------------------------------
# output summaries and their comparison with the reference
# ---------------------------------------------------------------------------


def summarize_analyze(report):
    return [[e["center"], e["estimator"], e["value"], e["se"]] for e in report["estimates"]]


def summarize_tests(report):
    return [[t["test"], t["estimator"], t["statistic"], t["df"], t["p_value"]]
            for t in report["tests"]]


def summarize_study(report):
    cells = [[c["center"], c["estimator"], c["bias"] + c["true_value"], c["avg_se"],
              c["true_value"]] for c in report["cells"]]
    return {"failures": report["failures"], "cells": cells,
            "mc_se": report["oracle"]["mc_se"]}


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def compare_analyze(got, ref):
    problems = []
    if [g[:2] for g in got] != [r[:2] for r in ref]:
        return ["analyze: estimate rows differ from the reference rows"]
    for (c, est, value, se), (_, _, rvalue, rse) in zip(got, ref):
        if not _finite(value, se):
            problems.append(f"analyze {est} center {c}: non-finite {value}, {se}")
        elif abs(value - rvalue) > EST_TOL * rse:
            problems.append(f"analyze {est} center {c}: estimate {value!r} vs {rvalue!r}")
        elif abs(se - rse) > SE_RTOL * rse:
            problems.append(f"analyze {est} center {c}: se {se!r} vs {rse!r}")
    return problems


def compare_tests(got, ref):
    problems = []
    if [g[:2] + [g[3]] for g in got] != [r[:2] + [r[3]] for r in ref]:
        return ["check-assumptions: test rows or degrees of freedom differ"]
    for (test, est, stat, _, p), (_, _, rstat, _, rp) in zip(got, ref):
        if not _finite(stat, p):
            problems.append(f"{test} {est}: non-finite {stat}, {p}")
        elif abs(stat - rstat) > STAT_RTOL * max(abs(rstat), 1e-9):
            problems.append(f"{test} {est}: statistic {stat!r} vs {rstat!r}")
        elif abs(p - rp) > P_ATOL:
            problems.append(f"{test} {est}: p-value {p!r} vs {rp!r}")
    return problems


def compare_study(got, ref, truth):
    problems = []
    if got["failures"] != 0:
        problems.append(f"simulate: {got['failures']} failed replicates")
    if [g[:2] for g in got["cells"]] != [r[:2] for r in ref["cells"]]:
        return problems + ["simulate: study cells differ from the reference cells"]
    for (c, est, mean, avg_se, true_value), (_, _, rmean, rse, _) in zip(
            got["cells"], ref["cells"]):
        if not _finite(mean, avg_se, true_value):
            problems.append(f"simulate {est} center {c}: non-finite cell")
        elif abs(mean - rmean) > EST_TOL * rse:
            problems.append(f"simulate {est} center {c}: mean {mean!r} vs {rmean!r}")
        elif abs(avg_se - rse) > SE_RTOL * rse:
            problems.append(f"simulate {est} center {c}: avg_se {avg_se!r} vs {rse!r}")
        elif abs(true_value - truth[c - 1]) > ORACLE_MC_SES * got["mc_se"][c - 1] + QUAD_ATOL:
            problems.append(f"simulate center {c}: true value {true_value!r} is off the "
                            f"quadrature truth {truth[c - 1]!r}")
    return problems


# ---------------------------------------------------------------------------
# workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload at one scale: how to make its inputs and what it runs."""

    name: str
    kind: str  # "study" | "analyze" | "analyze+check"
    n: int
    m: int
    replicates: int = 0
    oracle_n: int = 0

    def membership(self):
        if self.m == len(PUBLISHED_MEMBERSHIP) + 1:
            return strong_membership(PUBLISHED_MEMBERSHIP)
        return strong_membership(many_center_rows(self.m))

    def make_inputs(self, workdir, variant):
        """Write this variant's inputs under ``workdir``; return {file name: sha256}."""
        workdir.mkdir(parents=True, exist_ok=True)
        if self.kind == "study":
            config = {
                "scenario": {"strength": "strong", "n": self.n, "m": self.m},
                "replicates": self.replicates,
                "seed": 1000 + variant,
                "estimators": list(ALL_ESTIMATORS),
                "oracle_n": self.oracle_n,
                "oracle_seed": 0,
            }
            path = workdir / "study.json"
            path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
        else:
            path = workdir / "trial.csv"
            write_trial_csv(path, self.n, self.membership(), seed=variant)
        return {path.name: sha256_of(path)}

    def commands(self, workdir, outdir):
        """The CLI argument lists one iteration runs, in order."""
        if self.kind == "study":
            return [["simulate", "--config", str(workdir / "study.json"),
                     "--output", str(outdir / "simulate")]]
        trial = str(workdir / "trial.csv")
        if self.kind == "analyze":
            return [["analyze", "--input", trial, "--output", str(outdir / "analyze"),
                     "--estimators", ",".join(ALL_ESTIMATORS)]]
        return [
            ["analyze", "--input", trial, "--output", str(outdir / "analyze"),
             "--estimators", ",".join(MANY_CENTER_ESTIMATORS)],
            ["check-assumptions", "--input", trial, "--output", str(outdir / "check")],
        ]

    def summarize(self, outdir):
        """The numbers the check compares, read from one iteration's output files."""
        def load(sub, name):
            with open(outdir / sub / name, encoding="utf-8") as fh:
                return json.load(fh)

        if self.kind == "study":
            return {"simulate": summarize_study(load("simulate", "study_report.json"))}
        out = {"analyze": summarize_analyze(load("analyze", "report.json"))}
        if self.kind == "analyze+check":
            out["check"] = summarize_tests(load("check", "report.json"))
        return out

    def check(self, summary, reference):
        """List of problems with ``summary`` against ``reference`` (empty when correct)."""
        if set(summary) != set(reference):
            return [f"output sections {sorted(summary)} vs {sorted(reference)}"]
        problems = []
        if "simulate" in summary:
            truth = quadrature_truth(self.membership())
            problems += compare_study(summary["simulate"], reference["simulate"], truth)
        if "analyze" in summary:
            problems += compare_analyze(summary["analyze"], reference["analyze"])
        if "check" in summary:
            problems += compare_tests(summary["check"], reference["check"])
        return problems


WORKLOADS = {
    "full": {
        "study_strong": Workload("study_strong", "study", n=1000, m=10,
                                 replicates=100, oracle_n=1_000_000),
        "analyze_large_n": Workload("analyze_large_n", "analyze", n=100_000, m=10),
        "many_centers": Workload("many_centers", "analyze+check", n=10_000, m=60),
    },
    # the self-test's sizes: same code paths, a few seconds each
    "tiny": {
        "study_strong": Workload("study_strong", "study", n=400, m=10,
                                 replicates=4, oracle_n=200_000),
        "analyze_large_n": Workload("analyze_large_n", "analyze", n=2_000, m=10),
        "many_centers": Workload("many_centers", "analyze+check", n=3_000, m=12),
    },
}


def reference_path(name):
    return REFERENCE_DIR / f"{name}.json"


def load_reference(name, scale, variant):
    """(input digests, output summary) recorded for one workload variant."""
    path = reference_path(name)
    if not path.exists():
        raise SetupError(f"no reference outputs recorded in {path}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        entry = doc[scale][str(variant)]
    except KeyError:
        raise SetupError(f"{path} has no {scale} variant {variant}") from None
    return entry["inputs"], entry["outputs"]
