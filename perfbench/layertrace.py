"""Outside-in layer tracing for centereffects.

``Tracer.install()`` wraps the package's public functions from the outside: it
replaces every module global (and every module-level dict entry) bound to a
target function with a timing wrapper, and wraps the ``FittedNuisances``
methods and the ``TrialDataset.arms`` property on their classes. Nothing under
``src/`` changes. Each call records a span (name, start, end, parent) in
memory; ``Tracer.dump`` writes them out when the workload ends, and
``summarize`` turns a dump into per-layer self times and counts.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans add up to the duration of the root
spans (the ``cli.main`` calls).
"""
from __future__ import annotations

import importlib
import json
import os
import sys
from time import perf_counter

LAYERS = ("cli", "dataset", "nuisance", "estimators", "inference", "simulation")


def _glm_counts(fit):
    return {"iterations": int(fit.iterations), "not_converged": int(not fit.converged),
            "separated": int(getattr(fit, "separated", False)),
            "dropped": len(fit.dropped_columns)}


def _extract_fit_ols(args, kwargs, out):
    design = args[0] if args else kwargs["design"]
    return {"rows": len(design), "dropped": len(out.dropped_columns)}


def _extract_load_csv(args, kwargs, out):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path), "rows": int(out.n)}


def _extract_study(args, kwargs, out):
    return {"replicates": int(out.replicates), "failed": int(out.failures)}


#: (module, attribute, counts extractor taking (args, kwargs, return value))
FUNCTIONS = {
    "cli": [("main", None), ("cmd_analyze", None), ("cmd_check_assumptions", None),
            ("cmd_simulate", None)],
    "dataset": [("load_csv", _extract_load_csv), ("cell_counts", None),
                ("validate_positivity", None)],
    "nuisance": [("build_design", lambda a, k, out: {"bytes": int(out[0].nbytes)}),
                 ("fit_ols", _extract_fit_ols),
                 ("fit_logistic", lambda a, k, out: _glm_counts(out)),
                 ("fit_multinomial", lambda a, k, out: _glm_counts(out)),
                 ("predict", None)],
    "estimators": [("estimate_tau", None), ("estimate_phi", None), ("estimate_psi", None),
                   ("estimate_chi", None), ("estimate_contrast", None),
                   ("estimate_comparators", None)],
    "inference": [("se_from_influence", None), ("wald_ci", None), ("add_interval", None),
                  ("homogeneity_test", None), ("ancova_center_outcome_test", None),
                  ("default_assumption_specs", None)],
    "simulation": [("run_study", _extract_study), ("generate_dataset", None),
                   ("true_center_ates", None), ("default_nuisance_configs", None)],
}

#: (module, class, attribute, span name); properties are wrapped through fget
METHODS = [
    ("dataset", "TrialDataset", "arms", "dataset.arms"),
    ("dataset", "TrialDataset", "__post_init__", "dataset.TrialDataset"),
    ("estimators", "FittedNuisances", "__init__", "estimators.FittedNuisances"),
    ("estimators", "FittedNuisances", "outcome_mean", "estimators.outcome_mean"),
    ("estimators", "FittedNuisances", "donor_outcome_mean", "estimators.donor_outcome_mean"),
    ("estimators", "FittedNuisances", "arm_probability", "estimators.arm_probability"),
    ("estimators", "FittedNuisances", "marginal_arm_probability",
     "estimators.marginal_arm_probability"),
    ("estimators", "FittedNuisances", "donor_arm_probability",
     "estimators.donor_arm_probability"),
    ("estimators", "FittedNuisances", "membership", "estimators.membership"),
]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start, end, parent index, counts or None]
        self._stack = []

    def wrap(self, fn, name, extract=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if extract is not None:
                span[4] = extract(args, kwargs, out)
            return out

        return traced

    def install(self, package="centereffects"):
        """Wrap every target in the already imported ``package``."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for layer, targets in FUNCTIONS.items():
            home = importlib.import_module(f"{package}.{layer}")
            for attr, extract in targets:
                original = getattr(home, attr)
                _rebind(modules, original, self.wrap(original, f"{layer}.{attr}", extract))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{package}.{layer}"), cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, property):
                setattr(cls, attr, property(self.wrap(original.fget, name)))
            else:
                setattr(cls, attr, self.wrap(original, name))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def _rebind(modules, original, replacement):
    """Point every module global and module-level dict value at ``replacement``."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def summarize(doc):
    """Per-name and per-layer totals from a span dump.

    Returns {"names": {name: {"calls", "self_s", counts...}},
    "layers": {layer: self seconds}}.
    """
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    per_name = {}
    layers = dict.fromkeys(LAYERS, 0.0)
    for i, (name_id, start, end, _, counts) in enumerate(spans):
        name = names[name_id]
        self_s = end - start - child_time[i]
        entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
        layers[name.split(".", 1)[0]] += self_s
    return {"names": per_name, "layers": layers}
