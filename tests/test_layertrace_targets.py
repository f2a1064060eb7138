"""The benchmark's layer tracer (perfbench/layertrace.py) must find its targets.

The tracer wraps package functions and ``FittedNuisances``/``TrialDataset``
attributes by name; a refactor that renames or moves one would make a traced
benchmark run fail. These checks load the tracer by file path, without
installing it, and look every target up where ``Tracer.install`` will, and
check that the fit records carry every attribute its counters read.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from centereffects import fit_logistic, fit_multinomial

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace_targets", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_function_targets_exist():
    layertrace = load_layertrace()
    for layer, targets in layertrace.FUNCTIONS.items():
        module = importlib.import_module(f"centereffects.{layer}")
        for attr, _ in targets:
            assert callable(getattr(module, attr, None)), f"centereffects.{layer}.{attr}"


def test_method_targets_defined_on_their_class():
    layertrace = load_layertrace()
    for layer, cls_name, attr, _ in layertrace.METHODS:
        cls = getattr(importlib.import_module(f"centereffects.{layer}"), cls_name)
        assert attr in cls.__dict__, f"centereffects.{layer}.{cls_name}.{attr}"


def test_glm_fits_expose_what_the_tracer_counts():
    # the attributes _glm_counts reads, found in its source; getattr with a
    # default would turn a renamed field into a silent zero
    layertrace = load_layertrace()
    tree = ast.parse(inspect.getsource(layertrace._glm_counts))
    (fit_arg,) = [a.arg for a in tree.body[0].args.args]
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == fit_arg}
    read |= {node.args[1].value for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"}
    assert {"iterations", "converged", "separated", "dropped_columns"} <= read

    X = np.column_stack([np.ones(6), [0.0, 1.0, 2.0, 0.0, 1.0, 2.0]])
    fits = [fit_logistic(X, np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])),
            fit_multinomial(X, np.array([1, 2, 3, 3, 2, 1]))]
    for fit in fits:
        missing = {attr for attr in read if not hasattr(fit, attr)}
        assert not missing, f"{type(fit).__name__} lacks {sorted(missing)}"
        layertrace._glm_counts(fit)
