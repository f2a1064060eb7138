"""The benchmark's layer tracer (perfbench/layertrace.py) must find its targets.

The tracer wraps package functions and ``FittedNuisances``/``TrialDataset``
attributes by name; a refactor that renames or moves one would make a traced
benchmark run fail. These checks load the tracer by file path, without
installing it, and look every target up where ``Tracer.install`` will.
"""
import importlib
import importlib.util
from pathlib import Path

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
