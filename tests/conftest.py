"""Loaded by pytest before any test module: the package is imported before
numpy, so the tests run under its one-BLAS-thread policy (see the docstring of
``centereffects/__init__.py``)."""
import centereffects  # noqa: F401
