"""The package's public names: each one exported resolves, none repeats, and
every name the package imports is exported."""

import ast
import inspect

import centereffects


def test_every_exported_name_resolves():
    missing = [name for name in centereffects.__all__ if not hasattr(centereffects, name)]
    assert missing == []


def test_exported_names_are_distinct():
    assert len(set(centereffects.__all__)) == len(centereffects.__all__)


def test_imported_names_are_exported():
    tree = ast.parse(inspect.getsource(centereffects))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert imported == set(centereffects.__all__)
