"""The package's public names: each one exported resolves, and none repeats."""

import centereffects


def test_every_exported_name_resolves():
    missing = [name for name in centereffects.__all__ if not hasattr(centereffects, name)]
    assert missing == []


def test_exported_names_are_distinct():
    assert len(set(centereffects.__all__)) == len(centereffects.__all__)
