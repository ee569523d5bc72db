"""The package's public surface: `__all__` lists exactly the names it exports."""

from __future__ import annotations

import types

import edcalc


def test_all_matches_public_attributes():
    assert len(set(edcalc.__all__)) == len(edcalc.__all__)
    for name in edcalc.__all__:
        assert hasattr(edcalc, name), name
    public = {
        name
        for name, value in vars(edcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(edcalc.__all__) == public
