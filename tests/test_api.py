"""The package's public surface: `__all__` lists exactly the names it exports,
and each command loads only the modules it needs."""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

import edcalc

from helpers import cli_modules, run_fresh

DATA = Path(__file__).parent / "data"


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


def test_dir_lists_every_exported_name():
    assert set(edcalc.__all__) <= set(dir(edcalc))


def test_import_alone_leaves_the_certificate_layer_unloaded():
    proc = run_fresh("import edcalc")
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "edcalc.core" in modules
    assert "edcalc.extraspecial" not in modules
    assert "dataclasses" not in modules


def test_lazy_names_resolve_in_a_fresh_interpreter():
    script = (
        "import edcalc\n"
        "assert edcalc.verify_certificate.__module__ == 'edcalc.extraspecial'\n"
        "namespace = {}\n"
        "exec('from edcalc import *', namespace)\n"
        "missing = [n for n in edcalc.__all__ if n not in namespace]\n"
        "assert not missing, missing"
    )
    proc = run_fresh(script)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", str(DATA / "c1.json")],
        ["table", "--json"],
        ["batch", str(DATA)],
    ],
    ids=["compute", "table", "batch"],
)
def test_compute_commands_load_no_certificate_layer(argv):
    modules = cli_modules(*argv)
    assert "edcalc.core" in modules
    assert "edcalc.extraspecial" not in modules
    assert "dataclasses" not in modules


def test_certify_loads_the_certificate_layer_without_dataclasses():
    modules = cli_modules("certify", "builtin:small4")
    assert "edcalc.extraspecial" in modules
    assert "dataclasses" not in modules
