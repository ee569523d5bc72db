"""The package's public surface: `__all__` lists exactly the names it exports,
and each command loads only the modules it needs, within a budget of source lines."""

from __future__ import annotations

import inspect
import json
import types
from pathlib import Path

import pytest

import edcalc
from edcalc import caps, cli, compute_ed, greedy_min_basis, verify_certificate
from edcalc.gf2 import enumerate_bases

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


def test_every_cap_default_is_the_one_enum_cap():
    defaults = [
        inspect.signature(compute_ed).parameters["enum_cap"].default,
        inspect.signature(greedy_min_basis).parameters["enum_cap"].default,
        inspect.signature(enumerate_bases).parameters["cap"].default,
        inspect.signature(verify_certificate).parameters["closure_cap"].default,
        cli.CAPS["--enum-cap"][0],
    ]
    assert defaults == [caps.DEFAULT_ENUM_CAP] * 5
    assert list(cli.CAPS) == ["--enum-cap"]


def test_import_alone_leaves_the_certificate_layer_unloaded():
    proc = run_fresh("import edcalc")
    assert proc.returncode == 0, proc.stderr
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert [m for m in modules if m.startswith("edcalc.")] == []
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


# the package's modules, each command's share of them, and the modules it must skip
SPEC = {"edcalc._record", "edcalc.gf2", "edcalc.spec"}
COMPUTE = SPEC | {"edcalc.ledger", "edcalc.core"}
NOT_AT_START = {"argparse", "dataclasses"}


@pytest.mark.parametrize(
    "argv, code, loaded, absent",
    [
        (["compute", str(DATA / "c1.json")], 0, COMPUTE, {"edcalc.extraspecial"}),
        (
            ["table", "--json"],
            0,
            {"edcalc._record", "edcalc.ledger"},
            {"edcalc.gf2", "edcalc.spec", "edcalc.core", "edcalc.extraspecial"},
        ),
        # dual6_small_diagonal.json, before survey.json, hits the basis cap: the batch exits 4
        (["batch", str(DATA)], 4, COMPUTE, {"edcalc.extraspecial"}),
    ],
    ids=["compute", "table", "batch"],
)
def test_compute_commands_load_no_certificate_layer(argv, code, loaded, absent):
    modules = cli_modules(*argv, code=code)
    assert loaded <= modules
    assert not (absent | NOT_AT_START) & modules


def test_certify_loads_the_certificate_layer_without_dataclasses():
    modules = cli_modules("certify", "builtin:small4")
    assert SPEC | {"edcalc.ledger", "edcalc.extraspecial"} <= modules
    assert not ({"edcalc.core"} | NOT_AT_START) & modules


@pytest.mark.parametrize(
    "argv, code",
    [(["--help"], 0), (["certify", "--help"], 0), (["compute"], 2), (["table", "-x"], 2)],
    ids=["help", "command-help", "missing-argument", "unknown-option"],
)
def test_help_and_usage_errors_load_argparse_and_no_algorithm(argv, code):
    modules = cli_modules(*argv, code=code)
    assert "argparse" in modules
    assert not {"edcalc.gf2", "edcalc.ledger"} & modules


# the most package source, in lines, that each command may load; `python -m
# edcalc.cli` runs cli.py as __main__, so it counts besides the modules imported.
# A change that makes a command load more raises its bound here.
SOURCE_BUDGET = {
    "compute": (["compute", str(DATA / "c1.json")], 1635),
    "certify": (["certify", "builtin:small4"], 1622),
    "table": (["table"], 697),
}


@pytest.mark.parametrize("command", list(SOURCE_BUDGET))
def test_each_command_loads_no_more_source_than_its_budget(command):
    argv, budget = SOURCE_BUDGET[command]
    package = Path(edcalc.__file__).parent
    modules = {m for m in cli_modules(*argv) if m.startswith("edcalc.")} | {"edcalc.cli"}
    files = [package / "__init__.py"] + [package / f"{m[len('edcalc.'):]}.py" for m in modules]
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert lines <= budget, f"{command} loads {lines} lines of source, over its budget of {budget}"
