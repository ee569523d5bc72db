"""The package's public surface: `__all__` lists exactly the names it exports,
each command loads only the modules it needs, within a budget of source lines, the
numbers README states are the code's, and every source file parses under the oldest
Python that pyproject.toml admits."""

from __future__ import annotations

import ast
import inspect
import json
import re
import types
from pathlib import Path

import pytest

import edcalc
from edcalc import caps, cli, compute_ed, verify_certificate
from edcalc.ledger import SMALL_MAX_FACTORS, SMALL_MAX_RANK

from helpers import cli_modules, run_fresh
from survey import load, summary

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
    params = [inspect.signature(f).parameters["enum_cap"] for f in (compute_ed, verify_certificate)]
    assert all(p.kind is inspect.Parameter.KEYWORD_ONLY for p in params)
    defaults = [p.default for p in params] + [cli.CAPS["--enum-cap"][0]]
    assert defaults == [caps.DEFAULT_ENUM_CAP] * 3
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
COMPUTE = SPEC | {"edcalc.ledger", "edcalc.core", "edcalc.cli_compute"}
# the module of the documents that no command writes
LIBRARY_ONLY = {"edcalc.documents"}
NOT_AT_START = {"argparse", "dataclasses"} | LIBRARY_ONLY
CERTIFY = {"edcalc.extraspecial", "edcalc.cli_certify"}


@pytest.mark.parametrize(
    "argv, code, loaded, absent",
    [
        (
            ["compute", str(DATA / "c1.json")],
            0,
            COMPUTE,
            CERTIFY | {"edcalc.cli_table", "edcalc.cli_batch"},
        ),
        (
            ["table", "--json"],
            0,
            {"edcalc._record", "edcalc.ledger", "edcalc.cli_table"},
            COMPUTE - {"edcalc._record", "edcalc.ledger"} | CERTIFY | {"edcalc.cli_batch"},
        ),
        # dual6_small_diagonal.json, before survey.json, hits the basis cap: the batch exits 4
        (
            ["batch", str(DATA)],
            4,
            COMPUTE | {"edcalc.cli_batch"},
            CERTIFY | {"edcalc.cli_table"},
        ),
    ],
    ids=["compute", "table", "batch"],
)
def test_compute_commands_load_no_certificate_layer(argv, code, loaded, absent):
    modules = cli_modules(*argv, code=code)
    assert loaded <= modules
    assert not (absent | NOT_AT_START) & modules


def test_certify_loads_the_certificate_layer_without_dataclasses():
    modules = cli_modules("certify", "builtin:small4")
    assert SPEC | {"edcalc.ledger"} | CERTIFY <= modules
    absent = {"edcalc.core", "edcalc.cli_compute", "edcalc.cli_table", "edcalc.cli_batch"}
    assert not (absent | NOT_AT_START) & modules


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compute", str(DATA / "c1.json")], 0),
        (["batch", str(DATA)], 4),
        (["certify", "builtin:small4"], 0),
        (["certify", str(DATA / "certificates" / "nonabelian_quotient.json")], 5),
        (["table"], 0),
        (["--help"], 0),
    ],
    ids=["compute", "batch", "certify-builtin", "certify-file", "table", "help"],
)
def test_no_module_imports_the_running_cli(argv, code):
    # `python -m edcalc.cli` runs cli.py as __main__: an import of edcalc.cli would compile it again
    assert "edcalc.cli" not in cli_modules(*argv, code=code)


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
    "compute": (["compute", str(DATA / "c1.json")], 1360),
    "certify": (["certify", "builtin:small4"], 1298),
    "table": (["table"], 536),
}


@pytest.mark.parametrize("command", list(SOURCE_BUDGET))
def test_each_command_loads_no_more_source_than_its_budget(command):
    argv, budget = SOURCE_BUDGET[command]
    package = Path(edcalc.__file__).parent
    modules = {m for m in cli_modules(*argv) if m.startswith("edcalc.")} | {"edcalc.cli"}
    files = [package / "__init__.py"] + [package / f"{m[len('edcalc.'):]}.py" for m in modules]
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert lines <= budget, f"{command} loads {lines} lines of source, over its budget of {budget}"


def readme_text():
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_states_the_source_budgets():
    readme = " ".join(readme_text().split())
    stated = re.search(
        r"`cli\.py` included: (\d+) for `compute`, (\d+) for `certify` and (\d+) for `table`",
        readme,
    )
    assert stated, "README no longer states the source budgets in the expected words"
    budgets = {command: budget for command, (_, budget) in SOURCE_BUDGET.items()}
    assert dict(zip(("compute", "certify", "table"), map(int, stated.groups()))) == budgets


def test_readme_states_the_exit_codes_and_the_small_product_limits():
    text = readme_text()
    table = [int(code) for code in re.findall(r"^\| (\d+) \|", text, re.MULTILINE)]
    codes = [value for name, value in vars(caps).items() if name.startswith("EXIT_")]
    assert table == sorted(table) and sorted(table) == sorted(codes)
    stated = re.search(
        r"every rank on the list \((\d+) today\), or it has more factors than"
        r" the longest entry \((\d+) today\)",
        " ".join(text.split()),
    )
    assert stated, "README no longer states the small-product limits in the expected words"
    assert tuple(map(int, stated.groups())) == (SMALL_MAX_RANK, SMALL_MAX_FACTORS)


def test_readme_states_the_flags_and_the_commands_of_each_cap():
    section = readme_text().partition("### Flags and exit codes")[2].partition("\n#")[0]
    assert set(re.findall(r"`(--[a-z-]+)", section)) == {*cli.FORMATS, *cli.CAPS}
    for cap in cli.CAPS:
        listed = re.search(rf"`{cap} N` \(default [^)]*\): ([^.]*)\.", section)
        assert listed, f"README no longer lists the commands of {cap} in the expected words"
        takes = {name for name, (_, caps, _) in cli.COMMANDS.items() if cap in caps}
        assert set(re.findall(r"`(\w+)`", listed[1])) == takes


def test_readme_states_the_survey_counts():
    # each row of the "Answer quality" table: the group and its size, then the first
    # number of each cell, in the order of the columns
    rows = re.findall(r"^\| (\w+(?: = 64)?), (\d+) \|(.*)\|$", readme_text(), re.MULTILINE)
    stated = {
        group.replace(" = ", ""): [int(size)] + [int(cell.split()[0]) for cell in cells.split("|")]
        for group, size, cells in rows
    }
    columns = ("exact", "bounds-only", "lower = 0", "no upper", "capped")
    assert stated == {
        group: [c["exact"] + c["bounds-only"]] + [c[column] for column in columns]
        for group, c in summary(load()).items()
    }


def test_every_source_file_parses_under_the_oldest_supported_python():
    # the interpreter that runs the tests may be newer, and would accept syntax
    # such as `except*` (3.11) that the oldest declared version rejects
    root = Path(__file__).resolve().parents[1]
    declared = re.search(r'requires-python = ">=3\.(\d+)"', (root / "pyproject.toml").read_text())
    files = sorted((root / "src" / "edcalc").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert declared and len(files) > 30
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(declared[1])))
