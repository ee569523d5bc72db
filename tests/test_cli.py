"""Command-line behavior: reports, formats, and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edcalc.cli import CAPS, COMMANDS, EXIT_IOERR, EXIT_PIPE, FORMATS, main, read_argv
from edcalc.usage import build_parser

from helpers import child_env

DATA = Path(__file__).parent / "data"

MIXED_DOC = {"type": "B", "n": [1, 2, 3, 7], "mu_generators": [[1, 1, 0, 0], [1, 0, 1, 0]]}

# fails verification: its generators do not commute modulo mu
BAD_CERT = {
    "spec": {"type": "B", "n": [1, 1], "mu_generators": [[1, 1]]},
    "generators": [
        [{"sign": 1, "indices": [1, 2]}, {"sign": 1, "indices": []}],
        [{"sign": 1, "indices": [1, 3]}, {"sign": 1, "indices": []}],
    ],
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_text(tmp_path, capsys):
    path = write_doc(tmp_path, "spec.json", MIXED_DOC)
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert "status: exact, ed = 53" in out
    assert "minimal basis: (1,1,1,0), (0,0,0,1)" in out
    assert "basis total weight: 192" in out
    assert "group dimension: 139" in out


def test_compute_json_round_trip_and_text_agreement(tmp_path, capsys):
    path = write_doc(tmp_path, "spec.json", MIXED_DOC)
    code, out, _ = run(capsys, "compute", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc
    assert doc["status"] == "exact"
    assert doc["value"] == doc["lower"] == doc["upper"] == 53
    assert doc["minimal_basis"] == [[1, 1, 1, 0], [0, 0, 0, 1]]
    assert doc["basis_total_weight"] == 192
    assert doc["group_dim"] == 139
    assert all(set(t) == {"rule", "citation"} for t in doc["trace"])

    _, text, _ = run(capsys, "compute", path, "--text")
    assert f"lower bound: {doc['lower']}" in text
    assert f"upper bound: {doc['upper']}" in text
    assert f"basis total weight: {doc['basis_total_weight']}" in text
    assert f"group dimension: {doc['group_dim']}" in text


def test_compute_known_case_rule_shown(tmp_path, capsys):
    path = write_doc(
        tmp_path, "spec.json", {"type": "B", "n": [1] * 5, "mu_generators": [[1] * 5]}
    )
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert "status: exact, ed = 6, rule: known-exact/spin3-power-diagonal" in out


def test_compute_bounds_only(tmp_path, capsys):
    path = write_doc(tmp_path, "spec.json", {"type": "B", "n": [2, 2], "mu_generators": [[1, 1]]})
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert "status: bounds-only, ed >= 5" in out
    assert "upper bound: unknown" in out


def test_compute_r_generators_equivalent(tmp_path, capsys):
    doc = {"type": "B", "n": [1, 2, 3, 7], "r_generators": [[1, 1, 1, 0], [0, 0, 0, 1]]}
    path = write_doc(tmp_path, "spec.json", doc)
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert "status: exact, ed = 53" in out


def test_compute_parse_errors(tmp_path, capsys):
    code, _, err = run(capsys, "compute", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "compute", str(bad))
    assert code == 2
    path = write_doc(tmp_path, "badtype.json", {"type": "C", "n": [1]})
    code, _, err = run(capsys, "compute", path)
    assert code == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"type": "B", "n": [1], "note": "\xe9"}')
    code, out, err = run(capsys, "compute", str(latin1))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse {latin1}: 'utf-8' codec can't decode")


def test_compute_validation_errors(tmp_path, capsys):
    path = write_doc(tmp_path, "split.json", {"type": "B", "n": [1, 1], "mu_generators": [[1, 0]]})
    code, _, err = run(capsys, "compute", path)
    assert code == 3 and "factor 1" in err
    path = write_doc(tmp_path, "empty.json", {"type": "B", "n": []})
    code, _, err = run(capsys, "compute", path)
    assert code == 3
    path = write_doc(tmp_path, "rank0.json", {"type": "B", "n": [0, 2]})
    code, _, err = run(capsys, "compute", path)
    assert code == 3


def test_more_than_64_factors_is_a_validation_error(tmp_path, capsys):
    path = write_doc(tmp_path, "wide.json", {"type": "B", "n": [7] * 65})
    code, out, err = run(capsys, "compute", path)
    assert code == 3 and out == ""
    assert err == f"error: {path}: at most 64 factors are supported\n"
    # 64 factors pass validation; trivial mu leaves a dual over the element cap
    path = write_doc(tmp_path, "widest.json", {"type": "B", "n": [7] * 64})
    code, out, _ = run(capsys, "compute", path)
    assert code == 4 and "warning: element-cap-exceeded" in out


def test_compute_capped_exact_and_partial(tmp_path, capsys):
    path = write_doc(
        tmp_path, "big.json", {"type": "B", "n": [1] * 30, "mu_generators": [[1] * 30]}
    )
    code, out, _ = run(capsys, "compute", path)
    assert code == 0
    assert "status: exact, ed = 31" in out
    assert "warning: element-cap-exceeded" in out

    path = write_doc(tmp_path, "huge.json", {"type": "B", "n": [9] * 26})
    code, out, _ = run(capsys, "compute", path)
    assert code == 4
    assert "status: bounds-only, ed >= 0" in out


def test_certify_builtin_text(capsys):
    code, out, _ = run(capsys, "certify", "builtin:pair:1:5")
    assert code == 0
    assert "lower bound 7" in out
    assert "abelian in quotient: yes" in out


def test_certify_builtin_pair23_note(capsys):
    code, out, _ = run(capsys, "certify", "builtin:pair:2:3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["lower_bound"] == 5
    assert doc["notes"] and "c(4,5)" in doc["notes"][0]


def test_certify_unknown_builtin(capsys):
    code, _, err = run(capsys, "certify", "builtin:pair:9:9")
    assert code == 2 and "error" in err
    start = time.monotonic()
    code, out, err = run(capsys, "certify", "builtin:diagonal:1_0:2")
    assert time.monotonic() - start < 10
    assert (code, out) == (2, "")
    assert err.startswith("error: bad built-in certificate key 'diagonal:1_0:2'")


def test_certify_invalid_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "cert.json", BAD_CERT)
    code, out, _ = run(capsys, "certify", path)
    assert code == 5
    assert "NonAbelianQuotient" in out


def test_certify_malformed_certificate(tmp_path, capsys):
    path = write_doc(tmp_path, "cert.json", {"spec": {"type": "B", "n": [1]}})
    code, _, err = run(capsys, "certify", path)
    assert code == 2
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"note": "\xe9"}')
    code, out, err = run(capsys, "certify", str(latin1))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot parse {latin1}: 'utf-8' codec can't decode")


def test_certify_rejects_unknown_certificate_fields(tmp_path, capsys):
    doc = {
        "spec": {"type": "B", "n": [1], "mu_generators": []},
        "generators": [[{"sign": 1, "indices": [1, 2]}]],
        "notes": "a mistyped note",
    }
    path = write_doc(tmp_path, "cert.json", doc)
    code, out, err = run(capsys, "certify", path)
    assert code == 2 and out == ""
    assert "unknown certificate fields: ['notes']" in err


def test_certify_spec_validation_error(tmp_path, capsys):
    doc = {
        "spec": {"type": "B", "n": [1, 1], "mu_generators": [[1, 0]]},
        "generators": [[{"sign": 1, "indices": [1, 2]}, {"sign": 1, "indices": [1, 2]}]],
    }
    path = write_doc(tmp_path, "cert.json", doc)
    code, _, err = run(capsys, "certify", path)
    assert code == 3


def test_certify_closure_cap(capsys):
    # unlike compute, certify prints no partial report when its cap is hit
    code, out, err = run(capsys, "certify", "builtin:diagonal:3:4", "--enum-cap", "100")
    assert code == 4
    assert out == ""
    assert err == "error: closure exceeds the cap of 100 elements\n"


def test_certify_refuses_a_provably_large_closure_up_front(capsys):
    # 401 generators: the order bound 2^402 is over the default cap of 2^24, so
    # certify exits before the search instead of running for minutes
    start = time.monotonic()
    code, out, err = run(capsys, "certify", "builtin:diagonal:200:2")
    assert time.monotonic() - start < 10
    assert (code, out) == (4, "")
    assert err == "error: closure exceeds the cap of 16777216 elements\n"


def test_table(capsys):
    code, out, _ = run(capsys, "table")
    assert code == 0
    assert "[2, 3]" in out
    assert "spin3-power-diagonal" in out
    assert "small-maximal-quotient" in out
    assert "diagonal:<n>:<m>" in out

    code, out, _ = run(capsys, "table", "--json")
    doc = json.loads(out)
    assert {"small_products", "known_cases", "builtin_certificates"} == set(doc)
    assert [1, 1, 1, 1] in doc["small_products"]


def test_batch(tmp_path, capsys):
    write_doc(tmp_path, "a.json", MIXED_DOC)
    write_doc(tmp_path, "b.json", {"type": "B", "n": [2, 2], "mu_generators": [[1, 1]]})
    write_doc(tmp_path, "c.json", {"type": "B", "n": [1, 1], "mu_generators": [[1, 0]]})
    code, out, _ = run(capsys, "batch", str(tmp_path))
    assert code == 3
    assert out.index("== a.json ==") < out.index("== b.json ==") < out.index("== c.json ==")
    assert "status: exact, ed = 53" in out
    assert "error" in out

    code, out, _ = run(capsys, "batch", str(tmp_path), "--json")
    assert code == 3
    doc = json.loads(out)
    assert [e["file"] for e in doc["results"]] == ["a.json", "b.json", "c.json"]
    assert doc["results"][0]["report"]["value"] == 53
    assert doc["results"][2]["exit_code"] == 3


def test_batch_all_good(tmp_path, capsys):
    write_doc(tmp_path, "a.json", MIXED_DOC)
    code, _, _ = run(capsys, "batch", str(tmp_path))
    assert code == 0


def test_batch_missing_directory(tmp_path, capsys):
    code, _, err = run(capsys, "batch", str(tmp_path / "nope"))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [["compute", str(DATA / "c1.json")], ["batch", str(DATA)], ["table", "--json"]],
    ids=["compute", "batch", "table"],
)
def test_closed_stdout_pipe_exits_quietly(argv):
    # the read end is closed before the process starts, so its first write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "edcalc.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_PIPE == 141
    assert proc.stderr == b""


def edcalc_process(argv, **kwargs):
    """Run `python -m edcalc.cli ARGV`, the process entry point `run`, to completion."""
    # without PYTHONUNBUFFERED, stdout to a file or a pipe is block-buffered
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "edcalc.cli", *argv], env=env, timeout=60, **kwargs)


@pytest.mark.parametrize("fmt", ["--text", "--json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", str(DATA / "c1.json")],
        ["batch", str(DATA)],
        ["table"],
        ["certify", "builtin:pair:2:3"],
    ],
    ids=["compute", "batch", "table", "certify"],
)
@pytest.mark.parametrize("sink", ["file", "pipe"])
def test_the_process_prints_what_main_returns(argv, fmt, sink, tmp_path, capsys):
    code = main([*argv, fmt])
    captured = capsys.readouterr()
    if sink == "file":
        out_path = tmp_path / "out"
        with open(out_path, "wb") as out:
            proc = edcalc_process([*argv, fmt], stdout=out, stderr=subprocess.PIPE)
        stdout = out_path.read_bytes()
    else:
        proc = edcalc_process([*argv, fmt], capture_output=True)
        stdout = proc.stdout
    assert proc.returncode == code
    assert stdout == captured.out.encode()
    assert proc.stderr == captured.err.encode()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["compute", str(DATA / "c1.json")], 0),
        (["compute", "missing.json"], 2),
        (["compute", "split.json"], 3),
        (["certify", "builtin:diagonal:3:4", "--enum-cap", "100"], 4),
        (["certify", "bad_cert.json"], 5),
    ],
)
def test_process_exit_codes(argv, code, tmp_path):
    write_doc(tmp_path, "split.json", {"type": "B", "n": [1, 1], "mu_generators": [[1, 0]]})
    write_doc(tmp_path, "bad_cert.json", BAD_CERT)
    assert edcalc_process(argv, cwd=tmp_path, capture_output=True).returncode == code


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv", [["compute", str(DATA / "c1.json")], ["table"]], ids=["compute", "table"]
)
def test_a_report_that_cannot_be_written_exits_74(argv):
    with open("/dev/full", "wb") as full:
        proc = edcalc_process(argv, stdout=full, stderr=subprocess.PIPE)
    assert proc.returncode == EXIT_IOERR == 74
    assert proc.stderr == b"error: cannot write the report: No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize(
    "argv, stdout_full",
    [(["compute", "missing.json"], False), (["compute", str(DATA / "c1.json")], True)],
    ids=["error-line", "report-and-error-line"],
)
def test_an_error_line_that_stderr_cannot_take_exits_74(argv, stdout_full, tmp_path):
    # the error line raises inside main, and so does the line about the failure
    with open("/dev/full", "wb") as full:
        stdout = full if stdout_full else subprocess.PIPE
        proc = edcalc_process(argv, cwd=tmp_path, stdout=stdout, stderr=full)
    assert proc.returncode == EXIT_IOERR
    assert not proc.stdout


def test_the_process_prints_exact_values_of_any_length(tmp_path):
    # 2^40000 has 12042 decimal digits, over Python's default int-to-str limit of 4300
    path = write_doc(
        tmp_path, "wide.json", {"type": "B", "n": [20000, 20000], "mu_generators": [[1, 1]]}
    )
    proc = edcalc_process(["compute", "--json", path], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(proc.stdout)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert doc["status"] == "exact"
    assert doc["lower"] == doc["upper"] == 2**40000 - doc["group_dim"]


def test_the_installed_script_is_the_process_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"edcalc": "edcalc.cli:run"}


def test_main_returns_the_exit_code(capsys):
    code = main(["table", "--json"])
    capsys.readouterr()
    assert type(code) is int and code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--json", "c1.json"],
        ["compute", "c1.json", "--enum-cap=16", "--basis-cap", "007"],
        ["table"],
        ["table", "--json", "--json"],
        ["batch", "--text", "specs"],
        ["certify", "builtin:small4", "--enum-cap", "100", "--enum-cap", "5"],
    ],
)
def test_plain_command_lines_are_read_without_argparse(argv):
    assert read_argv(argv) == vars(build_parser(COMMANDS, FORMATS, CAPS).parse_args(argv))


NUMBERS = st.one_of(
    st.integers(1, 10**20).map(str),
    st.sampled_from(["", "0", "00", "-3", "+5", " 5", "1_0", "\u0661", "\u00b2", "9" * 5000]),
)
ODD_WORDS = st.one_of(
    st.sampled_from(["", "-", "-5", "-x", "a b", "c1.json", "--enum", "--enum=5", "-h", "--"]),
    st.sampled_from([*CAPS, "--json", "--text"]).map("{}=".format),
    st.text(max_size=3),
)


@st.composite
def command_lines(draw):
    """Well-formed command lines, and ones with an odd word, command or number."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, caps, positional = COMMANDS[command]
    words = draw(st.lists(st.sampled_from(["--json", "--text"]), max_size=2))
    # mostly what the command takes; sometimes a missing, extra or dashed argument
    given = ["c1.json"] * 6 if positional is not None else [None] * 6
    words.append(draw(st.sampled_from([*given, None, "c1.json", "-x", "-"])))
    for option in draw(st.lists(st.sampled_from([*caps, *caps, *CAPS]), max_size=2)):
        number = draw(NUMBERS)
        words += [f"{option}={number}"] if draw(st.booleans()) else [option, number]
    words += draw(st.lists(ODD_WORDS, max_size=1))
    command = draw(st.sampled_from([command] * 9 + ["oracle"]))
    return [command, *draw(st.permutations([w for w in words if w is not None]))]


@settings(deadline=None, max_examples=1000)
@given(command_lines())
def test_the_reader_declines_or_agrees_with_argparse(argv):
    read = read_argv(argv)
    if read is not None:
        assert read == vars(build_parser(COMMANDS, FORMATS, CAPS).parse_args(argv))


def test_argparse_rejects_unknown(capsys):
    with pytest.raises(SystemExit) as err:
        main(["compute"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [["certify", "builtin:small4", "--basis-cap", "10"]])
def test_unused_cap_options_are_rejected(argv, capsys):
    # certify never searches bases
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_oracle_command_is_gone(capsys):
    # greedy-versus-exhaustive checks live in the test suite, not the CLI
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--trials", "1"])
    assert err.value.code == 2
    assert "invalid choice: 'oracle'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", str(DATA / "c1.json"), "--enum-cap", "0"],
        ["compute", str(DATA / "rank2_five_diagonal.json"), "--basis-cap", "-1"],
        ["batch", str(DATA), "--basis-cap", "0"],
        ["batch", str(DATA), "--enum-cap", "-5"],
        ["certify", "builtin:small4", "--enum-cap", "0"],
    ],
)
def test_caps_below_one_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


CERT_SPEC = {"type": "B", "n": [1, 1], "mu_generators": [[1, 1]]}


def cert_with_entry(entry):
    return {"spec": CERT_SPEC, "generators": [[entry, {"sign": 1, "indices": [1, 2]}]]}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("compute", {"type": "B", "n": [1, 2], "mu_generators": [[1.0, 1]]}),
        ("compute", {"type": "B", "n": [1, 2], "r_generators": [[1.0, 1]]}),
        ("certify", cert_with_entry({"sign": 1, "indices": [1.0, 2.0]})),
        ("certify", cert_with_entry({"sign": 1, "indices": ["1", 2]})),
        ("certify", cert_with_entry({"sign": True, "indices": [1, 2]})),
    ],
)
def test_non_integer_numbers_are_parse_errors(command, doc, tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", doc)
    code, out, err = run(capsys, command, path)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_batch_reports_the_other_files_past_a_non_integer_spec(tmp_path, capsys):
    write_doc(tmp_path, "a.json", {"type": "B", "n": [1, 2], "mu_generators": [[1.0, 1]]})
    (tmp_path / "b.json").write_bytes(b"\xff\xfe{}")
    write_doc(tmp_path, "c.json", MIXED_DOC)
    code, out, _ = run(capsys, "batch", str(tmp_path), "--json")
    assert code == 2
    a, b, c = json.loads(out)["results"]
    assert a["exit_code"] == 2 and "must be a list of 0/1 rows" in a["error"]
    assert b["exit_code"] == 2 and b["error"].startswith(f"cannot parse {tmp_path / 'b.json'}")
    assert c["report"]["value"] == 53
