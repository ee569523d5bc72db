"""Byte-for-byte reports of the command line, pinned by files under tests/data.

The files were written by the calculator before the known-case ledger became
one registry, the rank-7 report before the greedy sorted one int key per
pattern, the help texts before the certificate layer was imported only by
certify, and the dual-dimension-5 report before the upper-bound search
enumerated only the bases without small factor products, and the
dual-dimension-6 report before the basis search became one loop over
combinations, and the failing certificate's report before it was built from
the report record's fields; every report must stay exactly as it was.  The
compute, certify and batch help texts and the dual-dimension-6 report's capped
search line were rewritten when --enum-cap became the one cap option.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from edcalc.cli import main

DATA = Path(__file__).parent / "data"

# (golden file, exit code, argv); spec and certificate arguments name files in DATA,
# certificates in a subdirectory that batch over DATA does not read
CASES = [
    ("table_text", 0, ["table"]),
    ("table_json", 0, ["table", "--json"]),
    ("compute_c1", 0, ["compute", "--json", "c1.json"]),
    # twelve rank-7 factors: k = 11 and 66 tied weight-2 patterns pin the tie-break
    ("compute_rank7_twelve_diagonal", 0, ["compute", "--json", "rank7_twelve_diagonal.json"]),
    ("compute_known_exact_formula", 0, ["compute", "--json", "spin3_cube_diagonal.json"]),
    ("compute_known_exact_table", 0, ["compute", "--json", "pair_3_1_diagonal.json"]),
    ("compute_known_lower_upper", 0, ["compute", "--json", "rank2_five_diagonal.json"]),
    ("compute_known_lower_pair", 0, ["compute", "--json", "pair_1_5_diagonal.json"]),
    ("compute_known_lower_maximal", 0, ["compute", "--json", "spin3_four_maximal.json"]),
    (
        "compute_capped_exact",
        0,
        ["compute", "--json", "--enum-cap", "16", "spin3_six_diagonal.json"],
    ),
    (
        "compute_capped_lower",
        4,
        ["compute", "--json", "--enum-cap", "8", "rank2_five_diagonal.json"],
    ),
    # dual dimension 5: the upper-bound search keeps 2352 of the 83328 bases
    ("compute_dual5_small", 0, ["compute", "dual5_small_diagonal.json"]),
    # dual dimension 6: 27998208 bases exceed the default cap of 2^24, so the search is skipped
    ("compute_dual6_small", 4, ["compute", "dual6_small_diagonal.json"]),
    ("certify_pair_2_3", 0, ["certify", "--json", "builtin:pair:2:3"]),
    # a failing certificate: exit 5, failure_reason set, notes empty
    (
        "certify_nonabelian_quotient",
        5,
        ["certify", "--json", "certificates/nonabelian_quotient.json"],
    ),
]


@pytest.mark.parametrize("name,code,argv", CASES, ids=[c[0] for c in CASES])
def test_report_is_byte_identical(name, code, argv, capsys):
    args = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert main(args) == code
    assert capsys.readouterr().out == (DATA / f"{name}.out").read_text(encoding="utf-8")


# (golden file, argv); the help texts were written at 80 terminal columns
HELP_CASES = [
    ("help", []),
    ("help_compute", ["compute"]),
    ("help_certify", ["certify"]),
    ("help_table", ["table"]),
    ("help_batch", ["batch"]),
]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_is_byte_identical(name, argv, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == (DATA / f"{name}.out").read_text(encoding="utf-8")
