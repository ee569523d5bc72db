"""`compute_ed` runs on mu's int rows: the int helpers against the record paths they
replaced, and a count of the records a call still builds."""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

import pytest

from edcalc import BitVec, GroupSpecB, compute_ed, spec_from_doc, validate
from edcalc.core import PatternWeights
from edcalc.documents import certificate_to_doc
from edcalc.extraspecial import builtin_certificate, certificate_from_doc
from edcalc.gf2 import annihilator_bits, bases_bits, rref_bits
from edcalc.ledger import known_case_of_rows

from helpers import bench_workloads, mu_rows
from ledger_reference import reference_known_cases
from records_reference import reference_annihilator, reference_validate
from survey import survey_specs

DATA = Path(__file__).parent / "data"


def corpus() -> list[GroupSpecB]:
    """The survey's specs, both benchmark compute pools at seeds 1 and 7, 400 seeded
    specs with m <= 7 (reduced or not), and the empty spec."""
    workloads = bench_workloads()
    refs = workloads.load_refs()
    specs = [spec for _, _, spec in survey_specs()]
    for seed in (1, 7):
        for name in ("compute-small-bounds", "compute-large"):
            specs += [spec_from_doc(op["doc"]) for op in workloads.build_pool(name, seed, refs)]
    rng = Random(3030)
    for _ in range(400):
        m = rng.randint(1, 7)
        n = tuple(rng.randint(1, 9) for _ in range(m))
        gens = [rng.getrandbits(m) for _ in range(rng.randint(0, m))]
        specs.append(GroupSpecB(n, gens))
    return specs + [GroupSpecB(())]


CORPUS = corpus()


def outcome(fn, spec):
    """What fn gives for the spec, or the type, text and named factor of its error."""
    try:
        return fn(spec)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "factor", None)


def test_the_corpus_holds_reduced_and_rejected_specs():
    rejected = [spec for spec in CORPUS if isinstance(outcome(reference_validate, spec), tuple)]
    assert len(CORPUS) > 800
    assert 50 < len(rejected) < 350
    assert any(spec.m == 0 for spec in rejected)


def test_reduced_rows_equal_the_mu_records():
    for spec in CORPUS:
        expected = outcome(reference_validate, spec)
        if isinstance(expected, tuple):
            assert outcome(validate, spec) == expected, spec
            continue
        assert validate(spec) == expected == mu_rows(spec), spec


def test_dual_rows_span_the_annihilator():
    for spec in CORPUS:
        mu = outcome(reference_validate, spec)
        if isinstance(mu, tuple):
            continue
        rows = annihilator_bits(validate(spec), spec.m)
        expected = reference_annihilator(mu, spec.m)
        assert len(rows) == len(expected) == spec.m - len(mu)
        assert rref_bits(rows) == expected, spec


def test_known_cases_on_rows_equal_the_record_path():
    found = 0
    for spec in CORPUS:
        mu = outcome(reference_validate, spec)
        if isinstance(mu, tuple):
            continue
        expected = reference_known_cases(spec)
        assert known_case_of_rows(validate(spec), spec.m, spec.n) == expected, spec
        found += expected is not None
    assert found >= 40


def test_the_search_enumerates_the_same_bases_from_unreduced_dual_rows():
    searched = 0
    for spec in CORPUS:
        mu = outcome(reference_validate, spec)
        if isinstance(mu, tuple) or spec.m - len(mu) > 4:
            continue
        reduced = reference_annihilator(mu, spec.m)
        rows = annihilator_bits(validate(spec), spec.m)
        for keep in (None, PatternWeights(spec.n).__getitem__):
            got = list(bases_bits(rows, 1 << 24, keep))
            assert got == list(bases_bits(reduced, 1 << 24, keep)), spec
        searched += 1
    assert searched > 300


@pytest.fixture
def count_records(monkeypatch):
    """Runs a call and returns its result with the number of BitVec records it built."""
    built = 0
    bitvec_init = BitVec.__init__

    def count_bitvec(self, *args):
        nonlocal built
        built += 1
        bitvec_init(self, *args)

    monkeypatch.setattr(BitVec, "__init__", count_bitvec)

    def run(fn, *args, **kwargs):
        nonlocal built
        built = 0
        return fn(*args, **kwargs), built

    return run


def load_spec(name: str) -> GroupSpecB:
    return spec_from_doc(json.loads((DATA / name).read_text()))


@pytest.mark.parametrize(
    "name, cap, warnings",
    [
        ("c1.json", 1 << 24, ()),  # exact: no ledger lookup, no search
        ("rank2_five_diagonal.json", 1 << 24, ()),  # bounds-only: 840 bases searched
        ("rank2_five_diagonal.json", 15, ("basis-cap-exceeded",)),
        ("rank2_five_diagonal.json", 14, ("element-cap-exceeded",)),  # no basis at all
        ("dual6_small_diagonal.json", 1 << 24, ("basis-cap-exceeded",)),
    ],
    ids=["c1", "bounds-only", "search-capped", "greedy-capped", "dual6-capped"],
)
def test_compute_ed_builds_only_the_minimal_basis_records(count_records, name, cap, warnings):
    spec = load_spec(name)
    result, built = count_records(compute_ed, spec, enum_cap=cap)
    assert result.warnings == warnings
    assert built == len(result.minimal_basis)
    if name == "c1.json":
        assert len(result.minimal_basis) == spec.m - len(validate(spec)) == 2


def test_the_count_sees_the_records_of_the_public_wrappers(count_records):
    # validate hands out mu's rows, and the spec and certificate readers keep mu's
    # generators as ints: none builds a record, while the count sees BitVec(m, bits)
    spec = load_spec("c1.json")
    rows, built = count_records(validate, spec)
    assert built == 0 and len(rows) == 2
    dual = [[r >> i & 1 for i in range(spec.m)] for r in annihilator_bits(rows, spec.m)]
    again, built = count_records(GroupSpecB.from_dual_rows, spec.n, dual)
    assert validate(again) == rows and built == 0
    cert, built = count_records(builtin_certificate, "diagonal:1:3")
    doc = certificate_to_doc(cert)
    assert built == 0 and count_records(certificate_from_doc, doc)[1] == 0
    assert count_records(spec_from_doc, doc["spec"])[1] == 0
    assert count_records(BitVec, spec.m, rows[0])[1] == 1
