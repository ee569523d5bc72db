"""The answer-quality survey, pinned in tests/data/survey.json, and its guard rails."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from edcalc import builtin_certificate, compute_ed, spec_from_doc, verify_certificate
from edcalc.core import group_dim

from helpers import brute_bounds, check_restricted_greedy, dual_rows
from survey import REPORTS_FILE, answer, load, report_digests, summary, survey_specs

# the certify benchmark's built-in keys: every pair, small3 and small4 key, and
# the diagonal keys up to image order 2^10
CERT_KEYS = (
    "diagonal:1:2", "diagonal:1:3", "diagonal:1:5", "diagonal:1:7",
    "diagonal:2:2", "diagonal:2:3", "diagonal:2:5",
    "diagonal:3:2", "diagonal:3:3", "diagonal:3:4",
    "diagonal:4:2", "diagonal:4:3",
    "pair:1:2", "pair:1:3", "pair:1:4", "pair:1:5", "pair:2:3",
    "small3:1", "small3:2", "small3:3", "small4",
)  # fmt: skip


@pytest.fixture(scope="module")
def reports():
    """Label -> (spec, report) for every survey spec."""
    return {label: (spec, compute_ed(spec)) for _, label, spec in survey_specs()}


def test_answers_equal_the_pinned_file(reports):
    pinned = load()
    got = {label: answer(result) for label, (_, result) in reports.items()}
    assert list(got) == list(pinned)
    changed = {label: (pinned[label], a) for label, a in got.items() if a != pinned[label]}
    assert not changed, "regenerate with tests/survey.py if intended: " + repr(changed)


def test_full_reports_equal_the_pinned_digests(reports):
    # the whole --json and text report of every spec, trace and basis included
    pinned = load(REPORTS_FILE)
    got = {label: report_digests(result) for label, (_, result) in reports.items()}
    assert list(got) == list(pinned)
    changed = [label for label, d in got.items() if d != pinned[label]]
    assert not changed, "regenerate with tests/survey.py if intended: " + repr(changed)


def test_counts_equal_the_baseline(reports):
    answers = {label: answer(result) for label, (_, result) in reports.items()}
    counts = summary(answers)
    diagonal, maximal, single, m64 = (counts[g] for g in ("diagonal", "maximal", "single", "m64"))
    assert (diagonal["exact"], diagonal["bounds-only"], diagonal["lower = 0"]) == (28, 93, 62)
    zero = [a for label, a in answers.items() if label.startswith("diagonal") and a["lower"] == 0]
    assert sum(a["upper"] is not None for a in zero) == 41
    assert (maximal["exact"], maximal["bounds-only"], maximal["lower = 0"]) == (114, 7, 0)
    # Spin(3)..Spin(13) report 0 <= ed with no upper bound; Spin(15) on are exact
    assert (single["bounds-only"], single["lower = 0"], single["no upper"]) == (6, 6, 6)
    # the three block specs are exact, since the greedy walks each block of mu alone
    assert (m64["bounds-only"], m64["capped"]) == (2, 2)
    assert answers["m64 diagonal 7x64"]["lower"] == 77


def test_lower_never_exceeds_upper(reports):
    for label, (_, result) in reports.items():
        assert result.upper is None or result.lower <= result.upper, label


@pytest.mark.parametrize("key", CERT_KEYS)
def test_builtin_certificate_rank_is_within_the_upper_bound(key):
    # a certificate above the computed upper bound means one of the two is wrong
    cert = builtin_certificate(key)
    report = verify_certificate(cert)
    assert report.lower_bound == report.rank
    upper = compute_ed(cert.spec).upper
    assert upper is None or report.rank <= upper, (key, report.rank, upper)


def assert_matches_the_exhaustive_oracles(spec, result) -> bool:
    """The greedy total and the upper-bound search against `brute_bounds`, which
    enumerates every basis; returns whether the search ran."""
    least, best, candidates = brute_bounds(dual_rows(spec), spec.n)
    assert result.basis_total_weight == least, spec
    search = [t.citation for t in result.trace if t.rule == "upper-bound-search"]
    if not search:
        return False
    assert result.upper == (None if best is None else best - group_dim(spec.n)), spec
    count = re.match(r"best of (\d+) bases", search[0])
    assert (int(count.group(1)) if count else 0) == candidates, spec
    return True


def test_small_duals_match_the_exhaustive_oracles(reports):
    searched = 0
    for spec, result in reports.values():
        if len(dual_rows(spec)) <= 4:
            searched += assert_matches_the_exhaustive_oracles(spec, result)
    assert searched > 50


def test_dual_dimension_five_matches_the_exhaustive_oracles():
    # (1,1,2,3,1,2) under diagonal mu: 2352 of the 83328 bases avoid small products
    doc = json.loads((Path(__file__).parent / "data" / "dual5_small_diagonal.json").read_text())
    spec = spec_from_doc(doc)
    assert len(dual_rows(spec)) == 5
    assert assert_matches_the_exhaustive_oracles(spec, compute_ed(spec))


def test_restricted_greedy_gives_the_upper_bound_search_result(reports):
    # groundwork for an upper bound without the basis search: the greedy over the
    # non-small patterns against every search the survey runs.  On 61 of the 106
    # the walk's bound ends its stream before that greedy holds a basis.
    searched = fell_short = 0
    for spec, result in reports.values():
        search = [t.citation for t in result.trace if t.rule == "upper-bound-search"]
        if not search or search[0].endswith("search skipped"):
            continue
        searched += 1
        best = None if result.upper is None else result.upper + group_dim(spec.n)
        fell_short += check_restricted_greedy(spec, best)
    assert searched == 106 and fell_short <= 61
