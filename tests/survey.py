"""Answer-quality survey: a fixed set of specs and what `compute_ed` answers on each.

The set is the sorted rank tuples with m = 2..5 factors of ranks 1..4, under
diagonal and under maximal mu; the single factors of ranks 1..13; and five
structured specs with m = 64.  `tests/test_survey.py` recomputes every answer
and compares it with `tests/data/survey.json`, and each full report, `--json`
and text, with its digest in `tests/data/survey_reports.json`.  After a
deliberate change to an answer or a report, rewrite both files and review
their diffs:

    PYTHONPATH=src python tests/survey.py

This also prints the summary counts of the README's "Answer quality" section.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Iterator

from edcalc import STATUS_EXACT, EdResult, GroupSpecB, compute_ed
from edcalc.cli_compute import render_result_text, result_to_doc

SURVEY_FILE = Path(__file__).resolve().parent / "data" / "survey.json"
REPORTS_FILE = SURVEY_FILE.with_name("survey_reports.json")

# ranks 7..12 repeated over 64 factors
CYCLE = tuple(7 + i % 6 for i in range(64))


def blocks_mu(m: int, size: int) -> tuple[int, ...]:
    """The sign flip of each block of `size` consecutive factors."""
    block = (1 << size) - 1
    return tuple(block << i for i in range(0, m, size))


def survey_specs() -> Iterator[tuple[str, str, GroupSpecB]]:
    """(group, label, spec) for every spec of the survey, in a fixed order."""
    # the all-ones row generates the diagonal mu, and as the dual row the maximal mu
    builders = (("diagonal", GroupSpecB.from_mu_rows), ("maximal", GroupSpecB.from_dual_rows))
    for kind, build in builders:
        for m in range(2, 6):
            for n in combinations_with_replacement(range(1, 5), m):
                label = f"{kind} {','.join(map(str, n))}"
                yield kind, label, build(n, [[1] * m])
    for r in range(1, 14):
        yield "single", f"single {r}", GroupSpecB((r,))
    yield "m64", "m64 diagonal cycle7-12", GroupSpecB.from_mu_rows(CYCLE, [[1] * 64])
    for size in (8, 4, 2):
        label = f"m64 blocks-{64 // size}x{size} cycle7-12"
        yield "m64", label, GroupSpecB(CYCLE, blocks_mu(64, size))
    yield "m64", "m64 diagonal 7x64", GroupSpecB.from_mu_rows((7,) * 64, [[1] * 64])


def answer(result: EdResult) -> dict:
    """The pinned part of a report: status, bounds and warnings."""
    return {
        "status": result.status,
        "lower": result.lower,
        "upper": result.upper,
        "warnings": list(result.warnings),
    }


def report_digests(result: EdResult) -> list[str]:
    """SHA-256 digests, 16 hex digits each, of the `--json` report as `edcalc compute`
    prints it and of the text report: the whole report, trace and basis included."""
    texts = (json.dumps(result_to_doc(result), indent=2), render_result_text(result))
    return [hashlib.sha256(t.encode()).hexdigest()[:16] for t in texts]


def load(path: Path = SURVEY_FILE) -> dict:
    return json.loads(path.read_text())


def dumps(answers: dict[str, dict]) -> str:
    """One spec per line, so that a changed answer is a one-line diff."""
    lines = [f"  {json.dumps(label)}: {json.dumps(a)}" for label, a in answers.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def summary(answers: dict[str, dict]) -> dict[str, Counter]:
    """Per group: exact and bounds-only specs, lower = 0, no upper bound, capped."""
    groups = {label: group for group, label, _ in survey_specs()}
    counts: dict[str, Counter] = {}
    for label, a in answers.items():
        c = counts.setdefault(groups[label], Counter())
        c["exact" if a["status"] == STATUS_EXACT else "bounds-only"] += 1
        c["lower = 0"] += a["lower"] == 0
        c["no upper"] += a["upper"] is None
        c["capped"] += bool(a["warnings"])
    return counts


def main() -> None:
    results = {label: compute_ed(spec) for _, label, spec in survey_specs()}
    answers = {label: answer(result) for label, result in results.items()}
    SURVEY_FILE.write_text(dumps(answers))
    REPORTS_FILE.write_text(dumps({label: report_digests(r) for label, r in results.items()}))
    print(f"wrote {len(answers)} answers to {SURVEY_FILE} and their digests to {REPORTS_FILE}")
    for group, c in summary(answers).items():
        print(f"{group}: " + ", ".join(f"{c[key]} {key}" for key in
              ("exact", "bounds-only", "lower = 0", "no upper", "capped")))


if __name__ == "__main__":
    main()
