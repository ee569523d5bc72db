"""Regenerate refs.json: reference answers of the current edcalc for the benchmark inputs.

Run from the repository root:  python3 bench/make_refs.py

References cover the built-in certificates the certify and cli workloads use,
the ``table`` output, the base specs of the compute workloads (every seed
relabels the same ones), and every spec the cli workload generates for the
seeds in ``workloads.REF_SEEDS``.  Regenerate only when the input
generators change; a program change is checked against the stored answers.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    CERT_KEYS,
    CLI_CERT_KEYS,
    REF_SEEDS,
    REFS_PATH,
    ROOT,
    answer_from_result,
    compute_docs,
    report_answer,
    spec_key,
    table_answer,
)

sys.path.insert(0, str(ROOT / "src"))

from edcalc import builtin_certificate, certificate_to_doc, compute_ed, spec_from_doc  # noqa: E402
from edcalc import verify_certificate  # noqa: E402
from edcalc.cli import BUILTIN_CERTIFICATE_ROWS, KNOWN_CASE_ROWS, SMALL_PRODUCTS  # noqa: E402


def main() -> int:
    builtins = {}
    for key in dict.fromkeys(CERT_KEYS + CLI_CERT_KEYS):
        cert = builtin_certificate(key)
        builtins[key] = {
            "doc": certificate_to_doc(cert),
            "report": report_answer(verify_certificate(cert)),
        }
    table = table_answer(
        {
            "small_products": [list(t) for t in sorted(SMALL_PRODUCTS, key=lambda t: (len(t), t))],
            "known_cases": KNOWN_CASE_ROWS,
            "builtin_certificates": BUILTIN_CERTIFICATE_ROWS,
        }
    )
    refs = {"builtins": builtins, "table": table, "specs": {}}
    for seed in REF_SEEDS:
        for workload in ("compute-large", "compute-small-bounds", "cli"):
            for doc in compute_docs(workload, seed, refs):
                key = spec_key(doc)
                if key not in refs["specs"]:
                    refs["specs"][key] = answer_from_result(compute_ed(spec_from_doc(doc)))
        print(f"seed {seed}: {len(refs['specs'])} specs", file=sys.stderr)
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
