"""Scaling curves of edcalc, kept out of the repeated benchmark runs.

    python3 bench/scaling.py [--budget 60]

Two series, run from the repository root:
  compute  compute_ed with trivial mu and factor ranks 7..12, dual dimension k = 8..20
  certify  verify_certificate on builtin:diagonal:n:3, n = 2..9

Each row runs in its own process under a wall-time budget.  A row over budget
is stopped and reported as such, and the larger rows of its series are not
started.  The table is printed and written to .bench_out/scaling.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

from workloads import ROOT

SERIES = {"compute": range(8, 21), "certify": range(2, 10)}


def run_row(kind: str, size: int) -> dict:
    """Body of one row, in a child process."""
    sys.path.insert(0, str(ROOT / "src"))
    import edcalc

    if kind == "compute":
        spec = edcalc.GroupSpecB(tuple(7 + i % 6 for i in range(size)))
        t0 = time.perf_counter()
        result = edcalc.compute_ed(spec)
        return {"seconds": time.perf_counter() - t0, "status": result.status, "value": result.value}
    cert = edcalc.builtin_certificate(f"diagonal:{size}:3")
    t0 = time.perf_counter()
    try:
        report = edcalc.verify_certificate(cert)
    except edcalc.EnumerationTooLargeError as exc:
        return {"seconds": time.perf_counter() - t0, "capped": str(exc)}
    return {"seconds": time.perf_counter() - t0, "order": report.subgroup_order, "rank": report.rank}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--budget", type=float, default=60.0, help="seconds per row (default %(default)s)")
    p.add_argument("--row", nargs=2, metavar=("KIND", "SIZE"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.row:
        print(json.dumps(run_row(args.row[0], int(args.row[1]))))
        return 0

    rows = []
    for kind, sizes in SERIES.items():
        over = False
        for size in sizes:
            row = {"series": kind, "size": size}
            if over:
                row["result"] = "not run: a smaller row was over budget"
            else:
                try:
                    proc = subprocess.run(
                        [sys.executable, __file__, "--row", kind, str(size)],
                        capture_output=True, text=True, timeout=args.budget, check=True,
                    )  # fmt: skip
                    row.update(json.loads(proc.stdout))
                except subprocess.TimeoutExpired:
                    over = True
                    row["result"] = f"over budget ({args.budget:g} s)"
            rows.append(row)
            print(json.dumps(row), flush=True)
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "scaling.json").write_text(json.dumps({"budget_s": args.budget, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
