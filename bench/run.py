"""Layered benchmark of edcalc: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload compute-large --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  Each
workload is single-process, single-client and closed-loop: the next op starts
when the previous one returns.  Every answer is checked against stored
references (``refs.json``) or, for seeds without references, against
invariants.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
and the tracing overhead.  Details of the run, with the seed, the Python
version and the processor count, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from calib import REF_START_S, speed_scale, time_start
from workloads import BENCH_DIR, ROOT, WORKLOADS

SETUP_ONLY_RUNS = 6
START_SAMPLES = 2  # bare interpreter starts timed before and after each set-up
RUN_BUDGET_S = 170.0
OUT_DIR = ROOT / ".bench_out"


class RunError(RuntimeError):
    """A benchmark process failed; the run prints no result."""


def spawn_worker(args: argparse.Namespace, deadline: float, setup_only: bool) -> tuple[dict, float, float]:
    """Start worker.py, wait for it, and return its report and its wall and speed-scaled set-up time."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + (["--setup-only"] if setup_only else [])  # fmt: skip
    samples = [time_start() for _ in range(START_SAMPLES)]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RunError("worker exceeded the run budget") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError("worker printed no report")
    report = json.loads(lines[-1])
    wall = report["ready_at"] - started
    samples += [time_start() for _ in range(START_SAMPLES)]
    return report, wall, wall * speed_scale(samples, REF_START_S)


def end_to_end(report: dict, setup_s: float) -> dict[str, tuple[float, str]]:
    n = report["attempted"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (report["ops_per_s"], "1/s"),
        "op_ms_p50": (report["op_ms_p50"], "ms"),
        "op_ms_p90": (report["op_ms_p90"], "ms"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "ok_ratio": ((n - report["failed"]) / n, "ratio"),
        "complete_ratio": ((n - report["capped"]) / n, "ratio"),
    }


def provenance(args: argparse.Namespace) -> dict:
    with open(BENCH_DIR / "provenance.json", encoding="utf-8") as fh:
        static = json.load(fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "model": static["model"],
        "workload_notes": static["workloads"][args.workload],
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "edcalc" / "__init__.py").is_file():
        print(f"error: no edcalc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = [spawn_worker(args, deadline, True)[1:] for _ in range(SETUP_ONLY_RUNS)]
        report, *setup = spawn_worker(args, deadline, False)
    except (RunError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(tuple(setup))
    setup_s = statistics.median(scaled for _, scaled in setups)

    if args.trace:
        metrics = {k: (v["value"], v["unit"]) for k, v in report["layers"].items()}
    else:
        metrics = end_to_end(report, setup_s)
    n = report["attempted"]
    details = {
        "provenance": provenance(args),
        "setup_samples_s": setups,
        "fail_ratio": report["failed"] / n,
        "capped_ratio": report["capped"] / n,
        "report": report,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")

    parts = [report["untraced"], report["traced"]] if args.trace else [report]
    prov = details["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  python {prov['python']}  nproc {prov['nproc']}"
          f"  closed loop, 1 client  pool {report['pool_size']} ops")  # fmt: skip
    print(f"attempted {n}  failed {report['failed']}  fail_ratio {details['fail_ratio']:.4f}"
          f"  capped_ratio {details['capped_ratio']:.4f}")  # fmt: skip
    print(f"set-up wall s {[round(w, 3) for w, _ in setups]}  scaled s {[round(x, 3) for _, x in setups]}")
    for part in parts:
        print(f"wall clock: ops_per_s {part['wall_ops_per_s']:.3f}  op_ms_p50 {part['wall_op_ms_p50']:.3f}"
              f"  op_ms_p90 {part['wall_op_ms_p90']:.3f}  speed sample median {part['sample_ms_median']:.3f} ms"
              f"  speed scale {part['speed_scale']:.3f}")  # fmt: skip
    for problem in [f for part in parts for f in part["failures"]]:
        print(f"failure: {problem}")
    if args.trace and report["absent"]:
        print(f"absent layers: {', '.join(report['absent'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:14.6f} {unit}")
    print(f"details: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": n,
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))  # fmt: skip
    return 0


if __name__ == "__main__":
    sys.exit(main())
