"""One benchmark process: set up a workload, then run it closed-loop and report.

Started by run.py, which times set-up from spawn to the ``ready_at`` stamp
this process reports.  The last stdout line is a JSON object with the loop's
counts, latencies and peak memory, and with layer metrics when traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calib import (
    NEIGHBOURS,
    REF_KERNEL_S,
    REF_START_S,
    scale_times,
    speed_scale,
    time_kernel,
    time_start,
)
from workloads import (
    BENCH_DIR,
    C1_DOC,
    ROOT,
    WORKLOADS,
    answer_from_doc,
    answer_from_result,
    answer_from_text,
    build_pool,
    check_certificate,
    check_compute,
    load_refs,
    report_answer,
    report_from_text,
    spec_key,
    table_answer,
    workload_rng,
)

SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
OP_DEADLINE_S = 10.0
SAMPLE_EVERY_S = 0.025  # at most this much loop time passes between two speed samples
EXIT_CAP = 4
EXIT_CERT = 5


class OpDeadline(BaseException):
    """Raised in an in-process op that ran past its deadline."""


def _on_alarm(signum, frame):
    raise OpDeadline()


def import_edcalc():
    sys.path.insert(0, str(SRC))
    import edcalc
    import edcalc.cli

    if Path(edcalc.__file__).resolve().parent != SRC / "edcalc":
        raise ImportError(f"edcalc imported from {edcalc.__file__}, not from {SRC}")
    return edcalc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class InProcess:
    """Runs compute and certify ops by calling the package directly."""

    ref_s = REF_KERNEL_S

    def __init__(self, edcalc, pool: list[dict], refs: dict):
        self.ed = edcalc
        self.refs = refs
        for op in pool:
            if op["op"] == "compute":
                op["spec"] = edcalc.spec_from_doc(op["doc"])
        signal.signal(signal.SIGALRM, _on_alarm)

    def speed_sample(self) -> float:
        return time_kernel()

    def warm_up(self) -> None:
        self.ed.compute_ed(self.ed.spec_from_doc(C1_DOC))
        self.ed.verify_certificate(self.ed.builtin_certificate("small3:1"))

    def run(self, op: dict) -> tuple[float, str | None, bool]:
        """(seconds, failure or None, capped) for one op."""
        ed = self.ed
        result = None
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        t0 = time.perf_counter()
        try:
            if op["op"] == "compute":
                result = ed.compute_ed(op["spec"])
            elif op["op"] == "builtin":
                result = ed.verify_certificate(ed.builtin_certificate(op["key"]))
            else:
                result = ed.verify_certificate(ed.certificate_from_doc(json.loads(op["text"])))
        except OpDeadline:
            problem = f"deadline of {OP_DEADLINE_S} s exceeded"
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            problem = f"raised {type(exc).__name__}: {exc}"
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        capped = False
        if result is not None and op["op"] == "compute":
            ans = answer_from_result(result)
            problem = check_compute(op["doc"], ans, self.refs, op["base"])
            capped = ans["capped"]
        elif result is not None:
            problem = check_certificate(report_answer(result), op["expect"])
        if problem is not None:
            problem = f"{op.get('label') or spec_key(op['doc'])}: {problem}"
        return dt, problem, capped

    def close(self) -> None:
        pass


class Processes:
    """Runs each cli op as one ``edcalc`` process; traced ops go through launch.py."""

    ref_s = REF_START_S

    def __init__(self, pool: list[dict], refs: dict):
        self.pool = pool
        self.refs = refs
        self.env = child_env()
        OUT_DIR.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="cli-")
        self.dir = Path(self._tmp.name)
        (self.dir / "batch").mkdir()
        for op in pool:
            files = {f"batch/{name}": doc for name, doc in op.get("batch", {}).items()}
            if "doc" in op:
                files[op["args"][-1]] = op["doc"]
            for name, doc in files.items():
                (self.dir / name).write_text(json.dumps(doc), encoding="utf-8")
        self.tracer = None
        self.stats_path = self.dir / "stats.json"
        self.import_ns = 0

    def argv(self, op: dict) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "edcalc.cli", *op["args"]]
        return [sys.executable, str(BENCH_DIR / "launch.py"), str(self.stats_path), *op["args"]]

    def speed_sample(self) -> float:
        return time_start(self.env)

    def warm_up(self) -> None:
        self.run(self.pool[0])

    def run(self, op: dict) -> tuple[float, str | None, bool]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                self.argv(op), cwd=self.dir, env=self.env, capture_output=True,
                text=True, timeout=OP_DEADLINE_S,
            )  # fmt: skip
        except subprocess.TimeoutExpired:
            return time.perf_counter() - t0, f"deadline of {OP_DEADLINE_S} s exceeded", False
        dt = time.perf_counter() - t0
        if self.tracer is not None and self.stats_path.exists():
            data = json.loads(self.stats_path.read_text(encoding="utf-8"))
            self.stats_path.unlink()
            self.import_ns += data.pop("import_ns")
            self.tracer.merge(data)
        try:
            problem, capped = self.check(op, proc.returncode, proc.stdout)
        except (ValueError, KeyError, TypeError) as exc:
            problem, capped = f"unreadable output ({type(exc).__name__}: {exc})", False
        if problem is not None:
            problem = f"edcalc {' '.join(op['args'])}: {problem}; stderr: {proc.stderr[-300:]!r}"
        return dt, problem, capped

    def check(self, op: dict, code: int, out: str) -> tuple[str | None, bool]:
        kind = op["check"]
        if kind.startswith("compute"):
            ans = answer_from_doc(json.loads(out)) if kind == "compute-json" else answer_from_text(out)
            want = EXIT_CAP if ans["capped"] and ans["status"] != "exact" else 0
            if code != want:
                return f"exit code {code}, expected {want}", ans["capped"]
            return check_compute(op["doc"], ans, self.refs), ans["capped"]
        if kind.startswith("certify"):
            got = report_answer(json.loads(out)) if kind == "certify-json" else report_from_text(out)
            want = 0 if op["expect"]["lower_bound"] is not None else EXIT_CERT
            if code != want:
                return f"exit code {code}, expected {want}", False
            return check_certificate(got, op["expect"]), False
        if kind == "table-json":
            if code != 0:
                return f"exit code {code}", False
            got = table_answer(json.loads(out))
            return (None if got == self.refs["table"] else f"table differs: {got}"), False
        # batch-json
        results = json.loads(out)["results"]
        names = sorted(op["batch"])
        if [r["file"] for r in results] != names:
            return f"batch files {[r['file'] for r in results]}, expected {names}", False
        capped = False
        for r in results:
            if "report" not in r:
                return f"{r['file']}: {r.get('error')}", False
            ans = answer_from_doc(r["report"])
            capped |= ans["capped"]
            problem = check_compute(op["batch"][r["file"]], ans, self.refs)
            if problem is not None:
                return f"{r['file']}: {problem}", capped
        return None, capped

    def close(self) -> None:
        self._tmp.cleanup()


def run_loop(runner, pool: list[dict], seconds: float, rng, tracer=None) -> dict:
    """Closed loop over whole shuffled passes of the pool until ``seconds`` have passed.

    A pass is cut short only when the loop overruns ``seconds`` by more than
    ``seconds`` plus one op deadline, so a pathological slowdown cannot hang.
    The runner's speed sample is taken between ops, at least every
    ``SAMPLE_EVERY_S``, and never inside an op's timing.
    """
    times: list[float] = []
    marks: list[int] = []
    failures: list[str] = []
    failed = capped = 0
    order = list(range(len(pool)))
    hard_stop = 2 * seconds + OP_DEADLINE_S
    samples = [runner.speed_sample() for _ in range(NEIGHBOURS)]
    start = last_sample = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rng.shuffle(order)
        for i in order:
            marks.append(len(samples))
            dt, problem, was_capped = runner.run(pool[i])
            if tracer is not None:
                tracer.reset_stack()
            times.append(dt)
            capped += was_capped
            if problem is not None:
                failed += 1
                if len(failures) < 5:
                    failures.append(problem)
            if time.perf_counter() - last_sample >= SAMPLE_EVERY_S:
                samples.append(runner.speed_sample())
                last_sample = time.perf_counter()
            if time.perf_counter() - start > hard_stop:
                break
    elapsed = time.perf_counter() - start
    samples.extend(runner.speed_sample() for _ in range(NEIGHBOURS))
    return {"times": times, "marks": marks, "samples": samples, "ref_s": runner.ref_s,
            "failed": failed, "capped": capped, "elapsed": elapsed, "failures": failures}  # fmt: skip


def percentiles_ms(times: list[float]) -> tuple[float, float]:
    """(p50, p90) in milliseconds."""
    p90 = statistics.quantiles(times, n=10)[8] if len(times) >= 2 else times[0]
    return statistics.median(times) * 1e3, p90 * 1e3


def summarize(loop: dict) -> dict:
    """Loop metrics on speed-scaled op times, with the wall-clock figures beside them."""
    scaled = scale_times(loop["times"], loop["marks"], loop["samples"], loop["ref_s"])
    n = len(scaled)
    p50, p90 = percentiles_ms(scaled)
    wall_p50, wall_p90 = percentiles_ms(loop["times"])
    return {
        "attempted": n,
        "failed": loop["failed"],
        "capped": loop["capped"],
        "elapsed_s": loop["elapsed"],
        "ops_per_s": n / sum(scaled),
        "op_ms_p50": p50,
        "op_ms_p90": p90,
        "wall_ops_per_s": n / sum(loop["times"]),
        "wall_op_ms_p50": wall_p50,
        "wall_op_ms_p90": wall_p90,
        "sample_ms_median": statistics.median(loop["samples"]) * 1e3,
        "speed_scale": speed_scale(loop["samples"], loop["ref_s"]),
        "failures": loop["failures"],
    }


def focus_share(workload: str, layers: dict, op_ms: float) -> float:
    """Share of op time in the layers the workload was chosen to stress."""
    def ms(name):
        return layers[f"{name}.self_ms"][0]

    if workload == "compute-large":
        part = ms("gf2.enumerate_elements") + ms("core.greedy_min_basis")
    elif workload == "compute-small-bounds":
        part = ms("core.compute_ed") + ms("gf2.enumerate_bases")
    elif workload == "certify":
        part = ms("extraspecial.closure") + ms("extraspecial.quotient_rank")
    else:
        part = layers["cli.interpreter_ms"][0] + layers["cli.import_ms"][0]
    return part / op_ms if op_ms else 0.0


def traced_run(workload: str, runner, pool, seconds: float, rng) -> dict:
    """Half the time untraced, half traced on the same inputs; per-layer metrics per op."""
    from tracer import Tracer, layer_metrics

    plain = summarize(run_loop(runner, pool, seconds / 2, rng))
    tracer = Tracer()
    if isinstance(runner, Processes):
        runner.tracer = tracer
    else:
        tracer.install()
    try:
        loop = run_loop(runner, pool, seconds / 2, rng, tracer)
    finally:
        tracer.uninstall()
    traced = summarize(loop)
    ops = traced["attempted"]
    layers = layer_metrics(tracer, ops)
    op_ms = sum(loop["times"]) * 1e3 / ops
    if isinstance(runner, Processes):
        layers["cli.interpreter_ms"] = (statistics.median(loop["samples"]) * 1e3, "ms")
        layers["cli.import_ms"] = (runner.import_ns / 1e6 / ops, "ms")
    else:
        layers["cli.interpreter_ms"] = (0.0, "ms")
        layers["cli.import_ms"] = (0.0, "ms")
    layers["trace.op_ms"] = (op_ms, "ms")
    layers["trace.focus_share"] = (focus_share(workload, layers, op_ms), "ratio")
    layers["trace.overhead_ratio"] = (plain["ops_per_s"] / traced["ops_per_s"], "ratio")
    layers["trace.absent_layers"] = (float(len(tracer.absent)), "count")
    return {
        "attempted": plain["attempted"] + ops,
        "failed": plain["failed"] + traced["failed"],
        "capped": plain["capped"] + traced["capped"],
        "untraced": plain,
        "traced": traced,
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "absent": tracer.absent,
        "edges": {f"{a} -> {b}": c for (a, b), c in sorted(tracer.edges.items())},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    edcalc = import_edcalc()
    refs = load_refs()
    pool = build_pool(args.workload, args.seed, refs)
    if args.workload == "cli":
        runner = Processes(pool, refs)
    else:
        runner = InProcess(edcalc, pool, refs)
    try:
        runner.warm_up()
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0
        rng = workload_rng(f"{args.workload}/order", args.seed)
        if args.trace:
            report = traced_run(args.workload, runner, pool, args.seconds, rng)
        else:
            report = summarize(run_loop(runner, pool, args.seconds, rng))
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        report["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
        report["ready_at"] = ready_at
        report["pool_size"] = len(pool)
    finally:
        runner.close()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
