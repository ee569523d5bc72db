"""Layer spans for the edcalc benchmark, recorded from outside the package.

The tracer replaces public functions of ``edcalc.gf2``, ``edcalc.core``,
``edcalc.extraspecial`` and ``edcalc.cli`` with wrappers, in every module
namespace where callers look the name up (``core`` imports ``enumerate_elements``
from ``gf2``, so both bindings are replaced).  A wrapper records one span per
call: its duration, the time its child spans cover (so self time is the
difference), and the span that called it.  Per-element helpers get count-only
wrappers.  A name missing from the package is reported as absent.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter_ns

MODULES = ("edcalc", "edcalc.gf2", "edcalc.core", "edcalc.extraspecial", "edcalc.cli")

# (module, attribute, span name, mode); mode is "span", "generator" or "count".
TARGETS = (
    ("edcalc.gf2", "enumerate_elements", "gf2.enumerate_elements", "span"),
    ("edcalc.gf2", "enumerate_bases", "gf2.enumerate_bases", "generator"),
    ("edcalc.gf2", "rref", "gf2.rref", "span"),
    ("edcalc.gf2", "rref_bits", "gf2.rref", "span"),
    ("edcalc.gf2", "annihilator", "gf2.annihilator", "span"),
    ("edcalc.core", "greedy_min_basis", "core.greedy_min_basis", "span"),
    ("edcalc.core", "compute_ed", "core.compute_ed", "span"),
    ("edcalc.core", "known_cases", "core.known_cases", "span"),
    ("edcalc.core", "is_small_product", "core.is_small_product", "count"),
    ("edcalc.core", "validate", "core.validate", "span"),
    ("edcalc.core", "spec_from_doc", "core.spec_from_doc", "span"),
    ("edcalc.extraspecial", "builtin_certificate", "extraspecial.builtin_certificate", "span"),
    ("edcalc.extraspecial", "closure", "extraspecial.closure", "span"),
    ("edcalc.extraspecial", "CliffordTuple.__mul__", "extraspecial.CliffordTuple.mul", "count"),
    ("edcalc.extraspecial", "quotient_rank", "extraspecial.quotient_rank", "span"),
    ("edcalc.extraspecial", "centralizer_finite", "extraspecial.centralizer_finite", "span"),
    ("edcalc.extraspecial", "verify_certificate", "extraspecial.verify_certificate", "span"),
    ("edcalc.cli", "main", "cli.main", "span"),
    ("edcalc.cli", "result_to_doc", "cli.render", "span"),
    ("edcalc.cli", "render_result_text", "cli.render", "span"),
    ("edcalc.cli", "report_to_doc", "cli.render", "span"),
    ("edcalc.cli", "render_cert_text", "cli.render", "span"),
    ("edcalc.cli", "_emit", "cli.render", "span"),
)

# rref_bits runs once per candidate basis inside the exhaustive search; there it
# is counted but not timed, so its time stays with the search that drives it
COUNT_ONLY_UNDER = {"gf2.rref": "gf2.enumerate_bases"}

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, mode in TARGETS if mode != "count"))


class Tracer:
    """Aggregated spans: self time, calls, caller edges and per-layer counters."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # [name, start_ns, child_ns]
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()  # (caller span, span) -> calls
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def parent(self) -> str:
        return self.stack[-1][0] if self.stack else "op"

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self.edges[(self.parent(), name)] += 1
        self.stack.append([name, perf_counter_ns(), 0])

    def resume(self, name: str) -> None:
        self.stack.append([name, perf_counter_ns(), 0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        dur = perf_counter_ns() - start
        self.self_ns[name] += dur - child
        if self.stack:
            self.stack[-1][2] += dur

    def reset_stack(self) -> None:
        """Drop spans left open by an op that was stopped mid-call."""
        while self.stack:
            self.leave()

    # ---- wrappers ----

    def _span(self, fn, name: str, after):
        inline_under = COUNT_ONLY_UNDER.get(name)

        def wrapper(*args, **kwargs):
            if inline_under is not None and self.stack and self.stack[-1][0] == inline_under:
                self.edges[(inline_under, name)] += 1
                return fn(*args, **kwargs)
            parent = self.parent()
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if after is not None:
                after(self, result, parent)
            return result

        return wrapper

    def _generator(self, fn, name: str, after):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.leave()
            return self._steps(it, name, after)

        return wrapper

    def _steps(self, it, name: str, after):
        # the span is open only while the generator itself runs, not the consumer
        while True:
            self.resume(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.leave()
            if after is not None:
                after(self, item, None)
            yield item

    def _count(self, fn, name: str):
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.edges[(self.parent(), name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every target present in the loaded package; record the absent ones."""
        mods = [sys.modules[m] for m in MODULES if m in sys.modules]
        for mod_name, attr, name, mode in TARGETS:
            mod = sys.modules.get(mod_name)
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            after = AFTER.get(attr)
            if mode == "count":
                wrapped = self._count(original, name)
            elif mode == "generator":
                wrapped = self._generator(original, name, after)
            else:
                wrapped = self._span(original, name, after)
            holders = [owner] if owner_name else [m for m in mods if vars(m).get(leaf) is original]
            for holder in holders:
                self._undo.append((holder, leaf, original))
                setattr(holder, leaf, wrapped)

    def uninstall(self) -> None:
        for holder, leaf, original in reversed(self._undo):
            setattr(holder, leaf, original)
        self._undo.clear()

    # ---- results ----

    def merge(self, data: dict) -> None:
        """Add the totals another process wrote with ``dump``."""
        self.self_ns.update(data["self_ns"])
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.edges.update({tuple(k.split(" -> ")): v for k, v in data["edges"].items()})
        self.absent = sorted(set(self.absent) | set(data["absent"]))

    def dump(self) -> dict:
        return {
            "self_ns": dict(self.self_ns),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "edges": {f"{a} -> {b}": v for (a, b), v in self.edges.items()},
            "absent": list(self.absent),
        }


def _after_enumerate_elements(tracer: Tracer, result, parent) -> None:
    tracer.counts["gf2.enumerate_elements.elements"] += len(result)
    if parent == "core.greedy_min_basis":
        tracer.counts["core.greedy_min_basis.enumerated"] += len(result)


def _after_enumerate_bases(tracer: Tracer, item, parent) -> None:
    tracer.counts["gf2.enumerate_bases.bases"] += 1


def _after_greedy(tracer: Tracer, result, parent) -> None:
    tracer.counts["core.greedy_min_basis.returned"] += len(result[0])


def _after_closure(tracer: Tracer, result, parent) -> None:
    tracer.counts["extraspecial.closure.elements"] += len(result)


AFTER = {
    "enumerate_elements": _after_enumerate_elements,
    "enumerate_bases": _after_enumerate_bases,
    "greedy_min_basis": _after_greedy,
    "closure": _after_closure,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics: self time and calls of every span, plus counters and ratios."""
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_ms"] = (tracer.self_ns[name] / 1e6 / ops, "ms/op")
        out[f"{name}.calls"] = (tracer.calls[name] / ops, "1/op")
    out["core.is_small_product.calls"] = (tracer.calls["core.is_small_product"] / ops, "1/op")
    out["gf2.enumerate_elements.elements"] = (
        tracer.counts["gf2.enumerate_elements.elements"] / ops, "1/op")  # fmt: skip
    out["gf2.enumerate_bases.bases"] = (tracer.counts["gf2.enumerate_bases.bases"] / ops, "1/op")
    out["core.greedy_min_basis.useful_ratio"] = (
        _ratio(tracer.counts["core.greedy_min_basis.returned"],
               tracer.counts["core.greedy_min_basis.enumerated"]), "ratio")  # fmt: skip
    out["extraspecial.closure.elements"] = (
        tracer.counts["extraspecial.closure.elements"] / ops, "1/op")  # fmt: skip
    products = tracer.edges[("extraspecial.closure", "extraspecial.CliffordTuple.mul")]
    out["extraspecial.closure.useful_ratio"] = (
        _ratio(tracer.counts["extraspecial.closure.elements"], products), "ratio")  # fmt: skip
    return out
