"""Tests of the benchmark's own generators, checks, speed scaling and tracer.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import gc
import json
import sys
from random import Random

import pytest

import calib
from workloads import (
    C1_DOC,
    CERT_KEYS,
    LARGE_SHAPES,
    SMALL_SHAPES,
    ROOT,
    answer_from_doc,
    answer_from_result,
    answer_from_text,
    build_pool,
    check_certificate,
    check_compute,
    cli_spec,
    derive_certificate,
    dual_dim,
    expected_for,
    large_spec,
    load_refs,
    report_answer,
    report_from_text,
    small_spec,
    spec_key,
)

sys.path.insert(0, str(ROOT / "src"))

import edcalc  # noqa: E402
import edcalc.cli  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

REFS = load_refs()
NO_REFS = {"specs": {}}


def compute(doc):
    return edcalc.compute_ed(edcalc.spec_from_doc(doc))


def test_generated_specs_are_reduced_and_seeded():
    rng = Random(7)
    docs = [large_spec(rng, 11, 4), cli_spec(rng)]
    docs += [small_spec(rng, kind, m, k) for kind, m, k, _ in SMALL_SHAPES]
    for doc in docs:
        edcalc.validate(edcalc.spec_from_doc(doc))
    assert large_spec(Random(3), 12, 5) == large_spec(Random(3), 12, 5)


def test_pools_have_the_declared_shapes():
    large = build_pool("compute-large", 11, REFS)
    assert [dual_dim(op["doc"]) for op in large] == [k for k, _ in LARGE_SHAPES]
    small = build_pool("compute-small-bounds", 11, REFS)
    assert [dual_dim(op["doc"]) for op in small] == [
        k for _, _, k, copies in SMALL_SHAPES for _ in range(copies)
    ]
    assert build_pool("certify", 11, REFS) == build_pool("certify", 11, REFS)
    assert len(build_pool("certify", 11, REFS)) == 2 * len(CERT_KEYS)


def test_small_bounds_dimension_six_is_capped():
    rng = Random(5)
    for _ in range(5):
        result = compute(small_spec(rng, "random", 7, 6))
        assert "basis-cap-exceeded" in result.warnings


def test_c1_reference_is_exact_53():
    ref = REFS["specs"][spec_key(C1_DOC)]
    assert (ref["status"], ref["lower"], ref["upper"]) == ("exact", 53, 53)


@pytest.mark.parametrize("refs", [REFS, NO_REFS], ids=["reference", "invariants"])
def test_tampered_compute_answer_is_flagged(refs):
    ans = answer_from_result(compute(C1_DOC))
    assert check_compute(C1_DOC, ans, refs) is None
    for field, value in [("total", ans["total"] + 1), ("basis", [ans["basis"][0] ^ 1, ans["basis"][1]]),
                         ("upper", ans["lower"] + 1)]:  # fmt: skip
        assert check_compute(C1_DOC, {**ans, field: value}, refs) is not None, field
    if refs is REFS:
        assert check_compute(C1_DOC, {**ans, "lower": 54, "upper": 54}, refs) is not None


def test_bounds_only_answers_may_tighten_but_not_loosen():
    refs = [(op["base"], REFS["specs"][spec_key(op["base"])])
            for op in build_pool("compute-small-bounds", 0, REFS)]  # fmt: skip
    doc, ans = next((d, r) for d, r in refs if r["upper"] is not None and r["upper"] - r["lower"] > 1)
    assert check_compute(doc, ans, REFS) is None
    assert check_compute(doc, {**ans, "lower": ans["lower"] + 1}, REFS) is None
    assert check_compute(doc, {**ans, "upper": ans["upper"] - 1}, REFS) is None
    assert check_compute(doc, {**ans, "upper": ans["upper"] + 1}, REFS) is not None
    assert check_compute(doc, {**ans, "upper": None}, REFS) is not None
    capped, ref = next((d, r) for d, r in refs if r["capped"])
    assert check_compute(capped, {**ref, "upper": ref["lower"] + 500, "capped": False}, REFS) is None


@pytest.mark.parametrize("workload", ["compute-large", "compute-small-bounds"])
def test_relabelled_specs_keep_the_base_answer(workload):
    pool = build_pool(workload, 11, REFS)
    assert [op["base"] for op in pool] == [op["base"] for op in build_pool(workload, 12, REFS)]
    assert [op["doc"] for op in pool] != [op["doc"] for op in build_pool(workload, 12, REFS)]
    for op in pool[:: 4 if workload == "compute-large" else 6]:
        if dual_dim(op["doc"]) > 14 or dual_dim(op["doc"]) == 5:
            continue  # slow; the benchmark itself checks these
        ans = answer_from_result(compute(op["doc"]))
        assert check_compute(op["doc"], ans, REFS, op["base"]) is None
        heavier = {**ans, "total": ans["total"] + 2}
        assert check_compute(op["doc"], heavier, REFS, op["base"]) is not None
        ref = REFS["specs"][spec_key(op["base"])]
        if ref["status"] == "exact":
            bad = {**ans, "lower": ans["lower"] + 1, "upper": ans["upper"] + 1}
            assert check_compute(op["doc"], bad, REFS, op["base"]) is not None


@pytest.mark.parametrize("key", ["small3:1", "pair:1:2", "pair:2:3", "diagonal:1:3", "small4"])
@pytest.mark.parametrize("kind", ["equivalent", "non-abelian", "infinite-centralizer"])
def test_derived_certificates_get_the_expected_verdict(key, kind):
    base = REFS["builtins"][key]
    for seed in range(4):
        doc = derive_certificate(Random(seed), base["doc"], kind)
        report = edcalc.verify_certificate(edcalc.certificate_from_doc(doc))
        assert check_certificate(report_answer(report), expected_for(kind, base["report"])) is None


def test_tampered_certificate_verdict_is_flagged():
    expect = REFS["builtins"]["pair:1:5"]["report"]
    assert check_certificate(dict(expect), expect) is None
    assert check_certificate({**expect, "rank": expect["rank"] - 1}, expect) is not None
    assert check_certificate({**expect, "lower_bound": None}, expect) is not None


def test_text_reports_parse_to_the_json_answers():
    rng = Random(2)
    for doc in [C1_DOC, small_spec(rng, "random", 7, 6), cli_spec(rng)]:
        result = compute(doc)
        assert answer_from_text(edcalc.cli.render_result_text(result)) == answer_from_doc(
            edcalc.cli.result_to_doc(result)
        )
    report = edcalc.verify_certificate(edcalc.builtin_certificate("pair:1:3"))
    assert report_from_text(edcalc.cli.render_cert_text(report)) == report_answer(
        json.loads(json.dumps(edcalc.cli.report_to_doc(report)))
    )


def test_op_times_scale_with_the_speed_samples_next_to_them():
    ref = calib.REF_KERNEL_S
    samples = [ref, ref, 2 * ref, 2 * ref]  # the host halves its speed after the first op
    scaled = calib.scale_times([0.01, 0.01, 0.01], [1, 2, 3], samples, ref)
    assert scaled == pytest.approx([0.01, 0.01 / 1.5, 0.005])


def test_speed_kernel_leaves_the_garbage_collector_schedule_alone():
    gc.collect()
    before = gc.get_count()[0]
    calib.kernel()
    # a handful of tracked objects, where building the kernel's values as
    # objects would count hundreds and start a collection
    assert abs(gc.get_count()[0] - before) <= 10


def test_tracer_counts_layers_and_restores_the_package():
    original = edcalc.core.enumerate_elements
    tracer = Tracer()
    tracer.install()
    try:
        assert edcalc.core.enumerate_elements is not original
        compute(C1_DOC)
    finally:
        tracer.uninstall()
    assert edcalc.core.enumerate_elements is original
    assert tracer.calls["core.compute_ed"] == 1
    assert tracer.edges[("core.compute_ed", "core.greedy_min_basis")] == 1
    assert tracer.counts["gf2.enumerate_elements.elements"] == 3
    layers = layer_metrics(tracer, 1)
    assert layers["core.greedy_min_basis.useful_ratio"][0] == pytest.approx(2 / 3)
    assert all(v >= 0 for v, _ in layers.values())
    assert not tracer.stack


def test_tracer_reports_a_deleted_layer_as_absent(monkeypatch):
    monkeypatch.delattr(edcalc.gf2, "enumerate_bases")
    monkeypatch.delattr(edcalc.extraspecial, "closure")
    tracer = Tracer()
    tracer.install()
    try:
        compute(C1_DOC)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["edcalc.gf2.enumerate_bases", "edcalc.extraspecial.closure"]
    assert layer_metrics(tracer, 1)["gf2.enumerate_bases.self_ms"][0] == 0


def test_an_op_past_its_deadline_is_stopped_and_failed(monkeypatch):
    import types

    import worker

    def spin(spec):
        while True:
            pass

    fake = types.SimpleNamespace(spec_from_doc=lambda doc: doc, compute_ed=spin)
    monkeypatch.setattr(worker, "OP_DEADLINE_S", 0.05)
    runner = worker.InProcess(fake, [{"op": "compute", "doc": C1_DOC}], NO_REFS)
    dt, problem, capped = runner.run({"op": "compute", "doc": C1_DOC, "spec": C1_DOC})
    assert "deadline" in problem and dt < 1.0 and not capped
