"""The int-key greedy against the (weight exponent, coordinate tuple) greedy it replaced.

Both must pick the same basis vectors in the same order and report the same
total, ties included.  The greedy reads its keys from the split walk over sets
of factors, which must give out the first keys of a sorted listing of the
whole dual (`reference_greedy_keys`), in the same order, whatever the
dimensions of mu and of its dual.  The walk stops after the last key at or
below a bound that the greedy never passes, so it may give out fewer.
"""

from __future__ import annotations

import tracemalloc
from collections import Counter
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edcalc.core
import edcalc.gf2
from edcalc import BitVec, EnumerationTooLargeError, GroupSpecB, compute_ed, greedy_min_basis
from edcalc.core import PIVOT_CHUNK, _greedy, _split_walk_keys, weight_exponent
from edcalc.gf2 import enumerate_elements, rref

from greedy_reference import (
    reference_enumerate_elements,
    reference_greedy_keys,
    reference_greedy_min_basis,
)
from helpers import random_group_spec


def assert_same_greedy(spec: GroupSpecB) -> None:
    basis, total = greedy_min_basis(spec.mu_subspace(), spec.n)
    ref_basis, ref_total = reference_greedy_min_basis(spec.dual_subspace(), spec.n)
    assert [v.bits for v in basis] == [v.bits for v in ref_basis], spec
    assert all(v.m == spec.m for v in basis)
    assert total == ref_total, spec


def assert_walk_matches_listing(spec: GroupSpecB) -> bool:
    """The walk gives out the first keys of the listing, in order, and the greedy over
    them agrees; returns whether the walk stopped before the end of the listing."""
    mu, dual = spec.mu_subspace(), spec.dual_subspace()
    keys = list(_split_walk_keys(spec.n, [v.bits for v in mu.basis]))
    listing = reference_greedy_keys(dual, spec.n)
    assert keys == listing[: len(keys)], spec
    basis, total = _greedy(iter(keys), spec.m, dual.dim)
    ref_basis, ref_total = reference_greedy_min_basis(dual, spec.n)
    assert ([v.bits for v in basis], total) == ([v.bits for v in ref_basis], ref_total), spec
    return len(keys) < len(listing)


def spec_with_dims(rng: Random, n: tuple[int, ...], mu_dim: int) -> GroupSpecB:
    """Random mu of exactly the given dimension, with a redundant generator or two."""
    m = len(n)
    gens: list[BitVec] = []
    while rref(gens, m).dim < mu_dim:
        gens.append(BitVec(m, rng.getrandbits(m)))
    return GroupSpecB(n, tuple(gens))


def test_matches_reference_on_seeded_random_specs():
    rng = Random(2024)
    for _ in range(400):
        assert_same_greedy(random_group_spec(rng, max_m=12, max_rank=5, max_dual_dim=8))


def test_matches_reference_on_compute_large_shaped_specs():
    # ranks 7..12, dual dimension k <= 13, mu dimension 0..10: up to 23 factors.
    # The walk gives out no key above the heaviest key of the basis its set-up
    # holds, so on these shapes it ends before the listing does
    rng = Random(7)
    stopped = 0
    for _ in range(30):
        k = rng.randint(1, 13)
        d = rng.randint(0, 10)
        n = tuple(rng.randint(7, 12) for _ in range(k + d))
        spec = spec_with_dims(rng, n, d)
        assert spec.dual_subspace().dim == k
        assert_same_greedy(spec)
        stopped += assert_walk_matches_listing(spec)
    assert stopped > 0


def test_matches_reference_on_wide_specs():
    # up to eight key-table chunks; a small dual dimension keeps the reference cheap
    rng = Random(11)
    for m in (8, 9, 16, 17, 24, 33, 47, 64):
        for _ in range(3):
            k = rng.randint(1, 6)
            n = tuple(rng.randint(1, 12) for _ in range(m))
            assert_same_greedy(spec_with_dims(rng, n, m - k))


def test_rank7_twelve_diagonal_ties():
    # k = 11 with 66 tied weight-2 patterns; the tie-break decides the basis
    spec = GroupSpecB((7,) * 12, (BitVec(12, (1 << 12) - 1),))
    assert_same_greedy(spec)
    basis, _ = greedy_min_basis(spec.mu_subspace(), spec.n)
    assert basis[0].coords() == (0,) * 10 + (1, 1)


tie_heavy_specs = st.integers(min_value=1, max_value=10).flatmap(
    lambda m: st.tuples(
        st.lists(st.sampled_from([1, 2]), min_size=m, max_size=m)
        | st.integers(1, 9).map(lambda r: [r] * m),
        st.lists(st.integers(0, (1 << m) - 1), max_size=m + 1),
    ).map(lambda case: GroupSpecB(tuple(case[0]), tuple(BitVec(m, b) for b in case[1])))
)


@settings(max_examples=300)
@given(tie_heavy_specs)
def test_matches_reference_on_tie_heavy_specs(spec):
    assert_same_greedy(spec)


def test_walk_matches_listing_across_margins():
    # k - d from -3 to 12: a dual smaller than mu, as large, and much larger;
    # from margin 1 up, one spec of each margin has trivial mu (d = 0)
    rng = Random(31)
    for margin in range(-3, 13):
        for i in range(7):
            # k = d + margin >= 1, on at most 14 factors
            d = 0 if i == 0 and margin > 0 else rng.randint(max(0, 1 - margin), (14 - margin) // 2)
            k = d + margin
            ranks = rng.choice([range(1, 4), range(7, 13), range(1, 13), [5]])
            n = tuple(rng.choice(ranks) for _ in range(k + d))
            spec = spec_with_dims(rng, n, d)
            assert spec.dual_subspace().dim == k
            assert_walk_matches_listing(spec)


def test_walk_with_several_chunk_tables():
    # d above PIVOT_CHUNK: a syndrome's completion sums one entry per table,
    # up to four tables at d = 40
    rng = Random(47)
    for d in (PIVOT_CHUNK + 1, 2 * PIVOT_CHUNK, 2 * PIVOT_CHUNK + 1, 30, 40):
        for k in (1, 2, 5, 9):
            ranks = rng.choice([range(1, 4), range(7, 13), range(1, 13)])
            spec = spec_with_dims(rng, tuple(rng.choice(ranks) for _ in range(k + d)), d)
            assert spec.mu_subspace().dim == d > PIVOT_CHUNK
            assert_walk_matches_listing(spec)


def test_walk_on_64_factors_with_a_wide_mu():
    # m = 64 and d up to 63: six tables, the last one short, and a dual of
    # dimension 12 down to 1
    rng = Random(6463)
    for d in (52, 55, 58, 61, 62, 63):
        n = tuple(rng.choice([1, 2, 7, 8, 12]) for _ in range(64))
        spec = spec_with_dims(rng, n, d)
        assert spec.dual_subspace().dim == 64 - d
        assert_walk_matches_listing(spec)


def test_walk_matches_listing_on_equal_rank_specs():
    # every pattern of one support size ties on weight: only the tie-break orders
    # them, in the walk's heaps as in the enumeration
    rng = Random(37)
    for m in range(1, 13):
        for d in range(0, min(m, 6)):
            assert_walk_matches_listing(spec_with_dims(rng, (rng.randint(1, 12),) * m, d))


# wide duals over small mu
walk_specs = st.integers(min_value=1, max_value=12).flatmap(
    lambda m: st.tuples(
        st.lists(st.sampled_from([1, 2, 7]), min_size=m, max_size=m)
        | st.integers(1, 12).map(lambda r: [r] * m),
        st.lists(st.integers(0, (1 << m) - 1), max_size=4),
    ).map(lambda case: GroupSpecB(tuple(case[0]), tuple(BitVec(m, b) for b in case[1])))
)


# no deadline: the reference lists all 2^12 patterns of the widest examples
@settings(max_examples=200, deadline=None)
@given(tie_heavy_specs | walk_specs)
def test_walk_matches_listing_on_tie_heavy_specs(spec):
    assert_walk_matches_listing(spec)


def columns(spec: GroupSpecB) -> list[int]:
    """Each factor's column of mu's reduced rows: its syndrome."""
    rows = [v.bits for v in spec.mu_subspace().basis]
    return [sum((r >> i & 1) << j for j, r in enumerate(rows)) for i in range(spec.m)]


def test_walk_with_zero_syndrome_columns():
    # mu lives on the heavy factors, so the four lightest have zero columns: they
    # are never pivots, and two of them fill the light part past the pivots
    rng = Random(41)
    for _ in range(5):
        n = (7, 7, 8, 8) + tuple(rng.randint(9, 12) for _ in range(8))
        gens = [BitVec(12, rng.getrandbits(8) << 4) for _ in range(3)]
        spec = GroupSpecB(n, tuple(gens))
        assert columns(spec)[:4] == [0] * 4
        assert_walk_matches_listing(spec)


def test_walk_skips_dependent_light_columns():
    # the three rank-7 factors share one column, so only one of them is a pivot;
    # the next pivots are found further up the sorted order
    rng = Random(43)
    for _ in range(5):
        n = (7, 7, 7) + tuple(rng.randint(8, 12) for _ in range(9))
        rows = [rng.getrandbits(9) << 3 | rng.choice([0, 0b111]) for _ in range(4)]
        spec = GroupSpecB(n, tuple(BitVec(12, r) for r in rows))
        cols = columns(spec)
        assert cols[0] == cols[1] == cols[2] != 0
        assert_walk_matches_listing(spec)


def test_walk_at_its_smallest_margin():
    # k = 1 and 2 leave the heavy part empty, so every pattern comes from the
    # extras; k = 3 gives it one position.  d runs from 0, trivial mu with no
    # pivots at all, to 20, two tables, so k - d goes down to -19
    rng = Random(53)
    for d in (0, 1, 5, 12, 13, 20):
        for k in (1, 2, 3):
            spec = spec_with_dims(rng, tuple(rng.randint(1, 12) for _ in range(k + d)), d)
            assert spec.dual_subspace().dim == k
            assert_walk_matches_listing(spec)


def test_walk_reaches_position_63():
    # m = 64: the sorted positions run to 63, and the heaviest factor is the last
    # heavy position; the heavy part packs its index, 64 - d - 3, into the walk's
    # 6-bit field.  Under trivial mu the basis is the 64 unit patterns.  Otherwise
    # mu lives on six factors, so the dual splits into the other 58 unit patterns
    # plus a small dual on those six: the basis is both bases merged in key order.
    rng = Random(64)
    n = tuple(rng.choice([7, 8, 12]) for _ in range(64))
    units = sorted(
        (BitVec(64, 1 << i) for i in range(64)),
        key=lambda v: (weight_exponent(v, n), v.coords()),
    )
    basis, _ = _greedy(_split_walk_keys(n, []), 64, 64)
    assert list(basis) == units
    for _ in range(3):
        n = tuple(rng.choice([7, 8, 12]) for _ in range(64))
        block = sorted(rng.sample(range(64), 6))
        sub = spec_with_dims(rng, tuple(n[i] for i in block), 2)
        sub_basis, _ = reference_greedy_min_basis(sub.dual_subspace(), sub.n)
        spread = [sum(1 << block[j] for j in v.support()) for v in sub_basis]
        units = [1 << i for i in range(64) if i not in block]
        expected = sorted(
            (BitVec(64, b) for b in spread + units),
            key=lambda v: (weight_exponent(v, n), v.coords()),
        )
        mu_rows = [sum(1 << block[j] for j in v.support()) for v in sub.mu_subspace().basis]
        basis, total = _greedy(_split_walk_keys(n, mu_rows), 64, 62)
        assert list(basis) == expected
        assert total == sum(1 << weight_exponent(v, n) for v in expected)


def test_walk_on_uneven_ranks_needs_no_fallback():
    # twelve rank-1 factors make every one of their 4095 sets lighter than the
    # rank-13 factor, so the greedy takes many patterns before its last one; it
    # never takes more than 2^(k-1), since the first k-1 it keeps span 2^(k-1) - 1
    rng = Random(13)
    spec = spec_with_dims(rng, (1,) * 12 + (13,), 2)
    mu, dual = spec.mu_subspace(), spec.dual_subspace()
    assert dual.dim == 11
    taken: list[int] = []
    walk = _split_walk_keys(spec.n, [v.bits for v in mu.basis])
    _greedy((taken.append(key) or key for key in walk), spec.m, 11)
    assert 1 << 9 < len(taken) <= 1 << 10
    assert taken == reference_greedy_keys(dual, spec.n)[: len(taken)]
    assert_same_greedy(spec)


@pytest.mark.parametrize("k, d", [(14, 10), (13, 7), (16, 4)])
def test_compute_large_shapes_never_enumerate(monkeypatch, k, d):
    # shapes of the benchmark's compute-large pool, ranks 7..12: the greedy
    # walks, and an exact answer needs no basis search either
    rng = Random(100 * k + d)
    spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(k + d)), d)
    dual = spec.dual_subspace()
    assert dual.dim == k
    expected = reference_greedy_min_basis(dual, spec.n)

    def refuse(*args):
        raise AssertionError("compute_ed enumerated the dual")

    assert not hasattr(edcalc.core, "enumerate_elements")
    monkeypatch.setattr(edcalc.gf2, "enumerate_elements", refuse)
    result = compute_ed(spec)
    assert (result.minimal_basis, result.basis_total_weight) == expected
    assert result.status == "exact"


def test_refuses_a_dual_above_the_dim_cap():
    # the cap is on the dimension of the dual, whatever the shape of mu
    rng = Random(17)
    for k, d in ((14, 10), (10, 14), (5, 0)):
        spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(k + d)), d)
        mu = spec.mu_subspace()
        with pytest.raises(EnumerationTooLargeError, match=f"dimension {k} .* cap is 2\\^{k - 1}$"):
            greedy_min_basis(mu, spec.n, dim_cap=k - 1)
        assert greedy_min_basis(mu, spec.n, dim_cap=k) == greedy_min_basis(mu, spec.n)


def test_compute_large_shape_reduces_mu_twice_and_builds_no_dual(monkeypatch):
    # (k, d) = (14, 10), ranks 7..12: validate reduces mu and the walk re-reduces
    # it over its own factor order; the result is exact, so no basis search runs
    rng = Random(1410)
    spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(24)), 10)
    expected = compute_ed(spec)
    assert expected.status == "exact"
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    rref_bits = counting("rref_bits", edcalc.gf2.rref_bits)
    annihilator = counting("annihilator", edcalc.gf2.annihilator)
    for module in (edcalc.gf2, edcalc.core):
        monkeypatch.setattr(module, "rref_bits", rref_bits)
        monkeypatch.setattr(module, "annihilator", annihilator)
    assert compute_ed(spec) == expected
    assert calls["annihilator"] == 0
    assert 1 <= calls["rref_bits"] <= 2


def test_walk_memory_on_a_wide_mu():
    # (k, d) = (14, 10), ranks 7..12: listing the dual peaked at 2.06 MB, the
    # walk without its bound at 0.20 MB; with it, 0.08 MB
    rng = Random(1410)
    spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(24)), 10)
    mu = spec.mu_subspace()
    assert spec.m - mu.dim == 14
    tracemalloc.start()
    try:
        greedy_min_basis(mu, spec.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160_000


def test_walk_memory_on_a_dual_as_large_as_mu():
    # (m, d) = (40, 20), ranks 7..12: listing the 2^20 - 1 patterns of the dual
    # peaked at 134 MB and gave this total, the walk without its bound 6.8 MB;
    # with it, the walk peaks near 0.9 MB
    rng = Random(4020)
    spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(40)), 20)
    mu = spec.mu_subspace()
    assert mu.dim == 20
    tracemalloc.start()
    try:
        _, total = greedy_min_basis(mu, spec.n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 2186011230328619794432
    assert peak < 1_800_000


def test_only_the_chosen_vectors_become_bitvecs(monkeypatch):
    built = []

    def counting_bitvec(*args):
        built.append(args)
        return BitVec(*args)

    def no_weight_exponent(*args):
        raise AssertionError("the greedy must not compute weights per element")

    spec = GroupSpecB((7, 8, 9, 10, 11, 12, 7, 8), (BitVec(8, 0b11),))
    mu = spec.mu_subspace()
    expected = greedy_min_basis(mu, spec.n)
    monkeypatch.setattr(edcalc.core, "BitVec", counting_bitvec)
    monkeypatch.setattr(edcalc.core, "weight_exponent", no_weight_exponent)
    assert greedy_min_basis(mu, spec.n) == expected
    assert len(built) == spec.m - mu.dim == 7


def test_elements_come_in_the_gray_walk_order():
    rng = Random(5)
    for _ in range(50):
        spec = random_group_spec(rng, max_m=10, max_rank=3, max_dual_dim=8)
        dual = spec.dual_subspace()
        expected = [v.bits for v in reference_enumerate_elements(dual)]
        assert enumerate_elements(dual) == expected
