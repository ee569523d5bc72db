"""The int-key greedy against the (weight exponent, coordinate tuple) greedy it replaced.

Both must pick the same basis vectors in the same order and report the same
total, ties included.  The greedy reads its keys from the split walk over sets
of factors, which must give out the first keys of a sorted listing of the
whole dual (`reference_greedy_keys`), in the same order, whatever the
dimensions of mu and of its dual.  The walk stops after the last key at or
below a bound that the greedy never passes, so it may give out fewer.  When
mu splits the factors into blocks, the greedy walks each block on its own and
merges the picks by key, which must give what the walk of the whole dual gives.
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
from edcalc import (
    BitVec,
    EnumerationTooLargeError,
    GroupSpecB,
    compute_ed,
    diagonal_mu,
    greedy_min_basis,
    group_dim,
)
from edcalc.core import PIVOT_CHUNK, _basis, _blocks, _split_walk_keys
from edcalc.gf2 import rref, rref_bits

from exactness_reference import reference_blocks
from greedy_reference import (
    reference_greedy_keys,
    reference_greedy_min_basis,
    weight_exponent,
)
from helpers import greedy_over, random_group_spec, whole_walk_keys
from survey import CYCLE, blocks_mu
from walk_reference import reference_split_walk_keys


def test_weights():
    n = (1, 2, 3, 7)
    assert weight_exponent(BitVec.from_coords([1, 1, 0, 0]), n) == 3
    assert weight_exponent(BitVec.from_coords([1, 1, 1, 0]), n) == 6
    assert weight_exponent(BitVec.from_coords([0, 0, 0, 1]), n) == 7
    assert weight_exponent(BitVec(4, 0), n) == 0


def assert_same_greedy(spec: GroupSpecB) -> None:
    basis, total = greedy_min_basis(spec.mu_subspace(), spec.n)
    ref_basis, ref_total = reference_greedy_min_basis(spec.dual_subspace(), spec.n)
    assert [v.bits for v in basis] == [v.bits for v in ref_basis], spec
    assert all(v.m == spec.m for v in basis)
    assert total == ref_total, spec


def assert_walk_matches_oracle(n: tuple[int, ...], mu_rows: list[int], factors: int) -> list[int]:
    """The walk's full key stream, which must be the stream of the walk's previous set-up."""
    keys = list(_split_walk_keys(n, mu_rows, factors))
    assert keys == list(reference_split_walk_keys(n, mu_rows, factors)), (n, mu_rows, factors)
    return keys


def assert_walk_matches_listing(spec: GroupSpecB) -> bool:
    """The walk gives out the first keys of the listing, in order, and the greedy over
    them agrees; returns whether the walk stopped before the end of the listing."""
    mu, dual = spec.mu_subspace(), spec.dual_subspace()
    keys = assert_walk_matches_oracle(spec.n, [v.bits for v in mu.basis], (1 << spec.m) - 1)
    listing = reference_greedy_keys(dual, spec.n)
    assert keys == listing[: len(keys)], spec
    basis, total = greedy_over(iter(keys), spec.m, dual.dim)
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
    # entries.  Under trivial mu the basis is the 64 unit patterns.  Otherwise
    # mu lives on six factors, so the dual splits into the other 58 unit patterns
    # plus a small dual on those six: the basis is both bases merged in key order.
    rng = Random(64)
    n = tuple(rng.choice([7, 8, 12]) for _ in range(64))
    units = sorted(
        (BitVec(64, 1 << i) for i in range(64)),
        key=lambda v: (weight_exponent(v, n), v.coords()),
    )
    basis, _ = greedy_over(whole_walk_keys(n, []), 64, 64)
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
        basis, total = greedy_over(whole_walk_keys(n, mu_rows), 64, 62)
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
    walk = whole_walk_keys(spec.n, [v.bits for v in mu.basis])
    greedy_over((taken.append(key) or key for key in walk), spec.m, 11)
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

    # the basis search is the one route left that lists the dual's elements
    monkeypatch.setattr(edcalc.core, "enumerate_bases", refuse)
    monkeypatch.setattr(edcalc.core, "annihilator", refuse)
    result = compute_ed(spec)
    assert (result.minimal_basis, result.basis_total_weight) == expected
    assert result.status == "exact"


def test_refuses_a_dual_above_the_dim_cap():
    # the cap is on the nonzero patterns of each block's dual, whatever the shape of mu;
    # the two random mu of dimension 10 and 14 are one block each
    rng = Random(17)
    for k, d in ((14, 10), (10, 14), (5, 0)):
        spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(k + d)), d)
        mu = spec.mu_subspace()
        if d == 0:
            # trivial mu makes five one-factor blocks, each with a dual of dimension 1
            expected = reference_greedy_min_basis(spec.dual_subspace(), spec.n)
            assert greedy_min_basis(mu, spec.n, enum_cap=1) == expected
            continue
        cap = (1 << k) - 1
        with pytest.raises(EnumerationTooLargeError, match=f"dimension {k} .* cap is {cap - 1}$"):
            greedy_min_basis(mu, spec.n, enum_cap=cap - 1)
        assert greedy_min_basis(mu, spec.n, enum_cap=cap) == greedy_min_basis(mu, spec.n)


def test_the_cap_refuses_a_block_by_its_own_dual():
    # mu's two rows join factors 0..11 into one block with a dual of dimension 10;
    # the whole dual has dimension 14, but the cap reads the largest block's
    rng = Random(21)
    n = tuple(rng.randint(7, 12) for _ in range(16))
    spec = GroupSpecB(n, [BitVec(16, 0x07F), BitVec(16, 0xFC0)])
    mu = spec.mu_subspace()
    assert spec.m - mu.dim == 14
    with pytest.raises(EnumerationTooLargeError) as caught:
        greedy_min_basis(mu, spec.n, enum_cap=(1 << 9) - 1)
    assert str(caught.value) == "subspace of dimension 10 has 2^10 - 1 nonzero elements, cap is 511"
    expected = reference_greedy_min_basis(spec.dual_subspace(), spec.n)
    assert greedy_min_basis(mu, spec.n, enum_cap=(1 << 10) - 1) == expected


def decomposable_spec(rng: Random, m: int) -> GroupSpecB:
    """Ranks 7..12 over m factors; mu has rank 1 or 2 on each of a few disjoint
    blocks of at most 13 factors and leaves the other factors alone, so each
    block's dual has dimension at most 12."""
    n = tuple(rng.randint(7, 12) for _ in range(m))
    free = rng.sample(range(m), m)
    gens: list[BitVec] = []
    while len(free) > 2 and len(gens) < 11 and rng.random() < 0.85:
        size = rng.randint(2, min(len(free), 13))
        block, free = free[:size], free[size:]
        sub = spec_with_dims(rng, tuple(n[i] for i in block), min(size - 1, rng.randint(1, 2)))
        gens += [BitVec(m, sum(1 << block[j] for j in v.support())) for v in sub.mu_gens]
    return GroupSpecB(n, gens)


def test_block_greedy_matches_the_whole_walk_on_decomposable_specs():
    # the blocks' greedies merged by key against the greedy over the walk of the
    # whole dual, with no cap; mu may reduce to a finer split than it was built on.
    # More rows per block make the whole walk, not the blocks, take seconds
    rng = Random(1100)
    for _ in range(80):
        spec = decomposable_spec(rng, rng.randint(4, 64))
        mu = spec.mu_subspace()
        rows = [v.bits for v in mu.basis]
        whole = greedy_over(whole_walk_keys(spec.n, rows), spec.m, spec.m - mu.dim)
        assert greedy_min_basis(mu, spec.n) == whole, spec


def test_walk_matches_the_oracle_on_the_blocks_of_seeded_specs():
    # each block `_blocks` makes, walked over its own factors as the greedy walks
    # it: compute-large shapes and narrower duals, decomposable specs of up to 64
    # factors, the survey's m = 64 block specs and diagonal mu over 100 factors
    rng = Random(2828)
    shapes = [(11, 0), (11, 5), (11, 10), (12, 2), (13, 4), (13, 7), (14, 10), (16, 4)]
    shapes += [(3, 20), (2, 14), (1, 5), (2, 1)]
    specs = [
        spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(k + d)), d) for k, d in shapes
    ]
    specs += [decomposable_spec(rng, rng.randint(4, 64)) for _ in range(20)]
    specs += [GroupSpecB(CYCLE, blocks_mu(64, size)) for size in (2, 4, 8)]
    specs.append(GroupSpecB(tuple(7 + i % 6 for i in range(100)), diagonal_mu(100).basis))
    seen = Counter()
    for spec in specs:
        for mask, rows in _blocks([v.bits for v in spec.mu_subspace().basis], spec.m):
            if rows:
                assert_walk_matches_oracle(spec.n, rows, mask)
                # the light part holds the pivots and two more positions
                seen["no heavy part"] += mask.bit_count() - len(rows) <= 2
                seen["more pivots than a table"] += len(rows) > PIVOT_CHUNK
                seen["64 or more factors"] += mask.bit_count() >= 64
                seen["blocks"] += 1
    assert min(seen.values()) > 0 and seen["blocks"] > 100, seen


@pytest.mark.parametrize("size", [8, 4, 2])
def test_m64_block_specs_are_exact_at_the_default_caps(size):
    # the survey's m = 64 block specs: each row of mu is a block of `size` factors,
    # so every block's dual has dimension size - 1 while the whole dual's is
    # 64 - 64 / size
    spec = GroupSpecB(CYCLE, blocks_mu(64, size))
    mu = spec.mu_subspace()
    result = compute_ed(spec)
    assert result.status == "exact"
    assert result == compute_ed(spec, enum_cap=(1 << 64) - 1)
    whole = greedy_over(whole_walk_keys(CYCLE, [v.bits for v in mu.basis]), 64, 64 - mu.dim)
    assert (result.minimal_basis, result.basis_total_weight) == whole


def test_plain_products_of_64_factors_are_exact_at_the_default_caps():
    # trivial mu: 64 one-factor blocks, whose basis is the 64 unit patterns
    spec = GroupSpecB(CYCLE)
    result = compute_ed(spec)
    assert result.status == "exact"
    assert result == compute_ed(spec, enum_cap=(1 << 64) - 1)
    assert result.basis_total_weight == sum(1 << r for r in CYCLE)
    assert result.minimal_basis == greedy_over(whole_walk_keys(CYCLE, []), 64, 64)[0]


@pytest.mark.parametrize("m", [70, 100])
def test_diagonal_mu_over_more_than_64_factors_gives_the_star_total(m):
    # the dual of the diagonal is the even-weight code.  A pattern over 2s factors
    # is a sum of s lighter pairs, so a minimal basis holds pairs only, the edges
    # of a spanning tree, and pair {i, j} weighs 2^r_i * 2^r_j.  So the star at a
    # lowest-rank factor i0 is minimal.  The walk has more than 63 heavy positions
    n = tuple(7 + i % 6 for i in range(m))
    spec = GroupSpecB(n, diagonal_mu(m).basis)
    i0 = n.index(min(n))
    star = sum(1 << (n[i0] + r) for j, r in enumerate(n) if j != i0)
    basis, total = greedy_min_basis(spec.mu_subspace(), n, enum_cap=(1 << m) - 1)
    assert total == star
    assert len(basis) == m - 1 and {v.weight() for v in basis} == {2}
    result = compute_ed(spec, enum_cap=(1 << m) - 1)
    assert result.status == "exact" and result.value == star - group_dim(n)


def test_a_128_factor_block_spec_adds_up_over_its_blocks():
    # blocks of 2 to 12 factors under their own diagonal and 6 factors mu leaves
    # alone, scattered over 128 positions: at the default caps the spec is exact,
    # and its basis weight and dimension are the sums of its blocks' own answers
    rng = Random(128)
    n = tuple(rng.randint(7, 12) for _ in range(128))
    sizes = [8] * 8 + [2, 3, 4, 5, 6, 7, 9, 10, 12] + [1] * 6
    positions = rng.sample(range(128), 128)
    blocks, gens = [], []
    for size in sizes:
        block, positions = positions[:size], positions[size:]
        mu = diagonal_mu(size).basis if size > 1 else ()
        blocks.append(GroupSpecB([n[i] for i in block], mu))
        gens += [BitVec(128, sum(1 << block[j] for j in v.support())) for v in mu]
    assert not positions
    result = compute_ed(GroupSpecB(n, gens))
    parts = [compute_ed(block) for block in blocks]
    assert result.status == "exact" and {part.status for part in parts} == {"exact"}
    assert result.basis_total_weight == sum(part.basis_total_weight for part in parts)
    assert result.group_dim == sum(part.group_dim for part in parts)
    assert result.value == sum(part.value for part in parts)


def test_compute_large_shape_reduces_mu_once_and_builds_no_dual(monkeypatch):
    # (k, d) = (14, 10), ranks 7..12: validate reduces mu, and the walk finds its
    # pivots and syndromes in its pass over the factors without reducing mu again;
    # the result is exact, so no basis search runs
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
    monkeypatch.setattr(edcalc.gf2, "rref_bits", rref_bits)
    for module in (edcalc.gf2, edcalc.core):
        monkeypatch.setattr(module, "annihilator", annihilator)
    assert not hasattr(edcalc.core, "rref_bits")
    assert compute_ed(spec) == expected
    assert calls == {"rref_bits": 1}


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

    spec = GroupSpecB((7, 8, 9, 10, 11, 12, 7, 8), (BitVec(8, 0b11),))
    mu = spec.mu_subspace()
    expected = greedy_min_basis(mu, spec.n)
    monkeypatch.setattr(edcalc.core, "BitVec", counting_bitvec)
    assert greedy_min_basis(mu, spec.n) == expected
    assert len(built) == spec.m - mu.dim == 7
    # nor does it compute weights per element: the per-vector weight lives in the oracle only
    assert not hasattr(edcalc.core, "weight_exponent")


def seeded_rows(rng: Random, shape: str, m: int) -> list[int]:
    """mu rows over m factors: dense random rows (one block, mostly), sign flips of
    disjoint random groups of factors, or a shuffled chain of factor pairs joined
    in a random order, with a few random rows over chain pairs."""
    positions = list(range(m))
    rng.shuffle(positions)
    if shape == "connected":
        return [rng.getrandbits(m) or 1 for _ in range(rng.randint(1, m))]
    if shape == "disjoint":
        rows, i = [], 0
        while i < m:
            size = rng.randint(1, 4)
            rows.append(sum(1 << p for p in positions[i : i + size]))
            i += size
        return [r for r in rows if rng.random() < 0.8]
    rows = [1 << a | 1 << b for a, b in zip(positions, positions[1:])]
    rows += [rng.choice(rows) ^ rng.choice(rows) for _ in range(m // 8)]
    rng.shuffle(rows)
    return [r for r in rows if r]


@pytest.mark.parametrize("shape", ["connected", "disjoint", "chained"])
def test_blocks_match_the_scan_oracle(shape):
    rng = Random(shape)
    for m in [1, 2, 3, 5, 8, 13, 30, 64, 65, 200] * 4:
        rows = seeded_rows(rng, shape, m)
        for given in (rows, rref_bits(rows)):  # the greedy passes mu's reduced rows
            got = {mask: sorted(rows) for mask, rows in _blocks(given, m)}
            expected = {mask: sorted(rows) for mask, rows in reference_blocks(given, m).items()}
            assert got == expected, (shape, m, given)


def test_blocks_of_4000_pairs_joined_into_one_chain():
    # 4000 disjoint pairs, then the rows that chain them, from the far end: each
    # joining row meets two blocks, where the scan oracle tests every block
    m = 8000
    pairs = [0b11 << i for i in range(0, m, 2)]
    links = [0b110 << i for i in range(m - 4, -1, -2)]
    assert sorted(_blocks(pairs, m)) == sorted([mask, [mask]] for mask in pairs)
    [(mask, rows)] = _blocks(pairs + links, m)
    assert mask == (1 << m) - 1 and sorted(rows) == sorted(pairs + links)


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 200, 8000])
def test_basis_decodes_each_key_coordinate_by_coordinate(m):
    # random low bits, dense and sparse, the all-ones and single-bit patterns, and
    # weight exponents above the pattern, which the decode must drop; a key holds
    # coordinate i at bit m-1-i, a BitVec at bit i
    rng = Random(m)
    low = (1 << m) - 1
    patterns = [rng.getrandbits(m) for _ in range(20)]
    patterns += [rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m) for _ in range(10)]
    patterns += [low, 1, 1 << (m - 1)]
    keys = [rng.randint(0, 3 * m) << m | p for p in patterns]
    basis, total = _basis(keys, m)
    assert [v.coords() for v in basis] == [
        tuple(key >> (m - 1 - i) & 1 for i in range(m)) for key in keys
    ]
    assert all(v.m == m for v in basis)
    assert total == sum(1 << (key >> m) for key in keys)
