"""The int-key greedy against the (weight exponent, coordinate tuple) greedy it replaced.

Both must pick the same basis vectors in the same order and report the same
total, ties included.  The greedy reads its keys either from a full enumeration
of the dual or from a lazy walk over sets of factors; each path is also run on
its own, whichever of the two `greedy_min_basis` would pick.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edcalc.core
from edcalc import BitVec, GroupSpecB, compute_ed, greedy_min_basis
from edcalc.core import (
    _enumerated_keys,
    _greedy,
    _walked_keys,
    _WalkBudgetSpent,
    weight_exponent,
)
from edcalc.gf2 import enumerate_elements, rref

from greedy_reference import reference_enumerate_elements, reference_greedy_min_basis
from helpers import random_group_spec


def assert_same_greedy(spec: GroupSpecB) -> None:
    dual = spec.dual_subspace()
    basis, total = greedy_min_basis(dual, spec.n)
    ref_basis, ref_total = reference_greedy_min_basis(dual, spec.n)
    assert [v.bits for v in basis] == [v.bits for v in ref_basis], spec
    assert all(v.m == spec.m for v in basis)
    assert total == ref_total, spec


def assert_both_paths_match(spec: GroupSpecB) -> None:
    mu, dual = spec.mu_subspace(), spec.dual_subspace()
    ref_basis, ref_total = reference_greedy_min_basis(dual, spec.n)
    expected = ([v.bits for v in ref_basis], ref_total)
    mu_rows = [v.bits for v in mu.basis]
    walked = _greedy(_walked_keys(spec.n, mu_rows, (1 << spec.m) - 1), spec.m, dual.dim)
    enumerated = _greedy(_enumerated_keys(dual, spec.n, dual.dim), spec.m, dual.dim)
    for basis, total in (walked, enumerated):
        assert ([v.bits for v in basis], total) == expected, spec


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
    # ranks 7..12, dual dimension k <= 13, mu dimension 0..10: up to 23 factors
    rng = Random(7)
    for _ in range(30):
        k = rng.randint(1, 13)
        d = rng.randint(0, 10)
        n = tuple(rng.randint(7, 12) for _ in range(k + d))
        spec = spec_with_dims(rng, n, d)
        assert spec.dual_subspace().dim == k
        assert_same_greedy(spec)


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
    basis, _ = greedy_min_basis(spec.dual_subspace(), spec.n)
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


def test_both_paths_match_reference_across_the_crossover():
    # k - d from -3 to 12, so each margin is run by both paths whatever the crossover says
    rng = Random(31)
    for margin in range(-3, 13):
        for _ in range(6):
            # k = d + margin >= 1, on at most 14 factors
            d = rng.randint(max(0, 1 - margin), (14 - margin) // 2)
            k = d + margin
            ranks = rng.choice([range(1, 4), range(7, 13), range(1, 13), [5]])
            n = tuple(rng.choice(ranks) for _ in range(k + d))
            spec = spec_with_dims(rng, n, d)
            assert spec.dual_subspace().dim == k
            assert_both_paths_match(spec)


def test_both_paths_match_reference_on_equal_rank_specs():
    # every pattern of one support size ties on weight: only the tie-break orders them
    rng = Random(37)
    for m in range(1, 13):
        for d in range(0, min(m, 6)):
            assert_both_paths_match(spec_with_dims(rng, (rng.randint(1, 12),) * m, d))


# wide duals over small mu: the shapes the walk is chosen for
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
def test_both_paths_match_reference_on_tie_heavy_specs(spec):
    assert_both_paths_match(spec)


def test_walk_reaches_position_63():
    # m = 64 packs positions 0..63 into the walk's 6-bit field.  mu lives on six
    # factors, so the dual splits into the other 58 unit patterns plus a small
    # dual on those six: the basis is both bases merged in key order.
    rng = Random(64)
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
        basis, total = _greedy(_walked_keys(n, mu_rows, 1 << 20), 64, 62)
        assert list(basis) == expected
        assert total == sum(1 << weight_exponent(v, n) for v in expected)


def test_walk_over_budget_falls_back_to_enumeration():
    # twelve rank-1 factors make every one of their 4095 sets lighter than the
    # rank-13 factor, so the walk would visit them all before its last pattern
    rng = Random(13)
    spec = spec_with_dims(rng, (1,) * 12 + (13,), 2)
    mu, dual = spec.mu_subspace(), spec.dual_subspace()
    assert dual.dim == 11
    with pytest.raises(_WalkBudgetSpent):
        _greedy(_walked_keys(spec.n, [v.bits for v in mu.basis], 1 << 10), spec.m, 11)
    assert_same_greedy(spec)


def test_compute_large_shape_takes_the_walk(monkeypatch):
    # k = 16, d = 4 as in the benchmark's compute-large pool: enumerating its
    # 65535 patterns instead of walking would fail here, not only run slower
    rng = Random(16)
    spec = spec_with_dims(rng, tuple(rng.randint(7, 12) for _ in range(20)), 4)
    assert spec.dual_subspace().dim == 16
    monkeypatch.setattr(edcalc.core, "WALK_MIN_MARGIN", 1 << 30)
    enumerated = compute_ed(spec)
    monkeypatch.undo()

    def refuse(*args):
        raise AssertionError("compute_ed enumerated the dual")

    monkeypatch.setattr(edcalc.core, "enumerate_elements", refuse)
    assert compute_ed(spec) == enumerated
    assert enumerated.status == "exact"


def test_only_the_chosen_vectors_become_bitvecs(monkeypatch):
    built = []

    def counting_bitvec(*args):
        built.append(args)
        return BitVec(*args)

    def no_weight_exponent(*args):
        raise AssertionError("the greedy must not compute weights per element")

    spec = GroupSpecB((7, 8, 9, 10, 11, 12, 7, 8), (BitVec(8, 0b11),))
    dual = spec.dual_subspace()
    expected = greedy_min_basis(dual, spec.n)
    monkeypatch.setattr(edcalc.core, "BitVec", counting_bitvec)
    monkeypatch.setattr(edcalc.core, "weight_exponent", no_weight_exponent)
    assert greedy_min_basis(dual, spec.n) == expected
    assert len(built) == dual.dim == 7


def test_elements_come_in_the_gray_walk_order():
    rng = Random(5)
    for _ in range(50):
        spec = random_group_spec(rng, max_m=10, max_rank=3, max_dual_dim=8)
        dual = spec.dual_subspace()
        expected = [v.bits for v in reference_enumerate_elements(dual)]
        assert enumerate_elements(dual) == expected
