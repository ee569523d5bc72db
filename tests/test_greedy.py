"""The int-key greedy against the (weight exponent, coordinate tuple) greedy it replaced.

Both must pick the same basis vectors in the same order and report the same
total, ties included.
"""

from __future__ import annotations

from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

import edcalc.core
from edcalc import BitVec, GroupSpecB, greedy_min_basis
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
