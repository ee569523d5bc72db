"""Bit-packed GF(2) linear algebra."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from edcalc import BitVec, EnumerationTooLargeError, GroupSpecB, count_bases
from edcalc.core import PatternWeights
from edcalc.gf2 import annihilator_bits, reduce_bits, rref_bits

from bases_reference import reference_enumerate_bases
from exactness_reference import reference_str
from greedy_reference import reference_enumerate_elements
from helpers import bases_of, dual_rows
from records_reference import in_span


def packed(rows):
    return [sum(c << i for i, c in enumerate(r)) for r in rows]


def test_bitvec_construction():
    assert GroupSpecB.from_mu_rows((1,) * 4, [[1, 0, 1, 0]]).mu_gens == (0b0101,)
    v = BitVec(4, 0b0101)
    assert v.coords() == (1, 0, 1, 0)
    assert str(v) == "(1,0,1,0)"
    assert BitVec(3).coords() == (0, 0, 0)


@pytest.mark.parametrize("m", [1, 2, 5, 63, 64, 65, 200])
def test_str_matches_the_coords_oracle(m):
    # dense and sparse random patterns, and the zero, all-ones and end-bit patterns
    rng = Random(m)
    patterns = [rng.getrandbits(m) for _ in range(30)]
    patterns += [rng.getrandbits(m) & rng.getrandbits(m) & rng.getrandbits(m) for _ in range(10)]
    patterns += [0, (1 << m) - 1, 1, 1 << (m - 1)]
    for bits in patterns:
        v = BitVec(m, bits)
        assert str(v) == reference_str(v), (m, bits)


def test_bitvec_validation():
    with pytest.raises(ValueError):
        BitVec(0, 0)
    # any ambient dimension is accepted, and the coordinates must lie inside it
    assert BitVec(65, 1 << 64).coords() == (0,) * 64 + (1,)
    with pytest.raises(ValueError):
        BitVec(65, 1 << 65)
    with pytest.raises(ValueError):
        BitVec(2, 0b100)
    with pytest.raises(ValueError, match="coordinates must be 0 or 1"):
        GroupSpecB.from_mu_rows((1, 1), [[0, 2]])


def test_rref_canonical_example():
    rows = rref_bits(packed([[1, 1, 0, 0], [1, 0, 1, 0]]))
    assert [BitVec(4, r).coords() for r in rows] == [(1, 0, 1, 0), (0, 1, 1, 0)]


def test_annihilator_example():
    mu = rref_bits(packed([[1, 1, 0, 0], [1, 0, 1, 0]]))
    dual = rref_bits(annihilator_bits(mu, 4))
    assert [BitVec(4, r).coords() for r in dual] == [(1, 1, 1, 0), (0, 0, 0, 1)]


def test_annihilator_of_trivial_and_full():
    full = rref_bits(annihilator_bits([], 3))
    assert len(full) == 3
    assert annihilator_bits(full, 3) == []


def test_count_bases():
    assert count_bases(0) == 1
    assert count_bases(1) == 1
    assert count_bases(2) == 3
    assert count_bases(3) == 28


def test_enumerate_bases_full_plane():
    space = rref_bits([0b01, 0b10])
    bases = list(bases_of(space))
    assert bases == [(0b01, 0b10), (0b01, 0b11), (0b10, 0b11)]
    for basis in bases:
        assert rref_bits(basis) == space


def test_enumerate_bases_counts_and_membership():
    space = rref_bits([1 << 0, 1 << 2, 1 << 4])
    bases = list(bases_of(space))
    assert len(bases) == count_bases(3) == 28
    seen = set(frozenset(b) for b in bases)
    assert len(seen) == 28
    for basis in bases:
        # packed ints, coordinate i at bit i, in ascending order
        assert all(type(b) is int for b in basis) and list(basis) == sorted(basis)
        assert rref_bits(basis) == space


def test_enumerate_bases_zero_dim():
    assert list(bases_of([])) == [()]


def test_enumerate_bases_cap():
    space = rref_bits(1 << i for i in range(3))
    with pytest.raises(EnumerationTooLargeError):
        list(bases_of(space, cap=27))
    # the cap counts every basis, also those that keep rejects
    with pytest.raises(EnumerationTooLargeError):
        list(bases_of(space, cap=27, keep=lambda bits: bits.bit_count() == 1))


def test_enumerate_bases_keep():
    space = rref_bits(1 << i for i in range(3))
    bases = list(bases_of(space))
    for keep in (lambda bits: bits != 0b011, lambda bits: bits & 1, lambda bits: bits > 7):
        kept = [b for b in bases if all(keep(v) for v in b)]
        assert list(bases_of(space, keep=keep)) == kept
    units = list(bases_of(space, keep=lambda bits: bits.bit_count() == 1))
    assert units == [(0b001, 0b010, 0b100)]


def random_space(rng: Random, dim: int) -> tuple[list[int], int]:
    """The reduced rows of a random subspace of the given dimension, and its m."""
    m = rng.randint(max(dim, 1), 8)
    vectors: list[int] = []
    while len(rref_bits(vectors)) < dim:
        vectors.append(rng.getrandbits(m))
    return rref_bits(vectors), m


def test_enumerate_bases_matches_the_recursion_oracle():
    rng = Random(1901)
    for dim in range(6):
        for _ in range(25):
            space, m = random_space(rng, dim)
            elems = [v.bits for v in reference_enumerate_elements(space, m)]
            kept = set(rng.sample(elems, rng.randint(0, min(len(elems), 20))))
            # every basis of a dimension-5 space is left to the pool specs below
            for keep in (kept.__contains__,) if dim == 5 else (None, kept.__contains__):
                expected = list(reference_enumerate_bases(space, m, keep=keep))
                assert list(bases_of(space, keep=keep)) == expected, (space, keep)


# the two specs of dual dimension 5 in the compute-small-bounds benchmark pool,
# with the number of their bases that avoid small factor products
DUAL5_POOL = [
    (GroupSpecB((3, 3, 1, 2, 1, 3), (0b111111,)), 5868),
    (GroupSpecB((2, 2, 1, 1, 1, 2), (0b011000,)), 2352),
]


@pytest.mark.parametrize("spec,searched", DUAL5_POOL, ids=["diagonal", "random"])
def test_enumerate_bases_matches_the_recursion_oracle_on_the_dual5_pool_specs(spec, searched):
    dual = dual_rows(spec)
    # the upper-bound search's filter, then every basis
    for keep, count in ((PatternWeights(spec.n).__getitem__, searched), (None, 83328)):
        expected = list(reference_enumerate_bases(dual, spec.m, keep=keep))
        assert len(expected) == count
        assert list(bases_of(dual, keep=keep)) == expected


coord_rows = st.integers(min_value=1, max_value=10).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(0, 1), min_size=m, max_size=m), min_size=0, max_size=6
    ).map(lambda rows: (m, rows))
)


@given(coord_rows)
def test_rref_is_spanning_invariant(case):
    m, rows = case
    vectors = packed(rows)
    space = rref_bits(vectors)
    assert all(in_span(BitVec(m, v), space) for v in vectors)
    assert rref_bits(space) == space
    # permuting or duplicating the spanning set cannot change the canonical form
    assert rref_bits(list(reversed(vectors)) + vectors) == space


@given(coord_rows)
def test_double_annihilator(case):
    m, rows = case
    space = rref_bits(packed(rows))
    dual = rref_bits(annihilator_bits(space, m))
    assert len(space) + len(dual) == m
    assert rref_bits(annihilator_bits(dual, m)) == space
    assert all((u & v).bit_count() % 2 == 0 for u in space for v in dual)


def test_rref_and_annihilator_rows_are_reduced():
    # the rows rref_bits returns, and the dual's reduced rows, are exactly rref_bits of
    # themselves.  rref_bits puts its rows in pivot order by one sort at the end, so the
    # inputs also hold rows up to 300 bits wide with zero and repeated rows, and rows fed
    # highest pivot first
    rng = Random(71)
    cases = []
    for _ in range(300):
        m = rng.randint(1, 64)
        cases.append((m, [rng.getrandbits(m) for _ in range(rng.randint(0, 8))]))
    for _ in range(60):
        m = rng.randint(65, 300)
        bits = [rng.getrandbits(m) for _ in range(rng.randint(1, 12))]
        bits += [0] * rng.randint(1, 2) + rng.choices(bits, k=rng.randint(1, 3))
        rng.shuffle(bits)
        cases.append((m, bits))
        # each row's pivot lies below every pivot found before it
        pivots = sorted(rng.sample(range(m), rng.randint(2, 12)), reverse=True)
        cases.append((m, [rng.getrandbits(m - p) << p | 1 << p for p in pivots]))
    for m, bits in cases:
        rows = rref_bits(bits)
        shuffled = rng.sample(bits, len(bits))
        assert rows == rref_bits(rows) == rref_bits(iter(bits)) == rref_bits(shuffled)
        pivots = [r & -r for r in rows]
        assert all(p < q for p, q in zip(pivots, pivots[1:]))
        assert not any(reduce_bits(b, rows) for b in bits)
        dual = rref_bits(annihilator_bits(rows, m))
        assert dual == rref_bits(dual)
        assert len(dual) == m - len(rows)
        assert all(r >> m == 0 for r in rows + dual)
