"""Acceptance gate: eight primary checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  Every
comparison is exact integer equality; the only tolerance anywhere is the
10 ms wall-clock budget in the first check.
"""

from __future__ import annotations

import timeit
from itertools import combinations
from random import Random
from typing import Callable

from edcalc import (
    CliffordTuple,
    CliffordUnit,
    GroupSpecB,
    STATUS_EXACT,
    builtin_certificate,
    compute_ed,
    validate,
    verify_certificate,
)
from edcalc.extraspecial import _Packing
from edcalc.gf2 import annihilator_bits, rref_bits
from edcalc.ledger import known_case_of_rows

from clifford_reference import indices, unit_product
from helpers import (
    all_units,
    compare_greedy_brute,
    even_masks,
    packed_closure,
    packed_product,
    packed_unit_product,
    random_group_spec,
    word_inverse,
    word_product,
)


def _report(label: str, body: Callable[[], None]) -> None:
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS")


def group_dims(n: tuple[int, ...]) -> int:
    return sum(2 * r * r + r for r in n)


def test_c1_mixed_spec_regression() -> None:
    def body() -> None:
        spec = GroupSpecB.from_mu_rows((1, 2, 3, 7), [[1, 1, 0, 0], [1, 0, 1, 0]])
        result = compute_ed(spec)
        assert result.status == STATUS_EXACT
        assert result.value == 53
        assert {v.coords() for v in result.minimal_basis} == {(1, 1, 1, 0), (0, 0, 0, 1)}
        assert result.basis_total_weight == 192
        assert result.group_dim == 139
        best = min(timeit.repeat(lambda: compute_ed(spec), number=1, repeat=5))
        assert best < 0.010

    _report("C1 (mixed-spec regression, exact 53 in under 10 ms)", body)


def test_c2_spin3_power_diagonal_family() -> None:
    def body() -> None:
        for m in range(2, 7):
            spec = GroupSpecB.from_mu_rows((1,) * m, [[1] * m])
            result = compute_ed(spec)
            assert result.status == STATUS_EXACT
            assert result.value == m + 1

    _report("C2 (spin3 powers modulo the diagonal give m+1)", body)


def test_c3_low_pair_diagonal_exact_four() -> None:
    def body() -> None:
        for n in ((1, 2), (1, 3)):
            result = compute_ed(GroupSpecB.from_mu_rows(n, [[1, 1]]))
            assert result.status == STATUS_EXACT
            assert result.value == 4

    _report("C3 (rank pairs (1,2) and (1,3) modulo the diagonal give 4)", body)


def test_c4_builtin_certificate_table() -> None:
    expected = {
        "pair:1:2": 4,
        "pair:1:3": 4,
        "pair:1:4": 5,
        "pair:1:5": 7,
        "pair:2:3": 5,
        "small3:1": 3,
        "small3:2": 4,
        "small3:3": 5,
        "small4": 5,
    }

    def body() -> None:
        for key, value in expected.items():
            report = verify_certificate(builtin_certificate(key))
            assert report.failure_reason is None
            assert report.abelian_in_quotient and report.centralizer_finite
            assert report.rank == value
            assert report.lower_bound == value
        # the [2,3] certificate carries one generator found by search; its
        # table value is also pinned independently by the known-case rules
        report_23 = verify_certificate(builtin_certificate("pair:2:3"))
        assert any("search" in note for note in report_23.notes)
        spec = GroupSpecB.from_mu_rows((2, 3), [[1, 1]])
        case = known_case_of_rows(validate(spec), spec.m, spec.n)
        assert case is not None and case.kind == "lower" and case.value == 5

    _report("C4 (builtin certificates prove 4,4,5,7,5 and 3,4,5,5)", body)


def test_c5_greedy_matches_exhaustive() -> None:
    def body() -> None:
        rng = Random(20260814)
        for _ in range(200):
            spec = random_group_spec(rng, max_m=8, max_rank=9, max_dual_dim=4)
            greedy_total, brute_total = compare_greedy_brute(spec)
            assert greedy_total == brute_total

    _report("C5 (greedy equals exhaustive minimum on 200 random specs)", body)


def test_c6_closed_form_families() -> None:
    def body() -> None:
        # trivial quotient kernel: one unit vector per factor
        for n in ((7,), (7, 8), (8, 9), (7, 9, 11)):
            result = compute_ed(GroupSpecB.from_mu_rows(n, []))
            assert result.status == STATUS_EXACT
            assert result.value == sum(2**r for r in n) - group_dims(n)

        # maximal kernel: the dual space is spanned by the all-ones vector
        for n in ((3, 4), (3, 5), (7, 8), (3, 4, 5), (4, 5, 6)):
            spec = GroupSpecB.from_dual_rows(n, [[1] * len(n)])
            result = compute_ed(spec)
            assert result.status == STATUS_EXACT
            assert result.value == 2 ** sum(n) - group_dims(n)
        assert compute_ed(GroupSpecB.from_dual_rows((7, 8), [[1, 1]])).value == 32527
        assert compute_ed(GroupSpecB.from_dual_rows((3, 4), [[1, 1]])).value == 71
        assert compute_ed(GroupSpecB.from_dual_rows((4, 5, 6), [[1, 1, 1]])).value == 32599

        # diagonal kernel: cheapest basis pairs every factor with a minimum
        for n in ((3, 3), (3, 4), (3, 4, 5), (5, 3, 4), (3, 3, 3), (4, 5, 6, 7)):
            result = compute_ed(GroupSpecB.from_mu_rows(n, [[1] * len(n)]))
            least = n.index(min(n))
            total = sum(2 ** (n[least] + r) for i, r in enumerate(n) if i != least)
            assert result.status == STATUS_EXACT
            assert result.value == total - group_dims(n)
        assert compute_ed(GroupSpecB.from_mu_rows((3, 4, 5), [[1, 1, 1]])).value == 272

    _report("C6 (closed forms for trivial, maximal, and diagonal kernels)", body)


def test_c7_clifford_relation_suite() -> None:
    def body() -> None:
        # group size, both by direct count and by closure from generators
        for dim in range(1, 6):
            units = all_units(dim)
            assert len(units) == 2**dim
            gens = [CliffordUnit(dim, 0, -1)]
            gens += [CliffordUnit.from_indices(dim, (i, i + 1)) for i in range(1, dim)]
            _, grown = packed_closure([CliffordTuple((g,)) for g in gens])
            assert len(grown) == 2**dim

        # generator relations, checked on the word oracle the products
        # are compared against: squares are -1 and distinct letters swap
        # with a sign flip
        for dim in range(2, 6):
            for i in range(1, dim + 1):
                assert word_product((i,), 1, (i,), 1) == (-1, ())
                for j in range(1, dim + 1):
                    if i == j:
                        continue
                    s_ij, w_ij = word_product((i,), 1, (j,), 1)
                    s_ji, w_ji = word_product((j,), 1, (i,), 1)
                    assert w_ij == w_ji and s_ij == -s_ji

        # the packed laws the verifier runs, and the object oracle the
        # reference closure runs, each checked against the word oracle
        for dim in range(2, 6):
            packing = _Packing((dim,))
            units = all_units(dim)
            packed = {u: packing.pack(CliffordTuple((u,))) for u in units}
            # every product matches the oracle
            for a in units:
                for b in units:
                    sign, word = word_product(indices(a), a.sign, indices(b), b.sign)
                    for prod in (unit_product(a, b), packed_unit_product(a, b)):
                        assert prod.sign == sign and indices(prod) == word
            # index-pair elements square to -1
            for i, j in combinations(range(1, dim + 1), 2):
                pair = CliffordUnit.from_indices(dim, (i, j))
                assert unit_product(pair, pair) == CliffordUnit(dim, 0, -1)
                assert packing.sign_pattern(packing.square(pair.mask)) == 1
            # two elements commute up to the parity of their overlap
            for a in units:
                for b in units:
                    ab, ba = unit_product(a, b), unit_product(b, a)
                    assert ab.mask == ba.mask
                    assert ab.sign == ba.sign * (-1) ** (a.mask & b.mask).bit_count()
                    commutator = packing.sign_pattern(packing.commutator(a.mask, b.mask))
                    assert commutator == (a.mask & b.mask).bit_count() % 2
            # associativity over all triples
            for a in units:
                for b in units:
                    ab = unit_product(a, b)
                    pab = packed_product(packing, packed[a], packed[b])
                    for c in units:
                        assert unit_product(ab, c) == unit_product(a, unit_product(b, c))
                        pc = packed[c]
                        assert packed_product(packing, pab, pc) == packed_product(
                            packing, packed[a], packed_product(packing, packed[b], pc)
                        )

        # sampled versions of the same checks out to nine indices
        rng = Random(97)
        for dim in range(6, 10):
            packing = _Packing((dim,))
            masks = even_masks(dim)

            def pick() -> CliffordUnit:
                return CliffordUnit(dim, rng.choice(masks), rng.choice((1, -1)))

            def pack(u: CliffordUnit) -> int:
                return packing.pack(CliffordTuple((u,)))

            for _ in range(300):
                a, b = pick(), pick()
                sign, word = word_product(indices(a), a.sign, indices(b), b.sign)
                for prod in (unit_product(a, b), packed_unit_product(a, b)):
                    assert prod.sign == sign and indices(prod) == word
                a_inv, b_inv = word_inverse(a), word_inverse(b)
                assert unit_product(a, a_inv) == CliffordUnit(dim, 0)
                assert packed_product(packing, pack(a), pack(a_inv)) == 0
                overlap = (a.mask & b.mask).bit_count() % 2
                commutator = unit_product(unit_product(unit_product(a, b), a_inv), b_inv)
                assert commutator.sign == (-1 if overlap else 1)
                assert packing.sign_pattern(packing.commutator(a.mask, b.mask)) == overlap
            for _ in range(150):
                a, b, c = pick(), pick(), pick()
                assert unit_product(unit_product(a, b), c) == unit_product(a, unit_product(b, c))
                pa, pb, pc = pack(a), pack(b), pack(c)
                assert packed_product(packing, packed_product(packing, pa, pb), pc) == (
                    packed_product(packing, pa, packed_product(packing, pb, pc))
                )

    _report("C7 (signed even products satisfy the defining relations)", body)


def test_c8_annihilator_identities() -> None:
    def body() -> None:
        rng = Random(4096)
        for _ in range(500):
            m = rng.randint(1, 16)
            space = rref_bits(rng.getrandbits(m) for _ in range(rng.randint(0, m)))
            dual = rref_bits(annihilator_bits(space, m))
            assert len(space) + len(dual) == m
            assert rref_bits(annihilator_bits(dual, m)) == space
            assert all((a & b).bit_count() % 2 == 0 for a in space for b in dual)

    _report("C8 (double annihilator and dimension count on 500 subspaces)", body)
