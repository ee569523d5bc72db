"""Group specs, weights, minimal bases, known cases, and the full decision procedure."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from random import Random

import pytest

import edcalc.core
import edcalc.ledger
from edcalc import (
    STATUS_BOUNDS,
    STATUS_EXACT,
    BitVec,
    DimensionMismatchError,
    EmptySpecError,
    EnumerationTooLargeError,
    GroupSpecB,
    KnownCase,
    NotReducedError,
    SpecFormatError,
    compute_ed,
    count_bases,
    diagonal_mu,
    greedy_min_basis,
    group_dim,
    is_small_product,
    known_cases,
    maximal_mu,
    rref,
    spec_from_doc,
    spec_to_doc,
    validate,
)
from edcalc.core import (
    WARN_BASIS_CAP,
    WARN_ELEMENT_CAP,
    PatternWeights,
    TraceEntry,
    theorem_hypothesis_holds,
)

from edcalc.gf2 import check_basis_count, enumerate_bases

from bases_reference import reference_enumerate_bases
from exactness_reference import ReferencePatternWeights, reference_small_product_text
from greedy_reference import weight_exponent
from helpers import (
    brute_bounds,
    brute_min_basis,
    check_restricted_greedy,
    compare_greedy_brute,
    random_group_spec,
    support_ranks,
)


def mk(n, mu_rows=()):
    return GroupSpecB.from_mu_rows(n, mu_rows)


MIXED = mk([1, 2, 3, 7], [[1, 1, 0, 0], [1, 0, 1, 0]])


def test_spec_construction_and_validation():
    assert MIXED.m == 4
    validate(MIXED)
    with pytest.raises(ValueError):
        GroupSpecB((1, 0))
    with pytest.raises(DimensionMismatchError):
        GroupSpecB((1, 2), (BitVec.from_coords([1, 0, 0]),))
    with pytest.raises(EmptySpecError):
        validate(GroupSpecB(()))


def test_validate_not_reduced():
    spec = mk([1, 1], [[1, 0]])
    with pytest.raises(NotReducedError) as err:
        validate(spec)
    assert err.value.factor == 1
    # splitting hides in a sum of generators too
    spec = mk([2, 3, 4], [[1, 1, 0], [0, 1, 0]])
    with pytest.raises(NotReducedError):
        validate(spec)


def per_factor_validate(spec):
    """The check validate made before it read mu's reduced rows: one unit pattern per factor."""
    if spec.m == 0:
        raise EmptySpecError("spec has no factors")
    mu = spec.mu_subspace()
    for i in range(spec.m):
        if BitVec.unit(spec.m, i) in mu:
            raise NotReducedError(i + 1)


def test_validate_matches_the_per_factor_check():
    rng = Random(909)
    outcomes = {"reduced": 0, "not reduced": 0}
    for _ in range(600):
        m = rng.randint(1, 12)
        gens = [BitVec(m, rng.getrandbits(m)) for _ in range(rng.randint(0, m))]
        if gens and rng.random() < 0.3:
            # hide a unit pattern in a sum of generators
            gens.append(BitVec(m, gens[0].bits ^ 1 << rng.randrange(m)))
        spec = GroupSpecB(tuple(rng.randint(1, 9) for _ in range(m)), tuple(gens))
        try:
            per_factor_validate(spec)
        except NotReducedError as expected:
            outcomes["not reduced"] += 1
            with pytest.raises(NotReducedError) as err:
                validate(spec)
            assert err.value.factor == expected.factor
            assert str(err.value) == str(expected)
        else:
            outcomes["reduced"] += 1
            assert validate(spec) == spec.mu_subspace()
    assert min(outcomes.values()) > 150, outcomes


def test_group_dim():
    assert group_dim([1]) == 3
    assert group_dim([2]) == 10
    assert group_dim([3]) == 21
    assert group_dim([7]) == 105
    assert group_dim([1, 2, 3, 7]) == 139


def test_small_products():
    for a in range(1, 7):
        assert is_small_product([a])
    assert not is_small_product([7])
    for a in range(1, 6):
        assert is_small_product([1, a])
        assert is_small_product([a, 1])
    assert is_small_product([2, 2])
    assert is_small_product([3, 2])
    assert not is_small_product([1, 6])
    assert not is_small_product([2, 4])
    assert not is_small_product([3, 3])
    assert is_small_product([1, 1, 1])
    assert is_small_product([1, 1, 2])
    assert is_small_product([1, 3, 1])
    assert not is_small_product([1, 2, 2])
    assert not is_small_product([1, 1, 4])
    assert is_small_product([1, 1, 1, 1])
    assert not is_small_product([1, 1, 1, 2])
    assert not is_small_product([1, 1, 1, 1, 1])


def test_support_ranks():
    assert support_ranks(BitVec.from_coords([1, 0, 1, 1]), (5, 1, 2, 2)) == (2, 2, 5)


def oracle_weight(bits, n):
    """The pattern's weight by the BitVec helpers, or None for a small factor product."""
    v = BitVec(len(n), bits)
    return None if is_small_product(support_ranks(v, n)) else 1 << weight_exponent(v, n)


def sample_patterns(rng, n):
    """Supports of 1 to 6 factors, weighted to the small ranks, and some dense patterns."""
    m = len(n)
    low = [i for i in range(m) if n[i] <= 7] or list(range(m))
    for _ in range(40):
        size = rng.randint(1, min(6, m))
        pool = low if rng.random() < 0.8 and len(low) >= size else range(m)
        yield sum(1 << i for i in rng.sample(pool, size))
    for _ in range(5):
        yield rng.getrandbits(m) or 1


def assert_weights_match_oracle(n, patterns):
    weights = PatternWeights(n)
    for bits in patterns:
        expected = oracle_weight(bits, n)
        assert weights.is_small(bits) == (expected is None), (n, bits)
        assert weights[bits] == expected, (n, bits)
        assert weights[bits] == expected  # a second lookup reads the stored answer
    assert set(weights) == set(patterns)


def test_pattern_weights_match_the_bitvec_oracle():
    rng = Random(1313)
    small = 0
    for _ in range(300):
        m = rng.randint(1, 64)
        n = tuple(rng.randint(1, 12) for _ in range(m))
        patterns = list(sample_patterns(rng, n))
        assert_weights_match_oracle(n, patterns)
        small += sum(oracle_weight(bits, n) is None for bits in patterns)
    assert small > 500


def test_pattern_weights_at_the_rank_and_size_limits():
    # ranks 6 and 7 sit on either side of the largest listed rank; (1, 1, 1, 1)
    # is the longest entry, so 4 factors can be small and 5 cannot
    n = (6, 7, 1, 1, 1, 1, 1, 2, 3, 5)
    m = len(n)
    assert_weights_match_oracle(n, range(1, 1 << m))
    weights = PatternWeights(n)
    assert weights.is_small(0b1) and not weights.is_small(0b10)
    assert weights.is_small(0b1000000100) and not weights.is_small(0b110)  # (1, 5) and (1, 7)
    assert weights.is_small(0b0000111100) and not weights.is_small(0b0001111100)
    assert not weights.is_small(0b0110001100)  # (1, 1, 2, 3) passes the rejects, but is not listed
    assert weights[0b11] == 1 << 13 and weights[0b100] is None


@pytest.mark.parametrize("m", [1, 2, 5, 9, 64, 200])
def test_pattern_weights_match_the_previous_classification(m):
    # ranks weighted to the listed ones, so that many patterns pass both rejects
    rng = Random(m)
    for _ in range(20):
        n = tuple(rng.choice((1, 1, 1, 2, 2, 3, 5, 6, 7, 12)) for _ in range(m))
        patterns = list(sample_patterns(rng, n)) + [(1 << m) - 1]
        weights, reference = PatternWeights(n), ReferencePatternWeights(n)
        for bits in patterns:
            assert weights.is_small(bits) == reference.is_small(bits), (n, bits)
            assert weights[bits] == reference[bits], (n, bits)


@pytest.mark.parametrize(
    "extra",
    [[(7,)], [(1, 7)], [(1, 1, 1, 1, 1)], [(2, 2, 2, 2, 2, 2)], [(6, 12), (1, 1, 1, 1, 1, 1)]],
    ids=["rank7", "pair-1-7", "five-ones", "six-twos", "wide"],
)
def test_pattern_weights_follow_an_extended_list(monkeypatch, extra):
    # both rejects read limits fixed from SMALL_PRODUCTS at import: with the list
    # and its limits extended past today's largest rank and longest entry, the
    # new entries must still be found
    products = edcalc.ledger.SMALL_PRODUCTS
    assert edcalc.ledger.SMALL_MAX_RANK == max(map(max, products))
    assert edcalc.ledger.SMALL_MAX_FACTORS == max(map(len, products))
    products = products | set(extra)
    monkeypatch.setattr(edcalc.ledger, "SMALL_PRODUCTS", products)
    monkeypatch.setattr(edcalc.core, "SMALL_MAX_RANK", max(map(max, products)))
    monkeypatch.setattr(edcalc.core, "SMALL_MAX_FACTORS", max(map(len, products)))
    rng = Random(7)
    for ranks in extra:
        n = ranks + tuple(rng.randint(1, 12) for _ in range(8))
        weights = PatternWeights(n)
        assert weights.is_small((1 << len(ranks)) - 1), ranks
        assert weights[(1 << len(ranks)) - 1] is None
        assert_weights_match_oracle(n, range(1, 1 << len(n)))


def test_greedy_on_full_space_picks_units():
    n = (2, 1, 3)
    # trivial mu: the dual is the whole space
    basis, total = greedy_min_basis(rref([], m=3), n)
    assert set(v.coords() for v in basis) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert total == sum(1 << r for r in n)


def test_greedy_example_mixed():
    basis, total = greedy_min_basis(MIXED.mu_subspace(), MIXED.n)
    assert [v.coords() for v in basis] == [(1, 1, 1, 0), (0, 0, 0, 1)]
    assert total == 192


def test_greedy_matches_brute_small_cases():
    for seed in range(30):
        spec = random_group_spec(Random(seed), max_m=6, max_rank=6, max_dual_dim=3)
        greedy, brute = compare_greedy_brute(spec)
        assert greedy == brute


def test_brute_on_mixed_example():
    basis, total = brute_min_basis(MIXED.dual_subspace(), MIXED.n)
    assert total == 192
    assert rref(list(basis), 4) == MIXED.dual_subspace()


def test_theorem_hypothesis():
    holds, bad = theorem_hypothesis_holds(MIXED)
    assert not holds and bad == (1, 2)
    big = mk([7, 9], [[1, 1]])
    assert theorem_hypothesis_holds(big) == (True, ())
    # rank 3 factor that splits off fails the hypothesis
    split = GroupSpecB((3, 3))
    assert theorem_hypothesis_holds(split) == (False, (1, 2))


def test_theorem_hypothesis_matches_dual_subspace_definition():
    # the hypothesis read off the dual subspace, as it was first written
    def by_dual(spec):
        dual = spec.dual_subspace()
        bad = tuple(
            i + 1
            for i, r in enumerate(spec.n)
            if r < 7 and (r < 3 or BitVec.unit(spec.m, i) in dual)
        )
        return (not bad, bad)

    rng = Random(99)
    trivial = 0
    for _ in range(500):
        m = rng.randint(1, 10)
        n = tuple(rng.randint(1, 9) for _ in range(m))
        gens = tuple(BitVec(m, rng.getrandbits(m)) for _ in range(rng.randint(0, 3)))
        spec = GroupSpecB(n, gens)
        trivial += spec.mu_subspace().dim == 0
        assert theorem_hypothesis_holds(spec) == by_dual(spec), spec
    assert trivial > 100


def test_known_cases_matching():
    def ledger(n, mu_rows=()):
        spec = mk(n, mu_rows)
        return known_cases(validate(spec), spec.n)

    assert ledger([1, 1, 1], [[1, 1, 1]]).value == 4
    assert ledger([1, 1, 1], [[1, 1, 1]]).kind == "exact"
    # redundant generators and permuted ranks still match
    kc = ledger([2, 1], [[1, 1], [1, 1]])
    assert kc.kind == "exact" and kc.value == 4
    kc = ledger([2, 2], [[1, 1]])
    assert kc.kind == "lower" and kc.value == 5 and kc.tag == "equal-rank-diagonal"
    kc = ledger([1, 4], [[1, 1]])
    assert kc.kind == "lower" and kc.value == 5
    kc = ledger([1, 5], [[1, 1]])
    assert kc.value == 7
    kc = ledger([3, 2], [[1, 1]])
    assert kc.value == 5
    kc = ledger([1, 1, 2], [[1, 1, 0], [0, 1, 1]])
    assert kc.kind == "lower" and kc.value == 4 and kc.tag == "small-maximal-quotient"
    kc = ledger([1, 1, 1, 1], [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert kc.value == 5
    assert ledger([7]) is None
    assert ledger([1, 1, 2], [[1, 1, 1]]) is None  # diagonal, not maximal


def test_compute_ed_exact_mixed():
    res = compute_ed(MIXED)
    assert res.status == STATUS_EXACT
    assert res.value == res.lower == res.upper == 53
    assert res.basis_total_weight == 192
    assert res.group_dim == 139
    assert res.warnings == ()
    assert any(t.rule == "minimal-basis-exact" for t in res.trace)


def test_compute_ed_known_exact_overrides_small_basis():
    res = compute_ed(mk([1, 1], [[1, 1]]))
    assert res.status == STATUS_EXACT and res.value == 3
    assert any(t.rule == "known-exact/spin3-power-diagonal" for t in res.trace)


def test_compute_ed_bounds_only_equal_pair():
    res = compute_ed(mk([2, 2], [[1, 1]]))
    assert res.status == STATUS_BOUNDS
    assert res.lower == 5 and res.upper is None
    assert any(t.rule == "known-lower/equal-rank-diagonal" for t in res.trace)


def test_compute_ed_trivial_small_factor():
    res = compute_ed(GroupSpecB((1,)))
    assert res.status == STATUS_BOUNDS
    assert res.lower == 0 and res.upper is None


def test_compute_ed_trivial_large_factor():
    res = compute_ed(GroupSpecB((7,)))
    assert res.status == STATUS_EXACT and res.value == 23


def test_compute_ed_upper_from_other_basis():
    # dual subspace {(1,1,0), (1,0,1), (0,1,1)} over ranks (2,2,7): the minimal
    # basis holds the small vector (1,1,0), but the two non-small vectors of
    # weight 2^9 form a basis and give an upper bound
    spec = mk([2, 2, 7], [[1, 1, 1]])
    res = compute_ed(spec)
    d = group_dim((2, 2, 7))
    assert res.status == STATUS_BOUNDS
    assert res.basis_total_weight == 16 + 512
    assert res.lower == 16 + 512 - d
    assert res.upper == 512 + 512 - d
    assert any(t.rule == "upper-bound-search" for t in res.trace)


def test_compute_ed_no_qualifying_basis():
    # over ranks (1, 6) every basis of the full plane contains a small unit vector
    res = compute_ed(GroupSpecB((1, 6)))
    assert res.status == STATUS_BOUNDS
    assert res.upper is None
    assert res.lower == max(0, 2 + 64 - group_dim((1, 6)))


def load_spec(name):
    return spec_from_doc(json.loads((Path(__file__).parent / "data" / name).read_text()))


def test_compute_ed_basis_cap_boundary():
    # (1,1,2,3,1,2) under diagonal mu: the dual has dimension 5 and 83328 bases,
    # 2352 of them without small factor products
    spec = load_spec("dual5_small_diagonal.json")
    capped = compute_ed(spec, enum_cap=83327)
    assert capped.warnings == (WARN_BASIS_CAP,) and capped.upper is None
    assert capped.trace[-1].rule == "upper-bound-search"
    assert capped.trace[-1].citation == "83328 bases exceed the cap of 83327; search skipped"
    searched = compute_ed(spec, enum_cap=83328)
    assert searched.warnings == () and searched.upper == 206
    assert searched.trace[-1].citation.startswith("best of 2352 bases ")


def test_one_enum_cap_bounds_the_greedy_and_the_search():
    # five rank-2 factors under the diagonal: a dual of dimension 4, with 2^4 - 1
    # nonzero patterns and 840 bases.  15 admits the greedy and refuses the search
    spec = load_spec("rank2_five_diagonal.json")
    mu = spec.mu_subspace()
    with pytest.raises(EnumerationTooLargeError, match=" 2\\^4 - 1 nonzero elements, cap is 14$"):
        greedy_min_basis(mu, spec.n, enum_cap=14)
    assert compute_ed(spec, enum_cap=14).warnings == (WARN_ELEMENT_CAP,)
    assert greedy_min_basis(mu, spec.n, enum_cap=15) == greedy_min_basis(mu, spec.n)
    for cap in (15, 839):
        capped = compute_ed(spec, enum_cap=cap)
        assert capped.warnings == (WARN_BASIS_CAP,) and capped.minimal_basis
        assert (capped.lower, capped.upper) == (14, None)
    assert compute_ed(spec, enum_cap=840) == compute_ed(spec)
    assert compute_ed(spec).upper == 974
    # keyword-only: a bare number is not taken for a cap of another unit
    with pytest.raises(TypeError):
        compute_ed(spec, 840)
    with pytest.raises(TypeError):
        greedy_min_basis(mu, spec.n, 15)


def test_compute_ed_refuses_a_known_exact_value_below_the_weight_formula(monkeypatch):
    # the weight-formula lower bound of this spec is 14
    case = KnownCase("exact", 13, "planted", "an exact value below the formula")
    monkeypatch.setattr(edcalc.core, "known_cases", lambda mu, n: case)
    spec = load_spec("rank2_five_diagonal.json")
    message = "^known exact value contradicts the weight-formula lower bound$"
    with pytest.raises(RuntimeError, match=message):
        compute_ed(spec)


def test_compute_ed_refuses_a_search_upper_bound_below_a_known_lower_value(monkeypatch):
    # the upper-bound search of this spec gives 206
    case = KnownCase("lower", 10**6, "planted", "a lower value above the search")
    monkeypatch.setattr(edcalc.core, "known_cases", lambda mu, n: case)
    spec = load_spec("dual5_small_diagonal.json")
    with pytest.raises(RuntimeError, match="^upper bound search contradicts the lower bound$"):
        compute_ed(spec)


def test_the_search_cap_refuses_before_building_the_dual(monkeypatch):
    # the dual has dimension 6: count_bases(6) = 27998208 exceeds the default cap
    spec = load_spec("dual6_small_diagonal.json")
    expected = compute_ed(spec)
    assert expected.trace[-1].citation == (
        "27998208 bases exceed the cap of 16777216; search skipped"
    )

    def refuse(*args):
        raise AssertionError("the dual was built for a refused search")

    monkeypatch.setattr(edcalc.core, "annihilator", refuse)
    monkeypatch.setattr(edcalc.core, "enumerate_bases", refuse)
    assert compute_ed(spec) == expected
    # one rule and one text decide, before the dual is built and inside the search
    below = compute_ed(spec, enum_cap=count_bases(6) - 1)
    assert below.trace[-1].citation == "27998208 bases exceed the cap of 27998207; search skipped"
    with pytest.raises(EnumerationTooLargeError, match="^27998208 bases exceed the cap of 27998207$"):
        next(enumerate_bases(spec.dual_subspace(), count_bases(6) - 1))


@pytest.mark.parametrize("m", [1, 2, 4, 7, 64, 200])
def test_small_product_text_matches_the_previous_rendering(m):
    # small ranks, so that most minimal bases hold small products, under random,
    # trivial and pairwise-diagonal mu; the search is capped at 1, which leaves
    # the exactness test as it is
    rng = Random(m)
    specs = []
    for _ in range(15):
        n = tuple(rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9)) for _ in range(m))
        gens = [BitVec(m, rng.getrandbits(m)) for _ in range(rng.randint(0, min(m - 1, 4)))]
        pairs = [BitVec(m, 0b11 << i) for i in range(0, m - 1, 2)]
        specs += [GroupSpecB(n, gens), GroupSpecB(n, pairs)]
    listed = 0
    for spec in specs:
        try:
            result = compute_ed(spec, enum_cap=1)
        except NotReducedError:
            continue
        text = [t.citation for t in result.trace if t.rule == "small-product-list"]
        expected = reference_small_product_text(result.minimal_basis, spec.n)
        assert text == ([] if expected is None else [expected]), spec
        listed += bool(text)
    assert listed >= 4


def seeded_small_duals(seed: int, count: int) -> list[GroupSpecB]:
    """Random specs of 1 to 6 factors of ranks 1..4 with duals of dimension at most 4."""
    rng = Random(seed)
    return [random_group_spec(rng, max_m=6, max_rank=4, max_dual_dim=4) for _ in range(count)]


def test_restricted_enumeration_keeps_exactly_the_bases_without_small_products():
    # the upper-bound search enumerates the bases of the non-small patterns only:
    # the full enumeration's bases with no small pattern, in the same order
    some, none = 0, 0
    for spec in seeded_small_duals(1801, 200):
        dual, weights = spec.dual_subspace(), PatternWeights(spec.n)
        every = list(enumerate_bases(dual))
        assert every == list(reference_enumerate_bases(dual)), spec
        full = [b for b in every if all(oracle_weight(v, spec.n) for v in b)]
        assert list(enumerate_bases(dual, keep=weights.__getitem__)) == full, spec
        some += 0 < len(full) < count_bases(dual.dim)
        none += not full
    assert some > 30 and none > 30


def test_restricted_greedy_matches_the_exhaustive_search_on_random_specs():
    # 41 of these specs have small patterns and bases without them; on 30 the
    # walk's bound ends its stream before the restricted greedy holds a basis
    fell_short = 0
    for spec in seeded_small_duals(1801, 200):
        _, best, _ = brute_bounds(spec.dual_subspace(), spec.n)
        fell_short += check_restricted_greedy(spec, best)
    assert fell_short <= 30


def test_compute_ed_permutation_equivariance():
    base = compute_ed(mk([1, 2, 3, 7], [[1, 1, 0, 0], [1, 0, 1, 0]]))
    perm = compute_ed(mk([7, 3, 2, 1], [[0, 0, 1, 1], [0, 1, 0, 1]]))
    assert (perm.status, perm.lower, perm.upper) == (base.status, base.lower, base.upper)
    assert perm.basis_total_weight == base.basis_total_weight


def test_compute_ed_capped_known_exact():
    spec = GroupSpecB((1,) * 30, diagonal_mu(30).basis)
    res = compute_ed(spec)
    assert res.status == STATUS_EXACT and res.value == 31
    assert WARN_ELEMENT_CAP in res.warnings
    assert res.minimal_basis == ()


def test_compute_ed_capped_no_rule():
    # one connected block with a dual of dimension 25, which no ledger family matches
    spec = GroupSpecB((9,) * 25 + (10,), diagonal_mu(26).basis)
    res = compute_ed(spec)
    assert res.status == STATUS_BOUNDS
    assert res.lower == 0 and res.upper is None
    assert WARN_ELEMENT_CAP in res.warnings


def test_compute_ed_capped_trace_counts_the_refused_block():
    # 26 factors under their diagonal make one block with a dual of dimension 25;
    # 4 factors mu leaves alone add 4 to the whole dual but nothing to that block
    spec = GroupSpecB((9,) * 25 + (10,) * 5, [BitVec(30, (1 << 26) - 1)])
    res = compute_ed(spec)
    assert WARN_ELEMENT_CAP in res.warnings
    citations = {t.rule: t.citation for t in res.trace}
    assert citations["dual-subspace"].endswith("a subspace of dimension 29")
    assert citations["greedy-minimal-basis"] == (
        "2^25 - 1 nonzero patterns exceed the enumeration cap; greedy skipped"
    )


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7"
)
def test_compute_ed_writes_values_over_4300_digits_only_with_the_limit_lifted():
    # the trace writes the basis weight, here 2^40000 with 12042 digits, in decimal
    spec = GroupSpecB((20000, 20000), diagonal_mu(2).basis)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(ValueError, match="4300"):
            compute_ed(spec)
        sys.set_int_max_str_digits(0)
        res = compute_ed(spec)
    finally:
        sys.set_int_max_str_digits(limit)
    assert res.status == STATUS_EXACT
    assert res.value == 2**40000 - group_dim((20000, 20000))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7"
)
def test_a_refused_block_over_4300_digits_is_capped_under_the_default_limit():
    # a dual of dimension 14,399 has a count 2^k - 1 of 4335 digits; the refusal
    # writes it as a power, so the default limit lets the capped path run
    spec = GroupSpecB((7,) * 14_400, diagonal_mu(14_400).basis)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        with pytest.raises(EnumerationTooLargeError) as caught:
            greedy_min_basis(spec.mu_subspace(), spec.n)
        res = compute_ed(spec)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(caught.value) == (
        "subspace of dimension 14399 has 2^14399 - 1 nonzero elements, cap is 16777216"
    )
    assert res.status == STATUS_BOUNDS and res.warnings == (WARN_ELEMENT_CAP,)
    # the ledger alone decides, as for any refused block
    case = known_cases(spec.mu_subspace(), spec.n)
    assert (res.lower, res.upper, res.minimal_basis) == (case.value, None, ())


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit before Python 3.10.7"
)
def test_a_refused_search_over_4300_digits_is_capped_under_the_default_limit():
    # 200 rank-1 factors: the search would range over the bases of a dual of
    # dimension 200, a count of 11,666 digits; the refusal writes a count over
    # 2^4096 as a power of two, so the default limit lets the capped path run.
    # Up to 4096 bits the count is written in decimal, as before
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(4300)
        res = compute_ed(GroupSpecB((1,) * 200))
        edge = compute_ed(GroupSpecB((1,) * 66))
    finally:
        sys.set_int_max_str_digits(limit)
    assert count_bases(200).bit_length() == 38753
    assert res.status == STATUS_BOUNDS and res.warnings == (WARN_BASIS_CAP,)
    assert res.trace[-1] == TraceEntry(
        "upper-bound-search", "at least 2^38752 bases exceed the cap of 16777216; search skipped"
    )
    assert count_bases(66).bit_length() <= 4096 < count_bases(67).bit_length()
    assert edge.trace[-1].citation == (
        f"{count_bases(66)} bases exceed the cap of 16777216; search skipped"
    )
    with pytest.raises(EnumerationTooLargeError) as caught:
        check_basis_count(67, 1)
    assert str(caught.value) == "at least 2^4173 bases exceed the cap of 1"


def test_compute_ed_bounds_are_ordered():
    for seed in range(40):
        spec = random_group_spec(Random(100 + seed), max_m=6, max_rank=6, max_dual_dim=3)
        try:
            res = compute_ed(spec)
        except (NotReducedError, EmptySpecError):
            continue
        if res.upper is not None:
            assert res.lower <= res.upper
        if res.status == STATUS_EXACT:
            assert res.lower == res.upper


def test_random_group_spec_determinism_and_ranges():
    rng_a, rng_b = Random(42), Random(42)
    specs_a = [random_group_spec(rng_a) for _ in range(5)]
    specs_b = [random_group_spec(rng_b) for _ in range(5)]
    assert specs_a == specs_b
    rng = Random(7)
    for _ in range(50):
        spec = random_group_spec(rng)
        assert 1 <= spec.m <= 8
        assert all(1 <= r <= 9 for r in spec.n)
        assert spec.dual_subspace().dim <= 4


def test_spec_documents_round_trip():
    doc = spec_to_doc(MIXED)
    assert doc["type"] == "B" and doc["n"] == [1, 2, 3, 7]
    again = spec_from_doc(doc)
    assert again.n == MIXED.n
    assert again.mu_subspace() == MIXED.mu_subspace()


def test_spec_from_doc_dual_rows():
    doc = {"type": "B", "n": [1, 2, 3, 7], "r_generators": [[1, 1, 1, 0], [0, 0, 0, 1]]}
    spec = spec_from_doc(doc)
    assert spec.dual_subspace() == rref(
        [BitVec.from_coords([1, 1, 1, 0]), BitVec.from_coords([0, 0, 0, 1])]
    )
    assert spec.mu_subspace() == MIXED.mu_subspace()


def test_spec_from_doc_rejects_malformed():
    good = {"type": "B", "n": [1, 2]}
    assert spec_from_doc(good).mu_gens == ()
    for bad in [
        [],
        {"type": "A", "n": [1]},
        {"n": [1]},
        {"type": "B", "n": "nope"},
        {"type": "B", "n": [1, True]},
        {"type": "B", "n": [1, 2], "mu_generators": [[1]]},
        {"type": "B", "n": [1, 2], "mu_generators": [[1, 2]]},
        {"type": "B", "n": [1, 2], "mu_generators": [[1, 0]], "r_generators": [[1, 1]]},
        {"type": "B", "n": [1, 2], "extra": 1},
    ]:
        with pytest.raises(SpecFormatError):
            spec_from_doc(bad)
    with pytest.raises(ValueError):
        spec_from_doc({"type": "B", "n": [0, 2]})


def test_diagonal_and_maximal_mu():
    assert [v.coords() for v in diagonal_mu(3).basis] == [(1, 1, 1)]
    assert maximal_mu(3).dim == 2
    assert BitVec.from_coords([1, 1, 0]) in maximal_mu(3)
    assert BitVec.from_coords([1, 0, 0]) not in maximal_mu(3)
