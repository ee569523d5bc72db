"""Sign-group arithmetic, packed closures and quotient ranks, and certificate verification."""

from __future__ import annotations

import copy
import json
from functools import cache
from itertools import combinations
from random import Random

import pytest

from edcalc import (
    CertReport,
    Certificate,
    CliffordTuple,
    CliffordUnit,
    DimensionMismatchError,
    EnumerationTooLargeError,
    GroupSpecB,
    NotReducedError,
    SpecFormatError,
    builtin_certificate,
    certificate_from_doc,
    certificate_to_doc,
    compute_ed,
    verify_certificate,
)
from edcalc.caps import DEFAULT_ENUM_CAP
from edcalc.extraspecial import (
    _closure_packed,
    _order_bound_log2,
    _Packing,
    _quotient_rank_packed,
    _separated,
    diagonal_certificate,
    pair_certificate,
    small_quadruple_certificate,
    small_triple_certificate,
)
from edcalc.gf2 import rref_bits
from clifford_reference import (
    commutator_sign_vector,
    indices,
    reference_centralizer_finite,
    reference_pair_failure,
    sign_vector,
    tuple_product,
    unit_product,
    unit_text,
    vector_image,
)
from closure_reference import reference_closure
from helpers import (
    all_units,
    bench_workloads,
    even_masks,
    mu_rows,
    packed_closure,
    packed_product,
    packed_unit_product,
    random_certificate,
    random_tuple,
    unpack,
    word_inverse,
    word_product,
)
from quotient_reference import reference_quotient_rank
from records_reference import in_span


def cu(dim, *indices, sign=1):
    return CliffordUnit.from_indices(dim, indices, sign)


def products(a, b):
    """The product by the object oracle and by the packed law; the tests check both."""
    return unit_product(a, b), packed_unit_product(a, b)


def test_unit_construction():
    u = cu(5, 1, 3)
    assert indices(u) == (1, 3)
    assert vector_image(u) == frozenset({1, 3})
    assert unit_text(u) == "c(1,3)"
    assert unit_text(cu(5, 1, 3, sign=-1)) == "-c(1,3)"
    assert unit_text(CliffordUnit(3, 0, -1)) == "-1"


def test_unit_validation():
    with pytest.raises(ValueError):
        cu(3, 1)  # odd cardinality
    with pytest.raises(ValueError):
        cu(3, 1, 1)  # repeated index
    with pytest.raises(ValueError):
        cu(3, 1, 4)  # out of range
    with pytest.raises(ValueError):
        CliffordUnit(3, 0b011, 2)  # bad sign


def test_defining_relations():
    c12, c13 = cu(3, 1, 2), cu(3, 1, 3)
    for mul in (unit_product, packed_unit_product):
        assert mul(c12, c12) == CliffordUnit(3, 0, -1)
        assert mul(c12, c13) == cu(3, 2, 3)
        assert mul(c13, c12) == cu(3, 2, 3, sign=-1)
        assert mul(cu(5, 1, 2), cu(5, 3, 4)) == mul(cu(5, 3, 4), cu(5, 1, 2)) == cu(5, 1, 2, 3, 4)
    with pytest.raises(DimensionMismatchError):
        unit_product(cu(3, 1, 2), cu(5, 1, 2))


def test_multiply_matches_word_reduction_exhaustively():
    for dim in (2, 3, 4):
        units = all_units(dim)
        for a in units:
            for b in units:
                sign, word = word_product(indices(a), a.sign, indices(b), b.sign)
                for prod in products(a, b):
                    assert prod.sign == sign and indices(prod) == word


def test_square_law():
    for dim in range(2, 7):
        packing = _Packing((dim,))
        for mask in even_masks(dim):
            u = CliffordUnit(dim, mask)
            k = mask.bit_count()
            expected = -1 if (k * (k + 1) // 2) % 2 else 1
            assert products(u, u) == (CliffordUnit(dim, 0, expected),) * 2
            assert packing.sign_pattern(packing.square(mask)) == (expected < 0)


def test_commutation_law():
    for dim in range(2, 7):
        packing = _Packing((dim,))
        for ma in even_masks(dim):
            for mb in even_masks(dim):
                a, b = CliffordUnit(dim, ma), CliffordUnit(dim, mb)
                odd = (ma & mb).bit_count() % 2
                for ab, ba in zip(products(a, b), products(b, a)):
                    assert (ab == ba) == (not odd)
                assert packing.sign_pattern(packing.commutator(ma, mb)) == odd


def test_associativity_exhaustive():
    units = all_units(4)
    packing = _Packing((4,))
    packed = {u: packing.pack(CliffordTuple((u,))) for u in units}
    for a in units:
        for b in units:
            ab = unit_product(a, b)
            pab = packed_product(packing, packed[a], packed[b])
            for c in units:
                assert unit_product(ab, c) == unit_product(a, unit_product(b, c))
                assert packed_product(packing, pab, packed[c]) == packed_product(
                    packing, packed[a], packed_product(packing, packed[b], packed[c])
                )


def test_inverse():
    for dim in range(2, 7):
        for u in all_units(dim):
            identity = CliffordUnit(dim, 0)
            assert products(u, word_inverse(u)) == (identity, identity)
            assert products(word_inverse(u), u) == (identity, identity)


def test_tuple_arithmetic():
    t = CliffordTuple((cu(3, 1, 2), cu(5, 3, 4)))
    assert t.dims == (3, 5)
    assert any(c.mask for c in t.components)
    packing = _Packing(t.dims)
    pt = packing.pack(t)
    s = tuple_product(t, t)
    assert not any(c.mask for c in s.components)
    assert sign_vector(s).coords() == (1, 1)
    assert unpack(packing, packed_product(packing, pt, pt)) == s
    assert unpack(packing, packing.square(pt >> packing.width)) == s
    t_inv = CliffordTuple(tuple(word_inverse(c) for c in t.components))
    identity = CliffordTuple((CliffordUnit(3, 0), CliffordUnit(5, 0)))
    assert packing.pack(identity) == 0
    assert tuple_product(t, t_inv) == tuple_product(t_inv, t) == identity
    pt_inv = packing.pack(t_inv)
    assert packed_product(packing, pt, pt_inv) == packed_product(packing, pt_inv, pt) == 0
    with pytest.raises(DimensionMismatchError):
        tuple_product(t, CliffordTuple((cu(3, 1, 2), cu(7, 3, 4))))
    with pytest.raises(ValueError):
        CliffordTuple(())


def assert_closure_matches_reference(generators, cap=DEFAULT_ENUM_CAP):
    """The packed closure against the object oracle's, packed; returns the oracle's."""
    packing, group = packed_closure(generators, cap)
    expected = reference_closure(generators, cap)
    assert group == {packing.pack(x) for x in expected}
    return expected


def test_closure_small_examples():
    one = CliffordTuple((cu(3, 1, 2),))
    assert len(assert_closure_matches_reference([one])) == 4  # 1, c(1,2), -1, -c(1,2)
    neg = CliffordTuple((CliffordUnit(3, 0), CliffordUnit(3, 0, -1)))
    assert len(assert_closure_matches_reference([neg])) == 2
    adjacent = [CliffordTuple((cu(3, 1, 2),)), CliffordTuple((cu(3, 2, 3),))]
    assert len(assert_closure_matches_reference(adjacent)) == 8


def test_closure_of_all_units_is_whole_group():
    for dim in range(2, 7):
        gens = [CliffordTuple((u,)) for u in all_units(dim)]
        assert len(packed_closure(gens)[1]) == 1 << dim


def test_closure_cap():
    adjacent = [CliffordTuple((cu(4, 1, 2),)), CliffordTuple((cu(4, 2, 3),)),
                CliffordTuple((cu(4, 3, 4),))]
    with pytest.raises(EnumerationTooLargeError):
        packed_closure(adjacent, cap=7)
    # the cap counts elements, the identity included: |H| fits, |H| - 1 does not
    order = len(assert_closure_matches_reference(adjacent))
    assert order == 16
    assert_closure_matches_reference(adjacent, cap=order)
    message = f"closure exceeds the cap of {order - 1} elements"
    with pytest.raises(EnumerationTooLargeError, match=message):
        packed_closure(adjacent, cap=order - 1)
    with pytest.raises(EnumerationTooLargeError, match=message):
        reference_closure(adjacent, order - 1)


def tuple_inverse(t):
    return CliffordTuple(tuple(word_inverse(c) for c in t.components))


@pytest.mark.parametrize("dims", [(3, 41, 9, 17), (45, 7, 61, 23), (5, 3), (129,)])
def test_packed_sign_laws_match_tuple_arithmetic(dims):
    # uneven dims, total widths 70, 136, 8 and 129 bits: the suffix-parity
    # shifts must reach across the whole word, past 64 and 128 bits
    rng = Random(sum(dims))
    packing = _Packing(dims)
    width = packing.width
    assert width == sum(dims)
    for _ in range(200):
        a, b = random_tuple(rng, dims), random_tuple(rng, dims)
        pa, pb = packing.pack(a), packing.pack(b)
        assert unpack(packing, pa) == a
        ma, mb = pa >> width, pb >> width
        assert packing.pack(tuple_product(a, b)) == packed_product(packing, pa, pb)
        assert packing.pack(tuple_product(a, a)) == packing.square(ma)
        commutator = tuple_product(tuple_product(a, b), tuple_inverse(a))
        commutator = tuple_product(commutator, tuple_inverse(b))
        assert packing.pack(commutator) == packing.commutator(ma, mb)
        assert packing.sign_pattern(packing.commutator(ma, mb)) == commutator_sign_vector(a, b).bits


def packed_quotient_rank(packing, elements, mu):
    """`_quotient_rank_packed` on packed elements, with mu's rows as verify_certificate makes
    them; the elements themselves are the generators whose masks it squares."""
    rows = rref_bits(packing.sign_code(r) for r in mu)
    return _quotient_rank_packed(elements, packing, rows, [x >> packing.width for x in elements])


def test_quotient_rank_cyclic():
    packing, group = packed_closure([CliffordTuple((cu(3, 1, 2),))])
    order, rank = packed_quotient_rank(packing, group, [])
    assert (order, rank) == (4, 1)  # cyclic of order 4
    order, rank = packed_quotient_rank(packing, group, [0b1])
    assert (order, rank) == (2, 1)


def test_quotient_rank_diagonal_example():
    cert = diagonal_certificate(1, 2)
    packing, group = packed_closure(cert.generators)
    assert len(group) == 16
    order, rank = packed_quotient_rank(packing, group, mu_rows(cert.spec))
    assert (order, rank) == (8, 3)


def test_quotient_rank_rejects_non_abelian():
    # the verifier refuses the pair before it computes a quotient rank
    gens = (CliffordTuple((cu(3, 1, 2),)), CliffordTuple((cu(3, 1, 3),)))
    assert len(packed_closure(gens)[1]) == 8
    cert = Certificate(GroupSpecB((1,), ()), gens)
    report = verify_certificate(cert)
    assert not report.abelian_in_quotient
    assert (report.subgroup_order, report.rank, report.lower_bound) == (0, 0, None)
    assert report.failure_reason == reference_pair_failure(cert)


def test_quotient_rank_rejects_a_set_that_is_not_a_subgroup():
    packing, cyclic = packed_closure([CliffordTuple((cu(3, 1, 2),))])
    trivial = []
    c12 = packing.pack(CliffordTuple((cu(3, 1, 2),)))
    with pytest.raises(ValueError):
        packed_quotient_rank(packing, {c12}, trivial)  # no identity
    minus_c12 = packing.pack(CliffordTuple((cu(3, 1, 2, sign=-1),)))
    with pytest.raises(ValueError):
        packed_quotient_rank(packing, cyclic - {minus_c12}, trivial)


def assert_quotient_rank_matches_reference(group, mu):
    """The packed quotient rank against the oracle's, on the oracle's closure; returns it."""
    packing = _Packing(next(iter(group)).dims)
    expected = reference_quotient_rank(group, mu)
    assert packed_quotient_rank(packing, {packing.pack(x) for x in group}, mu) == expected
    return expected


def benchmark_certificates():
    """Every built-in key of the certify workload, and the document derived from
    each: equivalent ones, non-abelian ones, and ones with a rank raised."""
    workloads = bench_workloads()
    certs = [builtin_certificate(key) for key in workloads.CERT_KEYS]
    pool = workloads.build_pool("certify", 0, workloads.load_refs())
    docs = [certificate_from_doc(json.loads(op["text"])) for op in pool if op["op"] == "certdoc"]
    assert len(certs) == len(docs) == 21
    return certs + docs


@cache
def benchmark_oracle_closures():
    """Each benchmark certificate with the oracle's closure of its generators,
    computed once for the two benchmark comparisons below."""
    return [(cert, reference_closure(cert.generators, DEFAULT_ENUM_CAP))
            for cert in benchmark_certificates()]


def test_closure_matches_reference_on_the_benchmark_certificates():
    for cert, expected in benchmark_oracle_closures():
        packing, group = packed_closure(cert.generators)
        assert group == {packing.pack(x) for x in expected}


def test_quotient_rank_matches_reference_on_the_benchmark_certificates():
    non_abelian = 0
    for cert, group in benchmark_oracle_closures():
        report = verify_certificate(cert)
        failure = reference_pair_failure(cert)
        if failure is not None:
            non_abelian += 1
            assert not report.abelian_in_quotient and report.failure_reason == failure
        else:
            expected = assert_quotient_rank_matches_reference(group, mu_rows(cert.spec))
            assert (report.subgroup_order, report.rank) == expected
    assert non_abelian == 5


def test_closure_matches_reference_on_random_certificates():
    # no commutation filter, so half or more are non-abelian; the dims are uneven,
    # and some products are wider than 64 or 128 bits.  A closure has at most
    # 2^(generators + factors) elements, whatever the dims.
    rng = Random(4242)
    sizes, widths, non_abelian = set(), set(), 0
    for _ in range(120):
        m = rng.randint(1, 4)
        dims = [2 * rng.randint(1, 24) + 1 for _ in range(m)]
        gens = [random_tuple(rng, dims) for _ in range(rng.randint(1, 5))]
        group = assert_closure_matches_reference(gens)
        sizes.add(len(group))
        widths.add(sum(dims))
        non_abelian += any(tuple_product(a, b) != tuple_product(b, a) for a in gens for b in gens)
    assert max(sizes) >= 256 and max(widths) > 128 and non_abelian >= 60


def test_quotient_rank_matches_reference_on_random_abelian_certificates():
    # generators are drawn at random and kept while they commute modulo mu with
    # those kept so far, so the image is abelian; mu need not be reduced
    rng = Random(8086)
    for _ in range(150):
        m = rng.randint(1, 3)
        dims = [2 * rng.randint(1, 3) + 1 for _ in range(m)]
        mu = rref_bits(rng.getrandbits(m) for _ in range(rng.randint(0, m)))
        gens: list[CliffordTuple] = []
        for _ in range(rng.randint(1, 6)):
            g = random_tuple(rng, dims)
            if all(in_span(commutator_sign_vector(g, h), mu) for h in gens):
                gens.append(g)
        assert_quotient_rank_matches_reference(reference_closure(gens, DEFAULT_ENUM_CAP), mu)


def test_certificates_over_more_than_64_factors_match_the_oracles():
    # 70 factors of Spin(3), so mu's patterns are 70 bits wide.  Under the diagonal
    # mu: c(1,2) and c(2,3) in every factor, which commute modulo the diagonal,
    # with lone sign flips.  Under the maximal mu: up to three random generators,
    # abelian modulo mu or not
    rng = Random(70)
    m, dims = 70, (3,) * 70
    diagonal = GroupSpecB.from_mu_rows((1,) * m, [[1] * m])
    certs = []
    for flips in (0, 1, 3):
        gens = [CliffordTuple((cu(3, 1, 2),) * m), CliffordTuple((cu(3, 2, 3),) * m)]
        for f in rng.sample(range(m), flips):
            signs = (CliffordUnit(3, 0, -1 if i == f else 1) for i in range(m))
            gens.append(CliffordTuple(tuple(signs)))
        certs.append(Certificate(diagonal, gens))
    maximal = GroupSpecB.from_dual_rows((1,) * m, [[1] * m])
    for _ in range(12):
        gens = [random_tuple(rng, dims) for _ in range(rng.randint(1, 3))]
        certs.append(Certificate(maximal, gens))
    abelian = 0
    for cert in certs:
        report = verify_certificate(cert)
        failure = reference_pair_failure(cert)
        assert report.abelian_in_quotient == (failure is None)
        assert report.centralizer_finite == reference_centralizer_finite(cert.generators, dims)
        if failure is not None:
            assert report.failure_reason == failure
            continue
        abelian += 1
        group = reference_closure(cert.generators, DEFAULT_ENUM_CAP)
        expected = reference_quotient_rank(group, mu_rows(cert.spec))
        assert (report.subgroup_order, report.rank) == expected
        if cert.spec is diagonal:  # c(1,2) and c(2,3) separate the three coordinates
            assert report.lower_bound == report.rank
    assert abelian >= 6 and len(certs) - abelian >= 3


def mask_centralizer_finite(tuples, dims):
    """The centralizer test of verify_certificate: `_separated` on the packed index masks,
    one block of coordinate bits per factor."""
    packing = _Packing(dims)
    masks = [packing.pack(t) >> packing.width for t in tuples]
    return _separated(masks, [(1 << d) - 1 << o for d, o in zip(packing.dims, packing.offsets)])


def test_centralizer_finite():
    t12 = CliffordTuple((cu(3, 1, 2),))
    t13 = CliffordTuple((cu(3, 1, 3),))
    # second factor untouched: infinite centralizer there
    pair = CliffordTuple((cu(3, 1, 2), CliffordUnit(5, 0)))
    cases = [
        ([], (3,), False),
        ([], (2,), False),
        ([], (1,), True),
        ([t12], (3,), False),
        ([t12, t13], (3,), True),
        ([pair], (3, 5), False),
    ]
    for tuples, dims, finite in cases:
        assert mask_centralizer_finite(tuples, dims) == finite
        assert reference_centralizer_finite(tuples, dims) == finite


def assert_packed_checks_match_oracles(cert):
    """Compare every packed check of one certificate with the object oracles.

    The pair verdict and failure text of verify_certificate, the commutator of
    each generator pair, and the mask centralizer; and the order bound that
    refuses large closures never exceeds the closure's order.  Returns whether
    the certificate is non-abelian modulo mu.
    """
    gens, dims = cert.generators, cert.generators[0].dims
    packing = _Packing(dims)
    packed = [packing.pack(g) for g in gens]
    masks = [x >> packing.width for x in packed]
    commutators = []
    for (a, ma), (b, mb) in combinations(zip(gens, masks), 2):
        commutators.append(packing.commutator(ma, mb))
        assert packing.sign_pattern(commutators[-1]) == commutator_sign_vector(a, b).bits

    failure = reference_pair_failure(cert)
    finite = reference_centralizer_finite(gens, dims)
    assert mask_centralizer_finite(gens, dims) == finite
    report = verify_certificate(cert)
    assert report.abelian_in_quotient == (failure is None)
    assert report.centralizer_finite == finite
    if failure is not None:
        assert report.failure_reason == failure

    bound = 1 << _order_bound_log2(packed, packing, commutators)
    order = len(_closure_packed(packed, packing, DEFAULT_ENUM_CAP, commutators))
    assert bound <= order
    # with independent nonzero masks, every scalar of the subgroup is a product of
    # squares, commutators and generators with empty masks: the bound is exact
    nonzero = [a for a in masks if a]
    if len(rref_bits(nonzero)) == len(nonzero):
        assert bound == order
    return failure is not None


def test_packed_checks_match_object_oracles_on_the_benchmark_certificates():
    certs = benchmark_certificates()
    assert len(certs) == 42
    assert sum(map(assert_packed_checks_match_oracles, certs)) == 5


def test_packed_checks_match_object_oracles_on_random_certificates():
    # uneven ranks, words wider than 64 and 128 bits, and non-abelian ones
    rng = Random(1111)
    widths, non_abelian = set(), 0
    for k in range(180):
        cert = random_certificate(rng, filtered=k % 3 == 0)
        widths.add(sum(cert.generators[0].dims))
        non_abelian += assert_packed_checks_match_oracles(cert)
    assert non_abelian >= 60 and max(widths) > 128 and any(64 < w <= 128 for w in widths)


def test_certificate_shape_validation():
    spec = GroupSpecB.from_mu_rows((1, 1), [[1, 1]])
    with pytest.raises(ValueError):
        Certificate(spec, ())
    with pytest.raises(DimensionMismatchError):
        Certificate(spec, (CliffordTuple((cu(3, 1, 2), cu(5, 1, 2))),))


BUILTIN_EXPECTED = [
    ("pair:1:2", 4),
    ("pair:1:3", 4),
    ("pair:1:4", 5),
    ("pair:1:5", 7),
    ("pair:2:3", 5),
    ("small3:1", 3),
    ("small3:2", 4),
    ("small3:3", 5),
    ("small4", 5),
]


@pytest.mark.parametrize("key,expected", BUILTIN_EXPECTED)
def test_builtin_certificates_verify(key, expected):
    report = verify_certificate(builtin_certificate(key))
    assert report.abelian_in_quotient
    assert report.centralizer_finite
    assert report.lower_bound == report.rank == expected


def search_pair_23_extra(spec, base):
    """First element (x, c(5,7)), x of even support, that raises the (2, 3) pair to rank 5.

    Candidates go in order of support size, then mask; one must commute with
    every base generator modulo mu before its certificate is verified.
    """
    y = CliffordUnit.from_indices(7, (5, 7))
    masks = sorted(
        (mask for mask in range(1, 1 << 5) if mask.bit_count() % 2 == 0),
        key=lambda mask: (mask.bit_count(), mask),
    )
    for mask in masks:
        candidate = CliffordTuple((CliffordUnit(5, mask), y))
        if not all(in_span(commutator_sign_vector(candidate, g), mu_rows(spec)) for g in base):
            continue
        if verify_certificate(Certificate(spec, base + (candidate,))).lower_bound == 5:
            return candidate
    return None


def test_pair_23_extra_generator_is_first_search_hit():
    cert = pair_certificate(2, 3)
    base, extra = cert.generators[:-1], cert.generators[-1]
    assert verify_certificate(Certificate(cert.spec, base)).rank == 4
    found = search_pair_23_extra(cert.spec, base)
    assert found == extra
    assert tuple(map(unit_text, found.components)) == ("c(4,5)", "c(5,7)")


def test_pair_23_reports_search_note():
    cert = pair_certificate(2, 3)
    assert "c(4,5)" in cert.note
    report = verify_certificate(cert)
    assert report.lower_bound == 5
    assert any("search" in n for n in report.notes)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_diagonal_certificates_verify(n, m):
    report = verify_certificate(diagonal_certificate(n, m))
    assert report.lower_bound == m + 2 * n - 1
    assert report.subgroup_order == 1 << (m + 2 * n - 1)


def test_builtin_certificate_keys():
    assert builtin_certificate("small4").spec.n == (1, 1, 1, 1)
    # each domain is its ledger family's (a table for pair and small3 keys, the
    # formula's m >= 2 for diagonal keys); the spec adds rank >= 1
    off_domain = ["pair:1:6", "pair:2:2", "pair:0:1", "small3:4", "small3:0"]
    off_domain += ["diagonal:1:1", "diagonal:0:2"]
    for bad in off_domain + ["nope", "pair:1", "pair:a:b"]:
        with pytest.raises(ValueError):
            builtin_certificate(bad)


@pytest.mark.parametrize(
    "key",
    ["pair:01:2", "diagonal: 1:2", "diagonal:\u0661:2", "diagonal:1_0:2", "small3:+1", "pair:1:"],
)
def test_builtin_certificate_keys_take_only_canonical_numbers(key):
    # int() reads each of these numbers, '1_0' as 10, whose certificate takes seconds
    with pytest.raises(ValueError, match="^bad built-in certificate key"):
        builtin_certificate(key)


def test_verify_rejects_non_abelian_certificate():
    spec = GroupSpecB.from_mu_rows((1, 1), [[1, 1]])
    gens = (
        CliffordTuple((cu(3, 1, 2), CliffordUnit(3, 0))),
        CliffordTuple((cu(3, 1, 3), CliffordUnit(3, 0))),
    )
    report = verify_certificate(Certificate(spec, gens))
    assert not report.abelian_in_quotient
    assert report.lower_bound is None
    assert "NonAbelianQuotient" in report.failure_reason


def loose_certificate():
    spec = GroupSpecB.from_mu_rows((2, 2), [[1, 1]])
    gens = (
        CliffordTuple((cu(5, 1, 2), cu(5, 1, 2))),
        CliffordTuple((CliffordUnit(5, 0, -1), CliffordUnit(5, 0))),
    )
    return Certificate(spec, gens, "a loose note")


def test_verify_rejects_loose_centralizer():
    report = verify_certificate(loose_certificate())
    assert report.abelian_in_quotient
    assert not report.centralizer_finite
    assert report.lower_bound is None
    assert "centralizer" in report.failure_reason


NOT_SEPARATED = (
    "centralizer not certified finite: some coordinates are not separated by the vector images"
)


def noted_non_abelian_certificate():
    # generators 1 and 2 anticommute in the first factor only, and the images
    # separate every coordinate of both factors
    spec = GroupSpecB.from_mu_rows((1, 1), [[1, 1]])
    one = CliffordUnit(3, 0)
    gens = (
        CliffordTuple((cu(3, 1, 2), cu(3, 1, 2))),
        CliffordTuple((cu(3, 1, 3), one)),
        CliffordTuple((one, cu(3, 1, 3))),
    )
    return Certificate(spec, gens, "a note")


@pytest.mark.parametrize(
    "make,expected",
    [
        (
            noted_non_abelian_certificate,
            CertReport(
                False,
                0,
                0,
                True,
                None,
                "NonAbelianQuotient: generators 1 and 2 have commutator sign pattern (1,0),"
                " outside mu",
                ("a note",),
            ),
        ),
        (lambda: diagonal_certificate(2, 3), CertReport(True, 64, 6, True, 6)),
        (loose_certificate, CertReport(True, 4, 2, False, None, NOT_SEPARATED, ("a loose note",))),
    ],
    ids=["non-abelian", "valid", "loose-centralizer"],
)
def test_verify_reports_each_verdict_whole(make, expected):
    assert verify_certificate(make()) == expected


def test_verify_propagates_spec_validation():
    spec = GroupSpecB.from_mu_rows((1, 1), [[1, 0]])
    cert = Certificate(spec, (CliffordTuple((cu(3, 1, 2), cu(3, 1, 2))),))
    with pytest.raises(NotReducedError):
        verify_certificate(cert)


def test_verify_closure_cap():
    cert = diagonal_certificate(2, 3)
    with pytest.raises(EnumerationTooLargeError):
        verify_certificate(cert, enum_cap=16)
    order = len(packed_closure(cert.generators)[1])
    assert verify_certificate(cert, enum_cap=order).lower_bound == 6
    with pytest.raises(EnumerationTooLargeError, match=f"the cap of {order - 1} elements"):
        verify_certificate(cert, enum_cap=order - 1)


def test_verify_refuses_a_provably_large_closure_before_the_search():
    # 401 generators on 802-bit words: the search would multiply up to the cap's
    # number of elements by every generator; the order bound is 2^402
    cert = diagonal_certificate(200, 2)
    message = f"closure exceeds the cap of {DEFAULT_ENUM_CAP} elements"
    with pytest.raises(EnumerationTooLargeError, match=message):
        verify_certificate(cert)
    # the pair check still runs first, so a non-abelian verdict is unchanged
    extra = CliffordTuple((cu(401, 1, 3), CliffordUnit(401, 0)))
    report = verify_certificate(Certificate(cert.spec, cert.generators + (extra,)))
    assert not report.abelian_in_quotient
    assert report.failure_reason == reference_pair_failure(
        Certificate(cert.spec, cert.generators + (extra,))
    )


def test_certificate_doc_round_trip():
    cert = pair_certificate(1, 3)
    doc = certificate_to_doc(cert)
    again = certificate_from_doc(doc)
    assert again == cert
    report = verify_certificate(again)
    assert report.lower_bound == 4


def test_certificate_from_doc_rejects_malformed():
    good = certificate_to_doc(pair_certificate(1, 2))
    for mutate in [
        lambda d: d.pop("spec"),
        lambda d: d.pop("generators"),
        lambda d: d.__setitem__("generators", []),
        lambda d: d.__setitem__("generators", [[{"sign": 1, "indices": [1, 3]}]]),
        lambda d: d["generators"][0].__setitem__(0, {"sign": 2, "indices": [1, 3]}),
        lambda d: d["generators"][0].__setitem__(0, {"sign": 1, "indices": [1]}),
        lambda d: d["generators"][0].__setitem__(0, {"sign": 1, "indices": [1, 99]}),
        lambda d: d["generators"][0].__setitem__(0, {"sign": 1, "indices": [1, 1]}),
        lambda d: d.__setitem__("note", 3),
        lambda d: d.__setitem__("extra", 1),
    ]:
        doc = copy.deepcopy(good)
        mutate(doc)
        with pytest.raises(SpecFormatError):
            certificate_from_doc(doc)


def test_certificate_rank_consistent_with_exact_values():
    # where the calculator proves exactness, certificate ranks stay at or below it
    for m in (2, 3, 4):
        exact = compute_ed(GroupSpecB.from_mu_rows((1,) * m, [[1] * m])).value
        assert verify_certificate(diagonal_certificate(1, m)).lower_bound == exact
    exact = compute_ed(GroupSpecB.from_mu_rows((1, 2), [[1, 1]])).value
    assert verify_certificate(pair_certificate(1, 2)).lower_bound == exact
    exact = compute_ed(GroupSpecB.from_mu_rows((3, 3, 3), [[1, 1, 1]])).value
    assert verify_certificate(diagonal_certificate(3, 3)).lower_bound <= exact


def test_sampled_relations_large_dims():
    rng = Random(2024)
    for dim in (6, 7, 8, 9):
        masks = even_masks(dim)
        for _ in range(300):
            ma, mb = rng.choice(masks), rng.choice(masks)
            sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
            a, b = CliffordUnit(dim, ma, sa), CliffordUnit(dim, mb, sb)
            sign, word = word_product(indices(a), a.sign, indices(b), b.sign)
            assert products(a, b) == (CliffordUnit.from_indices(dim, word, sign),) * 2
        for _ in range(100):
            a, b, c = (
                CliffordUnit(dim, rng.choice(masks), rng.choice((1, -1))) for _ in range(3)
            )
            for mul in (unit_product, packed_unit_product):
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
