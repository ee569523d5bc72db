"""Sign-group arithmetic, closures, quotient ranks, and certificate verification."""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path
from random import Random

import pytest

from edcalc import (
    BitVec,
    Certificate,
    CliffordTuple,
    CliffordUnit,
    DimensionMismatchError,
    EnumerationTooLargeError,
    GroupSpecB,
    NonAbelianQuotientError,
    NotReducedError,
    SpecFormatError,
    builtin_certificate,
    centralizer_finite,
    certificate_from_doc,
    certificate_to_doc,
    closure,
    compute_ed,
    diagonal_mu,
    quotient_rank,
    rref,
    verify_certificate,
)
from edcalc.extraspecial import (
    DEFAULT_CLOSURE_CAP,
    _commutator_sign_vector,
    _Packing,
    diagonal_certificate,
    pair_certificate,
    small_quadruple_certificate,
    small_triple_certificate,
)
from closure_reference import reference_closure
from helpers import all_units, even_masks, word_inverse, word_product
from quotient_reference import reference_quotient_rank


def cu(dim, *indices, sign=1):
    return CliffordUnit.from_indices(dim, indices, sign)


def test_unit_construction():
    u = cu(5, 1, 3)
    assert u.indices == (1, 3)
    assert u.vector_image() == frozenset({1, 3})
    assert str(u) == "c(1,3)"
    assert str(cu(5, 1, 3, sign=-1)) == "-c(1,3)"
    assert str(CliffordUnit.scalar(3, -1)) == "-1"
    assert CliffordUnit.identity(3).is_scalar()


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
    assert c12 * c12 == CliffordUnit.scalar(3, -1)
    assert c12 * c13 == cu(3, 2, 3)
    assert c13 * c12 == cu(3, 2, 3, sign=-1)
    assert cu(5, 1, 2) * cu(5, 3, 4) == cu(5, 3, 4) * cu(5, 1, 2) == cu(5, 1, 2, 3, 4)
    with pytest.raises(DimensionMismatchError):
        cu(3, 1, 2) * cu(5, 1, 2)


def test_multiply_matches_word_reduction_exhaustively():
    for dim in (2, 3, 4):
        units = all_units(dim)
        for a in units:
            for b in units:
                sign, word = word_product(a.indices, a.sign, b.indices, b.sign)
                prod = a * b
                assert prod.sign == sign and prod.indices == word


def test_square_law():
    for dim in range(2, 7):
        for mask in even_masks(dim):
            u = CliffordUnit(dim, mask)
            k = mask.bit_count()
            expected = -1 if (k * (k + 1) // 2) % 2 else 1
            assert u * u == CliffordUnit.scalar(dim, expected)


def test_commutation_law():
    for dim in range(2, 7):
        for ma in even_masks(dim):
            for mb in even_masks(dim):
                a, b = CliffordUnit(dim, ma), CliffordUnit(dim, mb)
                assert (a * b == b * a) == ((ma & mb).bit_count() % 2 == 0)


def test_associativity_exhaustive():
    units = all_units(4)
    for a in units:
        for b in units:
            for c in units:
                assert (a * b) * c == a * (b * c)


def test_inverse():
    for dim in range(2, 7):
        for u in all_units(dim):
            assert u * word_inverse(u) == CliffordUnit.identity(dim)
            assert word_inverse(u) * u == CliffordUnit.identity(dim)


def test_tuple_arithmetic():
    t = CliffordTuple((cu(3, 1, 2), cu(5, 3, 4)))
    assert t.dims == (3, 5)
    assert not t.is_scalar()
    s = t * t
    assert s.is_scalar()
    assert s.sign_vector().coords() == (1, 1)
    t_inv = CliffordTuple(tuple(word_inverse(c) for c in t.components))
    assert t * t_inv == t_inv * t == CliffordTuple.identity_like((3, 5))
    with pytest.raises(DimensionMismatchError):
        t * CliffordTuple((cu(3, 1, 2), cu(7, 3, 4)))
    with pytest.raises(ValueError):
        CliffordTuple(())


def test_closure_small_examples():
    one = CliffordTuple((cu(3, 1, 2),))
    group = closure([one])
    assert len(group) == 4  # 1, c(1,2), -1, -c(1,2)
    neg = CliffordTuple((CliffordUnit.identity(3), CliffordUnit.scalar(3, -1)))
    assert len(closure([neg])) == 2
    adjacent = [CliffordTuple((cu(3, 1, 2),)), CliffordTuple((cu(3, 2, 3),))]
    assert len(closure(adjacent)) == 8


def test_closure_of_all_units_is_whole_group():
    for dim in range(2, 7):
        gens = [CliffordTuple((u,)) for u in all_units(dim)]
        assert len(closure(gens)) == 1 << dim


def test_closure_cap():
    adjacent = [CliffordTuple((cu(4, 1, 2),)), CliffordTuple((cu(4, 2, 3),)),
                CliffordTuple((cu(4, 3, 4),))]
    with pytest.raises(EnumerationTooLargeError):
        closure(adjacent, cap=7)
    with pytest.raises(ValueError):
        closure([])
    # the cap counts elements, the identity included: |H| fits, |H| - 1 does not
    order = len(reference_closure(adjacent, DEFAULT_CLOSURE_CAP))
    assert order == 16
    assert closure(adjacent, cap=order) == reference_closure(adjacent, order)
    message = f"closure exceeds the cap of {order - 1} elements"
    with pytest.raises(EnumerationTooLargeError, match=message):
        closure(adjacent, cap=order - 1)
    with pytest.raises(EnumerationTooLargeError, match=message):
        reference_closure(adjacent, order - 1)


def random_even_mask(rng, dim):
    mask = rng.getrandbits(dim)
    if mask.bit_count() % 2:
        mask ^= 1 << rng.randrange(dim)
    return mask


def random_tuple(rng, dims):
    return CliffordTuple(
        tuple(CliffordUnit(d, random_even_mask(rng, d), rng.choice((1, -1))) for d in dims)
    )


def tuple_inverse(t):
    return CliffordTuple(tuple(word_inverse(c) for c in t.components))


@pytest.mark.parametrize("dims", [(3, 41, 9, 17), (45, 7, 61, 23), (5, 3), (129,)])
def test_packed_sign_laws_match_tuple_arithmetic(dims):
    # uneven dims, total widths 70, 136, 8 and 129 bits: the suffix-parity
    # shifts must reach across the whole word, past 64 and 128 bits
    rng = Random(sum(dims))
    packing = _Packing(dims)
    width, off, parity = packing.width, packing.off, packing.suffix_parity
    assert width == sum(dims)
    for _ in range(200):
        a, b = random_tuple(rng, dims), random_tuple(rng, dims)
        pa, pb = packing.pack(a), packing.pack(b)
        assert packing.unpack(pa) == a
        ma, mb = pa >> width, pb >> width
        assert packing.pack(a * b) == pa ^ pb ^ (parity(mb & parity(ma)) & off)
        assert packing.pack(a * a) == parity(ma & parity(ma)) & off
        commutator = a * b * tuple_inverse(a) * tuple_inverse(b)
        assert packing.pack(commutator) == parity(ma & mb) & off


def test_quotient_rank_cyclic():
    group = closure([CliffordTuple((cu(3, 1, 2),))])
    order, rank = quotient_rank(group, rref([], m=1))
    assert (order, rank) == (4, 1)  # cyclic of order 4
    full_mu = rref([BitVec.from_coords([1])])
    order, rank = quotient_rank(group, full_mu)
    assert (order, rank) == (2, 1)


def test_quotient_rank_diagonal_example():
    cert = diagonal_certificate(1, 2)
    group = closure(cert.generators)
    assert len(group) == 16
    order, rank = quotient_rank(group, cert.spec.mu_subspace())
    assert (order, rank) == (8, 3)


def test_quotient_rank_rejects_non_abelian():
    group = closure([CliffordTuple((cu(3, 1, 2),)), CliffordTuple((cu(3, 1, 3),))])
    assert len(group) == 8
    with pytest.raises(NonAbelianQuotientError):
        quotient_rank(group, rref([], m=1))


def test_quotient_rank_rejects_a_set_that_is_not_a_subgroup():
    cyclic = closure([CliffordTuple((cu(3, 1, 2),))])
    trivial = rref([], m=1)
    with pytest.raises(ValueError):
        quotient_rank([CliffordTuple((cu(3, 1, 2),))], trivial)  # no identity
    with pytest.raises(ValueError):
        quotient_rank(cyclic - {CliffordTuple((cu(3, 1, 2, sign=-1),))}, trivial)


def bench_workloads():
    """The benchmark's input module, loaded from its file; it needs only the standard library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_quotient_rank_matches_reference(generators, mu):
    group = closure(generators)
    assert quotient_rank(group, mu) == reference_quotient_rank(group, mu)


def benchmark_certificates():
    """Every built-in key of the certify workload, and the document derived from
    each: equivalent ones, non-abelian ones, and ones with a rank raised."""
    workloads = bench_workloads()
    certs = [builtin_certificate(key) for key in workloads.CERT_KEYS]
    pool = workloads.build_pool("certify", 0, workloads.load_refs())
    docs = [certificate_from_doc(json.loads(op["text"])) for op in pool if op["op"] == "certdoc"]
    assert len(certs) == len(docs) == 21
    return certs + docs


def test_closure_matches_reference_on_the_benchmark_certificates():
    for cert in benchmark_certificates():
        group = closure(cert.generators)
        assert group == reference_closure(cert.generators, DEFAULT_CLOSURE_CAP)


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
        group = closure(gens)
        assert group == reference_closure(gens, DEFAULT_CLOSURE_CAP)
        sizes.add(len(group))
        widths.add(sum(dims))
        non_abelian += any(a * b != b * a for a in gens for b in gens)
    assert max(sizes) >= 256 and max(widths) > 128 and non_abelian >= 60


def test_quotient_rank_matches_reference_on_the_benchmark_certificates():
    non_abelian = 0
    for cert in benchmark_certificates():
        mu = cert.spec.mu_subspace()
        gens = cert.generators
        if any(_commutator_sign_vector(a, b) not in mu for a in gens for b in gens):
            non_abelian += 1
            with pytest.raises(NonAbelianQuotientError):
                quotient_rank(closure(cert.generators), mu)
        else:
            assert_quotient_rank_matches_reference(cert.generators, mu)
    assert non_abelian == 5


def test_quotient_rank_matches_reference_on_random_abelian_certificates():
    # generators are drawn at random and kept while they commute modulo mu with
    # those kept so far, so the image is abelian; mu need not be reduced
    rng = Random(8086)
    for _ in range(150):
        m = rng.randint(1, 3)
        dims = [2 * rng.randint(1, 3) + 1 for _ in range(m)]
        mu = rref([BitVec(m, rng.getrandbits(m)) for _ in range(rng.randint(0, m))], m)
        gens: list[CliffordTuple] = []
        for _ in range(rng.randint(1, 6)):
            g = CliffordTuple(
                tuple(CliffordUnit(d, rng.choice(even_masks(d)), rng.choice((1, -1))) for d in dims)
            )
            if all(_commutator_sign_vector(g, h) in mu for h in gens):
                gens.append(g)
        assert_quotient_rank_matches_reference(gens, mu)


def test_centralizer_finite():
    assert not centralizer_finite([], (3,))
    assert not centralizer_finite([], (2,))
    t12 = CliffordTuple((cu(3, 1, 2),))
    t13 = CliffordTuple((cu(3, 1, 3),))
    assert not centralizer_finite([t12], (3,))
    assert centralizer_finite([t12, t13], (3,))
    # second factor untouched: infinite centralizer there
    pair = CliffordTuple((cu(3, 1, 2), CliffordUnit.identity(5)))
    assert not centralizer_finite([pair], (3, 5))


def test_certificate_shape_validation():
    spec = GroupSpecB((1, 1), diagonal_mu(2).basis)
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
        if any(_commutator_sign_vector(candidate, g) not in spec.mu_subspace() for g in base):
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
    assert (str(found.components[0]), str(found.components[1])) == ("c(4,5)", "c(5,7)")


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
    for bad in ["pair:1:6", "pair:2:2", "small3:4", "diagonal:1:1", "nope", "pair:1", "pair:a:b"]:
        with pytest.raises(ValueError):
            builtin_certificate(bad)


def test_verify_rejects_non_abelian_certificate():
    spec = GroupSpecB((1, 1), diagonal_mu(2).basis)
    gens = (
        CliffordTuple((cu(3, 1, 2), CliffordUnit.identity(3))),
        CliffordTuple((cu(3, 1, 3), CliffordUnit.identity(3))),
    )
    report = verify_certificate(Certificate(spec, gens))
    assert not report.abelian_in_quotient
    assert report.lower_bound is None
    assert "NonAbelianQuotient" in report.failure_reason


def test_verify_rejects_loose_centralizer():
    spec = GroupSpecB((2, 2), diagonal_mu(2).basis)
    gens = (
        CliffordTuple((cu(5, 1, 2), cu(5, 1, 2))),
        CliffordTuple((CliffordUnit.scalar(5, -1), CliffordUnit.identity(5))),
    )
    report = verify_certificate(Certificate(spec, gens))
    assert report.abelian_in_quotient
    assert not report.centralizer_finite
    assert report.lower_bound is None
    assert "centralizer" in report.failure_reason


def test_verify_propagates_spec_validation():
    spec = GroupSpecB((1, 1), (rref([BitVec.from_coords([1, 0])]).basis))
    cert = Certificate(spec, (CliffordTuple((cu(3, 1, 2), cu(3, 1, 2))),))
    with pytest.raises(NotReducedError):
        verify_certificate(cert)


def test_verify_closure_cap():
    cert = diagonal_certificate(2, 3)
    with pytest.raises(EnumerationTooLargeError):
        verify_certificate(cert, closure_cap=16)


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
        exact = compute_ed(GroupSpecB((1,) * m, diagonal_mu(m).basis)).value
        assert verify_certificate(diagonal_certificate(1, m)).lower_bound == exact
    exact = compute_ed(GroupSpecB((1, 2), diagonal_mu(2).basis)).value
    assert verify_certificate(pair_certificate(1, 2)).lower_bound == exact
    exact = compute_ed(GroupSpecB((3, 3, 3), diagonal_mu(3).basis)).value
    assert verify_certificate(diagonal_certificate(3, 3)).lower_bound <= exact


def test_sampled_relations_large_dims():
    rng = Random(2024)
    for dim in (6, 7, 8, 9):
        masks = even_masks(dim)
        for _ in range(300):
            ma, mb = rng.choice(masks), rng.choice(masks)
            sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
            a, b = CliffordUnit(dim, ma, sa), CliffordUnit(dim, mb, sb)
            sign, word = word_product(a.indices, a.sign, b.indices, b.sign)
            assert a * b == CliffordUnit.from_indices(dim, word, sign)
        for _ in range(100):
            a, b, c = (
                CliffordUnit(dim, rng.choice(masks), rng.choice((1, -1))) for _ in range(3)
            )
            assert (a * b) * c == a * (b * c)
