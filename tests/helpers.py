"""Shared test helpers: oracles independent of the package, and thin drivers of its int cores."""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from random import Random
from typing import Iterable, Sequence

import edcalc
from edcalc import (
    BitVec,
    Certificate,
    CliffordTuple,
    CliffordUnit,
    GroupSpecB,
)
from edcalc.core import PatternWeights, _basis, _greedy_keys, _picks, _split_walk_keys
from edcalc.caps import DEFAULT_ENUM_CAP
from edcalc.extraspecial import _closure_packed, _Packing
from edcalc.gf2 import annihilator_bits, bases_bits, rref_bits
from edcalc.ledger import is_small_product

from clifford_reference import commutator_sign_vector, indices
from greedy_reference import reference_greedy_keys, weight_exponent
from records_reference import in_span, support


def word_product(
    a_indices: tuple[int, ...], a_sign: int, b_indices: tuple[int, ...], b_sign: int
) -> tuple[int, tuple[int, ...]]:
    """Multiply signed generator words by explicit reduction.

    Sorts the concatenated word letter by letter: each swap of distinct adjacent
    letters flips the sign, and equal adjacent letters cancel into a -1.
    """
    word = list(a_indices) + list(b_indices)
    sign = a_sign * b_sign
    i = 0
    while i < len(word) - 1:
        if word[i] == word[i + 1]:
            del word[i : i + 2]
            sign = -sign
            i = max(i - 1, 0)
        elif word[i] > word[i + 1]:
            word[i], word[i + 1] = word[i + 1], word[i]
            sign = -sign
            i = max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(word)


def word_inverse(u: CliffordUnit) -> CliffordUnit:
    """Inverse by the word oracle.

    c(i)^-1 = -c(i), so a word inverts letter by letter in reverse order, with
    one sign flip per letter.
    """
    reverse = tuple(reversed(indices(u)))
    sign, word = word_product(reverse, u.sign * (-1) ** len(reverse), (), 1)
    return CliffordUnit.from_indices(u.dim, word, sign)


def even_masks(dim: int) -> list[int]:
    return [mask for mask in range(1 << dim) if mask.bit_count() % 2 == 0]


def all_units(dim: int) -> list[CliffordUnit]:
    """Every element of the signed even-product group inside Spin(dim)."""
    return [CliffordUnit(dim, mask, sign) for mask in even_masks(dim) for sign in (1, -1)]


def random_even_mask(rng: Random, dim: int) -> int:
    mask = rng.getrandbits(dim)
    if mask.bit_count() % 2:
        mask ^= 1 << rng.randrange(dim)
    return mask


def random_tuple(rng: Random, dims: Sequence[int]) -> CliffordTuple:
    """Random element of a product of sign groups: every sign and even mask equally likely."""
    return CliffordTuple(
        tuple(CliffordUnit(d, random_even_mask(rng, d), rng.choice((1, -1))) for d in dims)
    )


def packed_product(packing: _Packing, x: int, y: int) -> int:
    """Product of packed elements by the law the closure search inlines:
    (A, sa)(B, sb) = (A ^ B, sa ^ sb ^ (S(B & S(A)) & OFF)).
    """
    parity, width = packing.suffix_parity, packing.width
    return x ^ y ^ (parity((y >> width) & parity(x >> width)) & packing.off)


def unpack(packing: _Packing, x: int) -> CliffordTuple:
    """The tuple a packed element stands for: the inverse of `_Packing.pack`."""
    masks, pattern = x >> packing.width, packing.sign_pattern(x & ((1 << packing.width) - 1))
    return CliffordTuple(tuple(
        CliffordUnit(d, (masks >> o) & ((1 << d) - 1), -1 if pattern >> i & 1 else 1)
        for i, (d, o) in enumerate(zip(packing.dims, packing.offsets))
    ))


def packed_unit_product(a: CliffordUnit, b: CliffordUnit) -> CliffordUnit:
    """Product of two units by the packed product law, on a one-factor packing."""
    packing = _Packing((a.dim,))
    prod = packed_product(
        packing, packing.pack(CliffordTuple((a,))), packing.pack(CliffordTuple((b,)))
    )
    return unpack(packing, prod).components[0]


def packed_closure(
    generators: Sequence[CliffordTuple], cap: int = DEFAULT_ENUM_CAP
) -> tuple[_Packing, set[int]]:
    """The packing of the generators' product and the subgroup `_closure_packed` finds.

    Passes every pairwise commutator, the zero ones included, to the order bound.
    """
    packing = _Packing(generators[0].dims)
    packed = [packing.pack(g) for g in generators]
    width = packing.width
    commutators = [packing.commutator(a >> width, b >> width) for a, b in combinations(packed, 2)]
    return packing, _closure_packed(packed, packing, cap, commutators)


def mu_rows(spec: GroupSpecB) -> list[int]:
    """The reduced rows of a spec's mu, also of a spec that `validate` rejects."""
    return rref_bits(spec.mu_gens)


def dual_rows(spec: GroupSpecB) -> list[int]:
    """The reduced rows of the dual of a spec's mu."""
    return rref_bits(annihilator_bits(mu_rows(spec), spec.m))


def greedy_basis(
    mu: list[int], n: Sequence[int], enum_cap: int = DEFAULT_ENUM_CAP
) -> tuple[tuple[BitVec, ...], int]:
    """The greedy's minimal basis of the dual of mu's reduced rows, as vectors, and its
    total weight."""
    return _basis(_greedy_keys(mu, n, enum_cap), len(n))


def bases_of(rows: list[int], cap: int = DEFAULT_ENUM_CAP, keep=None) -> Iterable[tuple]:
    """The upper-bound search's bases of the span of independent rows, at the default cap."""
    return bases_bits(rows, cap, keep)


def support_ranks(r: BitVec, n: Sequence[int]) -> tuple[int, ...]:
    """Sorted multiset of factor ranks over the support of r."""
    return tuple(sorted(n[i] for i in support(r)))


def brute_min_basis(
    dual: list[int], n: Sequence[int], cap: int = DEFAULT_ENUM_CAP
) -> tuple[tuple[BitVec, ...], int]:
    """Exhaustive minimum over all bases of the dual's reduced rows; independent check of
    the greedy result."""
    best: tuple[BitVec, ...] | None = None
    best_key: tuple | None = None
    for bits in bases_of(dual, cap):
        basis = tuple(BitVec(len(n), b) for b in bits)
        total = sum(1 << weight_exponent(v, n) for v in basis)
        key = (total, tuple(sorted(v.coords() for v in basis)))
        if best_key is None or key < best_key:
            best, best_key = basis, key
    assert best is not None and best_key is not None
    return tuple(sorted(best, key=lambda v: v.coords())), best_key[0]


def brute_bounds(
    dual: list[int], n: Sequence[int], cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, int | None, int]:
    """Exhaustive oracles of the greedy and of the upper-bound search, in one pass over
    the bases of the dual's reduced rows.

    Returns the least total weight over all bases, the least over the bases with
    no small factor product (None when there is none), and how many such bases
    there are.  Each vector is classified through its BitVec support.
    """
    classes: dict[int, tuple[int, bool]] = {}
    least: int | None = None
    best: int | None = None
    candidates = 0
    for basis in bases_of(dual, cap):
        total, small = 0, False
        for b in basis:
            if b not in classes:
                v = BitVec(len(n), b)
                classes[b] = (1 << weight_exponent(v, n), is_small_product(support_ranks(v, n)))
            weight, is_small = classes[b]
            total += weight
            small = small or is_small
        if least is None or total < least:
            least = total
        if not small:
            candidates += 1
            if best is None or total < best:
                best = total
    assert least is not None
    return least, best, candidates


def greedy_over(keys: Iterable[int], m: int, k: int) -> tuple[tuple[BitVec, ...], int]:
    """The first k independent patterns of an ascending key stream, and their total weight."""
    return _basis(_picks(keys, m, k), m)


def whole_walk_keys(n: Sequence[int], mu_rows: Sequence[int]) -> Iterable[int]:
    """The split walk's keys over every factor, whatever blocks mu_rows make."""
    return _split_walk_keys(n, mu_rows, (1 << len(n)) - 1)


def restricted_greedy_total(spec: GroupSpecB, keys: Iterable[int]) -> int | None:
    """Matroid greedy over the ascending greedy keys of the dual, without the keys of
    small factor products: the least total weight of a basis with no small factor
    product, or None when the keys kept span less than the dual.

    The bases that avoid small products are the bases of the matroid restricted
    to the other patterns, so over every key of the dual this is the minimum of
    the upper-bound search.  A stream that ends early, as the split walk does
    after its bound, may give None where that search finds a basis.
    """
    m, k = spec.m, spec.m - len(mu_rows(spec))
    weights, low = PatternWeights(spec.n), (1 << m) - 1
    # a key holds its pattern bit-reversed; is_small reads coordinate i at bit i
    kept = (key for key in keys if not weights.is_small(int(f"{key & low:0{m}b}"[::-1], 2)))
    basis, total = greedy_over(kept, m, k)
    return total if len(basis) == k else None


def check_restricted_greedy(spec: GroupSpecB, best: int | None) -> bool:
    """Assert that the restricted greedy finds best, the upper-bound search's least total
    (None when no basis avoids small products), and return whether the walk fell short.

    Over every key of the dual, ascending, it must find best.  Over the split walk's
    stream it must find best too, unless the walk ended before the greedy held a basis:
    the walk stops after the heaviest key of a basis that may hold small patterns.
    """
    dual = dual_rows(spec)
    assert restricted_greedy_total(spec, reference_greedy_keys(dual, spec.m, spec.n)) == best, spec
    keys = list(whole_walk_keys(spec.n, mu_rows(spec)))
    walked = restricted_greedy_total(spec, keys)
    if walked is None and best is not None:
        assert len(keys) < (1 << len(dual)) - 1, spec
        return True
    assert walked == best, spec
    return False


def random_group_spec(
    rng: Random, max_m: int = 8, max_rank: int = 9, max_dual_dim: int = 4
) -> GroupSpecB:
    """Seeded random spec for greedy-versus-exhaustive comparisons."""
    m = rng.randint(1, max_m)
    n = tuple(rng.randint(1, max_rank) for _ in range(m))
    dual_dim = rng.randint(0, min(max_dual_dim, m))
    target = m - dual_dim
    gens: list[int] = []
    while len(rref_bits(gens)) < target:
        bits = rng.getrandbits(m)
        if bits:
            gens.append(bits)
    return GroupSpecB(n, gens)


def compare_greedy_brute(
    spec: GroupSpecB, enum_cap: int = DEFAULT_ENUM_CAP
) -> tuple[int, int]:
    """Greedy and exhaustive minimal totals for the same spec."""
    _, greedy_total = greedy_basis(mu_rows(spec), spec.n)
    _, brute_total = brute_min_basis(dual_rows(spec), spec.n, enum_cap)
    return greedy_total, brute_total


def child_env() -> dict[str, str]:
    """Environment for a fresh interpreter that imports the package under test."""
    src = str(Path(edcalc.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def run_fresh(script: str, *argv: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter; its last stdout line is sorted(sys.modules)."""
    code = f"{script}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )


def cli_modules(*argv: str, code: int = 0) -> set[str]:
    """The modules one `python -m edcalc.cli ARGV` imported, read off `-X importtime`.

    Starts the command as users and the benchmark do; `code` is its expected exit code.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "edcalc.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    # each import prints "import time: <self us> | <cumulative us> | <indented name>"
    return {
        line.rpartition("|")[2].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


def bench_workloads():
    """The benchmark's input module, loaded from its file; it needs only the standard library."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_certificate(rng, filtered):
    """Seeded random certificate with uneven ranks and a random reduced mu.

    With filtered set, a generator is kept only while it commutes modulo mu
    with those kept so far; otherwise most certificates are non-abelian.
    """
    m = rng.randint(1, 4)
    # small ranks too, so that some centralizers are finite
    n = tuple(rng.randint(1, rng.choice((2, 40))) for _ in range(m))
    while True:
        rows = [rng.getrandbits(m) for _ in range(rng.randint(0, m - 1))]
        spec = GroupSpecB(n, [r for r in rows if r])
        mu = mu_rows(spec)
        if not any(in_span(BitVec(m, 1 << i), mu) for i in range(m)):
            break
    dims = tuple(2 * r + 1 for r in n)
    gens = []
    for _ in range(rng.randint(1, 6)):
        g = random_tuple(rng, dims)
        if not filtered or all(in_span(commutator_sign_vector(g, h), mu) for h in gens):
            gens.append(g)
    return Certificate(spec, tuple(gens))
