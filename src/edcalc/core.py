"""Essential dimension of reduced quotients of products of odd spin groups.

A group is described by factor ranks n = (n_1, ..., n_m), one per Spin(2*n_i + 1)
factor, together with a central subgroup mu of the product of the factor centers,
given by sign-pattern generators in GF(2)^m.  The calculator works in the dual
subspace: the sign-character patterns orthogonal to mu.  Each nonzero pattern r
carries weight 2^(sum of n_i over the support of r), and the headline quantity is

    min over bases B of the dual subspace of (sum of weights over B) - dim G,

with dim G = sum of (2*n_i^2 + n_i).  The minimum is exact whenever no vector of
a minimal basis has a small factor product; otherwise the calculator reports
bounds, strengthened by a ledger of known small cases.  Specs and their checks
live in `spec`, the small-product list and the ledger in `ledger`.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Iterator, Sequence

from ._record import _Record
from .caps import DEFAULT_BASIS_CAP, DEFAULT_DIM_CAP
from .gf2 import (
    BitVec,
    DimensionMismatchError,
    EnumerationTooLargeError,
    annihilator,
    count_bases,
    enumerate_bases,
    rref_bits,
)
from .ledger import is_small_product, known_cases, small_limits
from .spec import validate

if TYPE_CHECKING:
    from .gf2 import SubspaceF2
    from .spec import GroupSpecB

STATUS_EXACT = "exact"
STATUS_BOUNDS = "bounds-only"

WARN_ELEMENT_CAP = "element-cap-exceeded"
WARN_BASIS_CAP = "basis-cap-exceeded"


def group_dim(n: Sequence[int]) -> int:
    """Dimension of the product of odd orthogonal Lie algebras: sum of 2*n_i^2 + n_i."""
    return sum(2 * r * r + r for r in n)


def weight_exponent(r: BitVec, n: Sequence[int]) -> int:
    """Sum of the factor ranks over the support of r; the weight of r is 2 to this."""
    return sum(n[i] for i in r.support())


def support_ranks(r: BitVec, n: Sequence[int]) -> tuple[int, ...]:
    """Sorted multiset of factor ranks over the support of r."""
    return tuple(sorted(n[i] for i in r.support()))


def _positions(bits: int) -> Iterator[int]:
    """0-based positions of the set bits of an int pattern, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class PatternWeights(dict):
    """Weight of each int pattern (coordinate i at bit i) over ranks n, or None when
    the pattern's rank multiset is a small factor product.

    A pattern is classified and weighed on its first lookup and kept, so a search
    over many bases of one dual pays once per pattern.  `is_small` rejects a
    pattern that touches a factor ranked above every entry of SMALL_PRODUCTS, or
    that has more factors than its longest entry, before it asks
    `is_small_product`; both limits are read off the list.
    """

    __slots__ = ("n", "heavy", "max_factors")

    def __init__(self, n: Sequence[int]) -> None:
        super().__init__()
        max_rank, self.max_factors = small_limits()
        self.n = n
        heavy = 0
        for i, r in enumerate(n):
            if r > max_rank:
                heavy |= 1 << i
        self.heavy = heavy

    def is_small(self, bits: int) -> bool:
        """Whether the rank multiset of the pattern's support is on SMALL_PRODUCTS."""
        if bits & self.heavy or bits.bit_count() > self.max_factors:
            return False
        return is_small_product([self.n[i] for i in _positions(bits)])

    def __missing__(self, bits: int) -> int | None:
        weight = None if self.is_small(bits) else 1 << sum(self.n[i] for i in _positions(bits))
        self[bits] = weight
        return weight


class _ChunkSum:
    """Completion of more than PIVOT_CHUNK pivots: one table entry per chunk of s, summed."""

    __slots__ = ("tables",)

    def __init__(self, tables: list[tuple[int, list[int]]]) -> None:
        self.tables = tables

    def __getitem__(self, s: int) -> int:
        mask = (1 << PIVOT_CHUNK) - 1
        return sum(table[s >> c & mask] for c, table in self.tables)


def _split_walk_keys(n: Sequence[int], mu_rows: Sequence[int]) -> Iterator[int]:
    """Greedy keys of the nonzero patterns orthogonal to mu_rows, ascending, found lazily.

    The key of a pattern is its weight exponent << m plus the pattern bit-reversed
    (coordinate i at bit m-1-i), so integer order is weight order, then coordinate
    tuple order.  Factors are sorted so that their key increments rise strictly:
    rank ascending, then index descending.  Keys add over disjoint sets of
    factors.  A set's syndrome is the XOR of its factors' columns of the mu rows,
    and its pattern lies in the dual iff the syndrome is 0.  The factors split in
    two:

    - The light part holds the pivots, the first d = dim mu sorted positions
      with independent columns, and the LIGHT_EXTRA lightest other positions.
      Once mu is reduced on the pivots, pivot j's column is 1 << j, so the set
      of pivots with syndrome s is s itself.  Its key is the sum of one entry
      per PIVOT_CHUNK pivots, each table indexed by that chunk of s.  Each
      syndrome is then reached by 2^LIGHT_EXTRA light sets, one per set of
      extra positions.
    - The heavy part, the other k - LIGHT_EXTRA positions, is walked in key
      order.  Every nonempty set of heavy positions is reached once from {0}
      by two moves on its highest position p, add p+1 or replace p by p+1, and
      both raise the key.  A heavy set with syndrome s joins each light set of
      syndrome s into a dual pattern.

    A second heap holds those patterns and gives out a key only while it is
    below the next heavy set's key, so the keys come in the order of a sort of
    the whole dual.  Heap entries are ints: key << (6+d) | p << d | syndrome
    for heavy sets, key << (6+d) for patterns.

    When the heavy part is nonempty, the set-up already holds a basis of the
    dual: each heavy position joined with its cheapest light set, and two of
    the patterns of the light part.  Matroid greedy's k-th pick is never
    heavier than the heaviest key of any basis, so neither heap takes an entry
    above that bound, and the stream ends after the last key at or below it.
    The walk meets fewer than 2^(k - LIGHT_EXTRA) heavy sets, and the greedy
    takes at most 2^(k-1) patterns: the first k-1 it keeps span 2^(k-1) - 1.
    """
    m = len(n)
    order = sorted(range(m - 1, -1, -1), key=n.__getitem__)  # stable: ties by index descending
    inc = [n[i] << m | 1 << (m - 1 - i) for i in order]
    # mu's rows over the sorted positions, reduced again: their pivots are the
    # lightest positions with independent columns, and pivot j's column is 1 << j
    bit = [0] * m
    for p, i in enumerate(order):
        bit[i] = 1 << p
    permuted = []
    for g in mu_rows:
        row = 0
        while g:
            row |= bit[(g & -g).bit_length() - 1]
            g &= g - 1
        permuted.append(row)
    rows = rref_bits(permuted)
    d = len(rows)
    col = [0] * m
    for j, r in enumerate(rows):
        while r:
            col[(r & -r).bit_length() - 1] |= 1 << j
            r &= r - 1
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    rest = [p for p in range(m) if p not in pivots]
    extra, heavy = rest[:LIGHT_EXTRA], rest[LIGHT_EXTRA:]
    shift = 6 + d
    # table c holds the keys, in entry units, of the sets of pivots c..c+PIVOT_CHUNK-1;
    # trivial mu has one table, for the empty set
    tables = []
    for c in range(0, max(d, 1), PIVOT_CHUNK):
        table = [0]
        for p in pivots[c : c + PIVOT_CHUNK]:
            table += [x + (inc[p] << shift) for x in table]
        tables.append((c, table))
    # completion[s] is the key of the set of pivots with syndrome s
    completion = tables[0][1] if len(tables) == 1 else _ChunkSum(tables)
    # (key in entry units, syndrome) of each set of extra positions
    extras = [(0, 0)]
    for p in extra:
        extras += [(x + (inc[p] << shift), s ^ col[p]) for x, s in extras]

    a_inc = [inc[p] for p in heavy]
    a_col = [col[p] for p in heavy]
    last = len(heavy) - 1
    # moves from highest position p, in entry units: the key change plus the new p
    add = [a_inc[p + 1] << shift | (p + 1) << d for p in range(last)]
    replace = [(a_inc[p + 1] - a_inc[p]) << shift | (p + 1) << d for p in range(last)]
    add_col = a_col[1:]
    replace_col = [a ^ b for a, b in zip(a_col, a_col[1:])]
    syndrome_mask = (1 << d) - 1
    key_mask = -1 << shift
    end = (sum(n) + 1 << m) << shift  # above every entry of both heaps
    # the patterns of the empty set of heavy positions
    light = sorted(completion[s] + x for x, s in extras[1:])
    bound = end
    if heavy:
        # the heaviest key of the basis: each heavy position with its cheapest light
        # set, and the two lightest patterns of the light part (with two extra
        # positions, any two of its three patterns are independent)
        bound = light[1]
        for a, c in zip(a_inc, a_col):
            bound = max(bound, (a << shift) + min(x + completion[c ^ s] for x, s in extras))
        light = [entry for entry in light if entry <= bound]
    walk_bound = bound | ~key_mask  # a walk entry holds p and its syndrome below the key
    walk = [a_inc[0] << shift | a_col[0], end] if heavy else [end]
    patterns = light + [end]  # sorted, so already a heap
    while True:
        entry = patterns[0]
        if entry < walk[0]:
            yield entry >> shift
            heappop(patterns)
            continue
        entry = walk[0]
        if entry == end:
            return
        syndrome = entry & syndrome_mask
        p = entry >> d & 63
        base = entry & key_mask
        for x, s in extras:
            entry = base + x + completion[syndrome ^ s]
            if entry <= bound:
                heappush(patterns, entry)
        # replacing p raises the key less than adding p+1 does
        if p < last and (entry := base + replace[p] | syndrome ^ replace_col[p]) <= walk_bound:
            heapreplace(walk, entry)
            entry = base + add[p] | syndrome ^ add_col[p]
            if entry <= walk_bound:
                heappush(walk, entry)
        else:
            heappop(walk)


# The light part of the split walk is the d pivots and this many more factors;
# the walk's bound takes two of the light part's three patterns, so it needs 2.
# Greedy time summed over the twenty base specs of the benchmark's compute-large
# pool (ranks 7..12, k = 11..16, d = 0..10; CPython 3.11, 2-vCPU VM): before the
# bound, 0 or 1 extra factors instead of 2 took 13-17% and 2-5% longer, and 3
# from 6% less to 3% more; with it, 3 took about a third longer.  With the bound,
# 3 lowered the peak allocation of ranks 7..12, (m, d) = (40, 20) and (44, 22),
# from 0.90 and 1.71 MB to 0.69 and 1.29 MB.  Very uneven ranks, n = (1,) * 19 +
# (20,), make the greedy take 2^19 of the 2^20 - 1 patterns and the bound
# excludes none; the walk still took 1.6 s, so it needs no visit budget.
LIGHT_EXTRA = 2

# Pivots per completion table.  Up to this many pivots, which covers every
# compute-large spec, a syndrome's completion is one list lookup; past it each
# pushed pattern sums one entry per table.  With 8, (k, d) = (14, 10) took 4.8
# instead of 1.7 ms per greedy call; with 16, a table costs 2^16 entries of
# set-up per call, and (12, 20) took 18 instead of 7 ms.
PIVOT_CHUNK = 12


def greedy_min_basis(
    mu: SubspaceF2, n: Sequence[int], dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[tuple[BitVec, ...], int]:
    """Minimal-total-weight basis of the dual of mu by matroid greedy.

    Ties are broken by coordinate tuple.  Refuses a dual of dimension above dim_cap.
    """
    m, k = mu.m, mu.m - mu.dim
    if len(n) != m:
        raise DimensionMismatchError("rank list does not match the ambient dimension")
    if k > dim_cap:
        raise EnumerationTooLargeError(
            f"subspace of dimension {k} has {2 ** k - 1} nonzero elements, cap is 2^{dim_cap}"
        )
    return _greedy(_split_walk_keys(n, [v.bits for v in mu.basis]), m, k)


def _greedy(keys: Iterator[int], m: int, k: int) -> tuple[tuple[BitVec, ...], int]:
    """The first k independent patterns of an ascending key stream, and their total weight."""
    low = (1 << m) - 1
    # independence is tested on the reversed patterns, by (pivot bit, row) pairs
    echelon: list[tuple[int, int]] = []
    chosen: list[int] = []
    total = 0
    for key in keys:
        r = key & low
        for pivot, row in echelon:
            if r & pivot:
                r ^= row
        if r:
            echelon.append((r & -r, r))
            chosen.append(key & low)
            total += 1 << (key >> m)
            if len(chosen) == k:
                break
    return tuple(BitVec(m, int(f"{r:0{m}b}"[::-1], 2)) for r in chosen), total


def theorem_hypothesis_holds(spec: GroupSpecB) -> tuple[bool, tuple[int, ...]]:
    """Check that every factor has rank >= 7, or rank >= 3 and is not split off.

    Returns (holds, offending 1-based factors).  Diagnostic only: the bounds the
    calculator emits are valid regardless, but exactness rests on this shape.
    """
    # the unit pattern e_i is orthogonal to mu iff no generator of mu has coordinate i
    mu_support = 0
    for v in spec.mu_gens:
        mu_support |= v.bits
    bad = tuple(
        i + 1 for i, r in enumerate(spec.n) if r < 7 and (r < 3 or not mu_support >> i & 1)
    )
    return (not bad, bad)


class TraceEntry(_Record):
    __slots__ = ("rule", "citation")
    rule: str
    citation: str

    def __init__(self, rule: str, citation: str) -> None:
        self._fill(rule, citation)


class EdResult(_Record):
    __slots__ = (
        "status",
        "lower",
        "upper",
        "minimal_basis",
        "basis_total_weight",
        "group_dim",
        "trace",
        "warnings",
    )
    status: str
    lower: int
    upper: int | None
    minimal_basis: tuple[BitVec, ...]
    basis_total_weight: int
    group_dim: int
    trace: tuple[TraceEntry, ...]
    warnings: tuple[str, ...]

    def __init__(
        self,
        status: str,
        lower: int,
        upper: int | None,
        minimal_basis: Sequence[BitVec],
        basis_total_weight: int,
        group_dim: int,
        trace: Sequence[TraceEntry],
        warnings: Sequence[str] = (),
    ) -> None:
        self._fill(
            status,
            lower,
            upper,
            tuple(minimal_basis),
            basis_total_weight,
            group_dim,
            tuple(trace),
            tuple(warnings),
        )
        if status not in (STATUS_EXACT, STATUS_BOUNDS):
            raise ValueError(f"unknown status {status!r}")
        if lower < 0:
            raise ValueError("lower bound must be clamped at 0")
        if status == STATUS_EXACT and upper != lower:
            raise ValueError("exact results must have matching bounds")
        if upper is not None and upper < lower:
            raise ValueError("upper bound below lower bound")

    @property
    def value(self) -> int | None:
        """The essential dimension when exact, else None."""
        return self.lower if self.status == STATUS_EXACT else None


def compute_ed(
    spec: GroupSpecB,
    basis_cap: int = DEFAULT_BASIS_CAP,
    dim_cap: int = DEFAULT_DIM_CAP,
) -> EdResult:
    """Full decision procedure: greedy formula, exactness test, known cases, bound search."""
    mu = validate(spec)
    k = spec.m - mu.dim
    dim_g = group_dim(spec.n)
    trace = [
        TraceEntry(
            "dual-subspace",
            f"sign-character patterns orthogonal to mu form a subspace of dimension {k}",
        )
    ]
    warnings: list[str] = []

    capped = False
    try:
        basis, total = greedy_min_basis(mu, spec.n, dim_cap)
    except EnumerationTooLargeError:
        # the dual is over the dim cap: the ledger alone decides
        capped = True
        basis, total, lower = (), 0, 0
        warnings.append(WARN_ELEMENT_CAP)
        trace.append(
            TraceEntry(
                "greedy-minimal-basis",
                f"2^{k} - 1 nonzero patterns exceed the enumeration cap; greedy skipped",
            )
        )
    else:
        trace.append(
            TraceEntry(
                "greedy-minimal-basis",
                f"matroid greedy over the {(1 << k) - 1} nonzero patterns in weight order;"
                f" minimal total weight {total}",
            )
        )
        raw = total - dim_g
        lower = max(0, raw)
        clamp_note = "" if raw >= 0 else "; clamped to 0"
        trace.append(
            TraceEntry(
                "weight-formula-lower",
                f"basis total weight {total} minus group dimension {dim_g} gives {raw}{clamp_note}",
            )
        )
        holds, offenders = theorem_hypothesis_holds(spec)
        trace.append(
            TraceEntry(
                "theorem-hypothesis",
                "every factor has rank >= 7, or rank >= 3 and is not split off: holds"
                if holds
                else f"fails for factors {list(offenders)}; diagnostic only, bounds remain valid",
            )
        )

        weights = PatternWeights(spec.n)
        small = [v for v in basis if weights.is_small(v.bits)]
        if not small:
            trace.append(
                TraceEntry(
                    "minimal-basis-exact",
                    "no minimal-basis vector has a small factor product,"
                    " so the weight formula is exact",
                )
            )
            return EdResult(
                STATUS_EXACT, lower, lower, basis, total, dim_g, tuple(trace), tuple(warnings)
            )

        trace.append(
            TraceEntry(
                "small-product-list",
                "minimal-basis vectors with small factor products: "
                + ", ".join(f"{v} -> {list(support_ranks(v, spec.n))}" for v in small),
            )
        )

    case = known_cases(mu, spec.n)
    if case is not None and case.kind == "exact":
        if case.value < lower:
            raise RuntimeError("known exact value contradicts the weight-formula lower bound")
        trace.append(TraceEntry(f"known-exact/{case.tag}", case.description))
        return EdResult(
            STATUS_EXACT,
            case.value,
            case.value,
            basis,
            total,
            dim_g,
            tuple(trace),
            tuple(warnings),
        )
    if case is not None:
        if case.value > lower:
            lower = case.value
        trace.append(TraceEntry(f"known-lower/{case.tag}", case.description))
    if capped:
        return EdResult(
            STATUS_BOUNDS, lower, None, basis, total, dim_g, tuple(trace), tuple(warnings)
        )

    upper: int | None = None
    if count_bases(k) <= basis_cap:
        best: int | None = None
        candidates = 0
        for b in enumerate_bases(annihilator(mu), basis_cap):
            ws = [weights[v.bits] for v in b]
            if None in ws:
                continue
            candidates += 1
            t = sum(ws)
            if best is None or t < best:
                best = t
        if best is not None:
            upper = best - dim_g
            trace.append(
                TraceEntry(
                    "upper-bound-search",
                    f"best of {candidates} bases with no small factor product has total weight {best}",
                )
            )
        else:
            trace.append(
                TraceEntry(
                    "upper-bound-search",
                    "no basis avoids small factor products; no weight-formula upper bound",
                )
            )
    else:
        warnings.append(WARN_BASIS_CAP)
        trace.append(
            TraceEntry(
                "upper-bound-search",
                f"{count_bases(k)} bases exceed the cap of {basis_cap}; search skipped",
            )
        )
    if upper is not None and upper < lower:
        raise RuntimeError("upper bound search contradicts the lower bound")
    return EdResult(
        STATUS_BOUNDS, lower, upper, basis, total, dim_g, tuple(trace), tuple(warnings)
    )
