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
from typing import Iterable, Iterator, Sequence

from ._record import _Record, _setattr
from .caps import DEFAULT_ENUM_CAP
from .gf2 import BitVec, EnumerationTooLargeError, annihilator_bits, bases_bits, check_basis_count
from .ledger import SMALL_MAX_FACTORS, SMALL_MAX_RANK, is_small_product, known_case_of_rows
from .spec import GroupSpecB, validate

STATUS_EXACT = "exact"
STATUS_BOUNDS = "bounds-only"

WARN_ELEMENT_CAP = "element-cap-exceeded"
WARN_BASIS_CAP = "basis-cap-exceeded"


def group_dim(n: Sequence[int]) -> int:
    """Dimension of the product of odd orthogonal Lie algebras: sum of 2*n_i^2 + n_i."""
    return sum(2 * r * r + r for r in n)


def _positions(bits: int) -> Iterator[int]:
    """0-based positions of the set bits of an int pattern, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _ranks(n: Sequence[int], bits: int) -> list[int]:
    """The ranks of the factors in the support of an int pattern, by position."""
    # one loop, not a list over _positions: on the few bits of a small pattern,
    # resuming a generator per bit costs more than the loop itself
    ranks = []
    while bits:
        low = bits & -bits
        ranks.append(n[low.bit_length() - 1])
        bits ^= low
    return ranks


class PatternWeights(dict):
    """Weight of each int pattern (coordinate i at bit i) over ranks n, or None when
    the pattern's rank multiset is a small factor product.

    A pattern is classified and weighed on its first lookup, from one reading of
    its ranks, and kept, with the ranks of a small pattern in `small`: the
    exactness test, its trace and a search over many bases of one dual read each
    pattern's ranks once.  A pattern that touches a factor ranked above every
    entry of SMALL_PRODUCTS, or that has more factors than its longest entry, is
    not small; `is_small` answers those without a lookup.  ledger fixes both
    limits from the list at import.
    """

    __slots__ = ("n", "heavy", "small")

    def __init__(self, n: Sequence[int]) -> None:
        super().__init__()
        self.n = n
        self.small: dict[int, list[int]] = {}
        heavy = 0
        for i, r in enumerate(n):
            if r > SMALL_MAX_RANK:
                heavy |= 1 << i
        self.heavy = heavy

    def is_small(self, bits: int) -> bool:
        """Whether the rank multiset of the pattern's support is on SMALL_PRODUCTS."""
        if bits & self.heavy or bits.bit_count() > SMALL_MAX_FACTORS:
            return False
        return self[bits] is None

    def __missing__(self, bits: int) -> int | None:
        ranks = _ranks(self.n, bits)
        if bits & self.heavy or len(ranks) > SMALL_MAX_FACTORS or not is_small_product(ranks):
            self[bits] = weight = 1 << sum(ranks)
            return weight
        self.small[bits] = ranks
        self[bits] = None
        return None


class _ChunkSum:
    """Completion of more than PIVOT_CHUNK pivots: one table entry per chunk of s, summed."""

    __slots__ = ("tables",)

    def __init__(self, tables: list[tuple[int, list[int]]]) -> None:
        self.tables = tables

    def __getitem__(self, s: int) -> int:
        mask = (1 << PIVOT_CHUNK) - 1
        return sum(table[s >> c & mask] for c, table in self.tables)


def _split_walk_keys(n: Sequence[int], mu_rows: Sequence[int], factors: int) -> Iterator[int]:
    """Greedy keys of the nonzero patterns orthogonal to mu_rows, ascending, found lazily.

    Only the patterns over factors, a mask that holds the support of mu_rows,
    are walked; their keys keep the layout over all of n.

    The key of a pattern is its weight exponent << m plus the pattern bit-reversed
    (coordinate i at bit m-1-i), so integer order is weight order, then coordinate
    tuple order.  Factors are sorted so that their key increments rise strictly:
    rank ascending, then index descending.  Keys add over disjoint sets of
    factors.  A set's syndrome is the XOR of its factors' columns of the mu rows,
    and its pattern lies in the dual iff the syndrome is 0.  The factors split in
    two:

    - The light part holds the pivots, the first d = dim mu sorted positions
      with independent columns, and the two lightest other positions.
      Once mu is reduced on the pivots, pivot j's column is 1 << j, so the set
      of pivots with syndrome s is s itself.  Its key is the sum of one entry
      per PIVOT_CHUNK pivots, each table indexed by that chunk of s.  Each
      syndrome is then reached by 4 light sets, one per set of extra positions.
    - The heavy part, the other k - 2 positions, is walked in key order.
      Every nonempty set of heavy positions is reached once from {0}
      by two moves on its highest position p, add p+1 or replace p by p+1, and
      both raise the key.  A heavy set with syndrome s joins each light set of
      syndrome s into a dual pattern.

    A second heap holds those patterns and gives out a key only while it is
    below the next heavy set's key, so the keys come in the order of a sort of
    the whole dual.  Heap entries are ints: key << (w+d) | p << d | syndrome
    for heavy sets, key << (w+d) for patterns, where p takes w bits.

    When the heavy part is nonempty, the set-up already holds a basis of the
    dual: each heavy position joined with its cheapest light set, and two of
    the patterns of the light part.  Matroid greedy's k-th pick is never
    heavier than the heaviest key of any basis, so neither heap takes an entry
    above that bound, and the stream ends after the last key at or below it.
    The walk meets fewer than 2^(k - 2) heavy sets, and the greedy takes at
    most 2^(k-1) patterns: the first k-1 it keeps span 2^(k-1) - 1.  Very
    uneven ranks reach that: with n = (1,) * 19 + (20,) the greedy takes 2^19
    patterns and the bound excludes none, and the walk over all 20 factors
    still took 1.8 s, so it needs no visit budget.
    """
    m = len(n)
    low = (1 << m) - 1
    # the increments sort as the factors do: rank ascending, then index descending
    inc = sorted([n[i] << m | 1 << (m - 1 - i) for i in _positions(factors)])
    # one pass in increment order over each factor's column of mu_rows, row j at
    # bit j: a column outside the span of the pivots' columns makes the next pivot;
    # any other column is the sum of a set of pivots' columns, and that set, pivot j
    # at bit j, is its syndrome
    rows = mu_rows[::-1]
    echelon = []  # (lowest bit, reduced column, the set of pivots whose columns sum to it)
    pivot_inc, rest_inc, rest_col = [], [], []
    for x in inc:
        i = m - (x & low).bit_length()  # factor i's increment holds 1 << (m - 1 - i)
        c = 0
        for g in rows:
            c = c << 1 | g >> i & 1
        s = 0
        for b, r, t in echelon:
            if c & b:
                c ^= r
                s ^= t
        if c:
            echelon.append((c & -c, c, s | 1 << len(pivot_inc)))
            pivot_inc.append(x)
        else:
            rest_inc.append(x)
            rest_col.append(s)
    d = len(pivot_inc)
    # the light part takes two extra positions, no more and no fewer: the bound below
    # completes its basis with the two lightest patterns of the light part, which holds
    # only for two.  With none or one there is no second pattern; with three, three
    # patterns may be dependent, and the greedy returned a wrong basis on 34 of 320
    # seeded specs.  That short bound is why three timed faster over the twenty base
    # specs of the benchmark's compute-large pool (ranks 7..12, k = 11..16, d = 0..10;
    # CPython 3.11, 2-vCPU VM, 150 alternating passes: 4% less greedy time) and cut the
    # peak allocation of ranks 7..12, (m, d) = (40, 20) and (44, 22), from 0.90 and
    # 1.71 MB to 0.68 and 1.29 MB
    a_inc, a_col = rest_inc[2:], rest_col[2:]
    last = len(a_inc) - 1
    shift = last.bit_length() + d  # a walk entry holds its highest heavy position p <= last
    # table c holds the keys, in entry units, of the sets of pivots c..c+PIVOT_CHUNK-1;
    # trivial mu has one table, for the empty set
    tables = []
    for c in range(0, max(d, 1), PIVOT_CHUNK):
        table = [0]
        for x in pivot_inc[c : c + PIVOT_CHUNK]:
            step = x << shift
            table += [y + step for y in table]
        tables.append((c, table))
    # completion[s] is the key of the set of pivots with syndrome s
    completion = tables[0][1] if len(tables) == 1 else _ChunkSum(tables)
    # (key in entry units, syndrome) of each set of extra positions
    extras = [(0, 0)]
    for x, c in zip(rest_inc[:2], rest_col):
        step = x << shift
        extras += [(y + step, s ^ c) for y, s in extras]

    # moves from highest position p, in entry units: the key change plus the new p
    add, replace, add_col, replace_col = [], [], [], []
    for p in range(last):
        add.append(a_inc[p + 1] << shift | (p + 1) << d)
        replace.append((a_inc[p + 1] - a_inc[p]) << shift | (p + 1) << d)
        add_col.append(a_col[p + 1])
        replace_col.append(a_col[p] ^ a_col[p + 1])
    syndrome_mask = (1 << d) - 1
    key_mask = -1 << shift
    end = sum(inc) + 1 << shift  # above every entry of both heaps: no key exceeds sum(inc)
    # the patterns of the empty set of heavy positions
    light = sorted([completion[s] + x for x, s in extras[1:]])
    bound = end
    if a_inc:
        # the heaviest key of the basis: each heavy position with its cheapest light
        # set, and the two lightest patterns of the light part (with two extra
        # positions, any two of its three patterns are independent).  Heaviest
        # position first: one whose set of pivots alone keeps it at or below the
        # bound so far cannot raise it, since its cheapest light set is no dearer
        bound = light[1]
        for a, c in zip(reversed(a_inc), reversed(a_col)):
            a <<= shift
            if a + completion[c] > bound:
                bound = max(bound, a + min([x + completion[c ^ s] for x, s in extras]))
        light = [entry for entry in light if entry <= bound]
    walk_bound = bound | ~key_mask  # a walk entry holds p and its syndrome below the key
    walk = [a_inc[0] << shift | a_col[0], end] if a_inc else [end]
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
        base = entry & key_mask
        p = (entry ^ base) >> d
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


# Pivots per completion table.  Up to this many pivots, which covers every
# compute-large spec, a syndrome's completion is one list lookup; past it each
# pushed pattern sums one entry per table.  Greedy time per call (CPython 3.11,
# 2-vCPU VM, min of 40 interleaved rounds): with 8, (k, d) = (14, 10) took 3.7
# instead of 1.2 ms and the compute-large pool 529 us, where 10 to 16 build one
# table and read 317 to 372 us; with 16, a table costs 2^16 entries of set-up
# per call, and (12, 20) took 15.3 instead of 5.3 ms.  The peak allocation at
# (m, d) = (40, 20) is 0.79, 0.90, 1.48 and 3.84 MB with 10, 12, 14 and 16.
PIVOT_CHUNK = 12


def _greedy_keys(mu_rows: Sequence[int], n: Sequence[int], enum_cap: int) -> list[int]:
    """The keys, ascending, of the minimal-total-weight basis of the dual of the mu whose
    reduced int rows are given, by matroid greedy.

    Ties are broken by coordinate tuple.  The factors split into blocks, the
    connected components of the supports of mu's rows; a factor outside every
    support is a block of its own, whose dual is its unit pattern.  The dual is
    the direct sum of the blocks' duals, and a pattern over two blocks comes
    after both of its parts in key order, so the greedy never takes it: its
    picks are the blocks' picks merged by key.  Refuses a block whose dual has
    more than enum_cap nonzero patterns; the refusal's `dim` is the largest
    dimension of a block's dual.
    """
    m = len(n)
    blocks = _blocks(mu_rows, m)
    dims = [mask.bit_count() - len(rows) for mask, rows in blocks]
    k = max(dims, default=0)
    if (1 << k) - 1 > enum_cap:
        refusal = EnumerationTooLargeError(
            f"subspace of dimension {k} has 2^{k} - 1 nonzero elements, cap is {enum_cap}"
        )
        refusal.dim = k
        raise refusal
    picks: list[int] = []
    for (mask, rows), dim in zip(blocks, dims):
        if rows:
            picks += _picks(_split_walk_keys(n, rows, mask), m, dim)
        else:
            picks.append(n[i := mask.bit_length() - 1] << m | 1 << (m - 1 - i))
    return sorted(picks)


def _blocks(mu_rows: Iterable[int], m: int) -> list[list]:
    """[support mask, rows] of each block of m factors: each connected component of
    the rows' supports, then each factor outside every support alone, with no rows.

    A row finds each block it meets from one shared position and skips the rest
    of that block.  Of two blocks that join, the one with fewer positions moves,
    so a position moves at most log2(m) times: the grouping is linear in the
    rows' total support, however many blocks there are.
    """
    owner: list = [None] * m  # factor position -> its block
    blocks = []
    covered = 0
    for bits in mu_rows:
        hit = bits & covered
        if hit:
            block = owner[(hit & -hit).bit_length() - 1]
            hit &= ~block[0]
            while hit:
                other = owner[(hit & -hit).bit_length() - 1]
                hit &= ~other[0]
                if other[0].bit_count() > block[0].bit_count():
                    block, other = other, block
                for i in _positions(other[0]):
                    owner[i] = block
                block[0] |= other[0]
                block[1] += other[1]
                other[1] = None  # joined to block
            block[0] |= bits
            block[1].append(bits)
        else:
            block = [bits, [bits]]
            blocks.append(block)
        fresh = bits & ~covered
        covered |= bits
        while fresh:
            low = fresh & -fresh
            owner[low.bit_length() - 1] = block
            fresh ^= low
    blocks = [block for block in blocks if block[1] is not None]
    return blocks + [[1 << i, []] for i in _positions((1 << m) - 1 & ~covered)]


def _picks(keys: Iterator[int], m: int, k: int) -> list[int]:
    """The keys of the first k independent patterns of an ascending key stream."""
    low = (1 << m) - 1
    # independence is tested on the reversed patterns, by (pivot bit, row) pairs
    echelon: list[tuple[int, int]] = []
    chosen: list[int] = []
    for key in keys:
        r = key & low
        for pivot, row in echelon:
            if r & pivot:
                r ^= row
        if r:
            echelon.append((r & -r, r))
            chosen.append(key)
            if len(chosen) == k:
                break
    return chosen


def _basis(keys: Sequence[int], m: int) -> tuple[tuple[BitVec, ...], int]:
    """The patterns of greedy keys as vectors, in key order, and their total weight."""
    low = (1 << m) - 1
    basis, total = [], 0
    for key in keys:
        basis.append(BitVec(m, int(f"{key & low:0{m}b}"[::-1], 2)))
        total += 1 << (key >> m)
    return tuple(basis), total


def theorem_hypothesis_holds(
    n: Sequence[int], mu_rows: Iterable[int]
) -> tuple[bool, tuple[int, ...]]:
    """Check that every factor has rank >= 7, or rank >= 3 and is not split off by
    the mu that the int rows span, reduced or not.

    Returns (holds, offending 1-based factors).  Diagnostic only: the bounds the
    calculator emits are valid regardless, but exactness rests on this shape.
    """
    # the unit pattern e_i is orthogonal to mu iff no row has coordinate i: any
    # spanning set has mu's support, the OR of its rows
    support = 0
    for r in mu_rows:
        support |= r
    bad = [i + 1 for i, r in enumerate(n) if r < 7 and (r < 3 or not support >> i & 1)]
    return (not bad, tuple(bad))


class TraceEntry(_Record):
    __slots__ = ("rule", "citation")
    rule: str
    citation: str

    # written out, not _fill: compute_ed builds five to eight per call
    def __init__(self, rule: str, citation: str) -> None:
        _setattr(self, "rule", rule)
        _setattr(self, "citation", citation)


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


def compute_ed(spec: GroupSpecB, *, enum_cap: int = DEFAULT_ENUM_CAP) -> EdResult:
    """Full decision procedure: greedy formula, exactness test, known cases, bound search.

    enum_cap bounds the greedy's nonzero patterns per block and the search's bases.
    Every stage reads mu's int rows; the minimal basis holds the only vectors built.
    """
    mu_rows = validate(spec)
    n, m = spec.n, spec.m
    k = m - len(mu_rows)
    dim_g = group_dim(n)
    text = f"sign-character patterns orthogonal to mu form a subspace of dimension {k}"
    trace = [TraceEntry("dual-subspace", text)]
    warnings: list[str] = []
    status, lower = STATUS_BOUNDS, 0
    upper: int | None = None

    try:
        basis, total = _basis(_greedy_keys(mu_rows, n, enum_cap), m)
    except EnumerationTooLargeError as refusal:
        # a block's dual has more patterns than the cap: the ledger alone decides
        basis, total = (), 0
        warnings.append(WARN_ELEMENT_CAP)
        text = f"2^{refusal.dim} - 1 nonzero patterns exceed the enumeration cap; greedy skipped"
    else:
        text = (
            f"matroid greedy over the {(1 << k) - 1} nonzero patterns in weight order;"
            f" minimal total weight {total}"
        )
    trace.append(TraceEntry("greedy-minimal-basis", text))
    # a reduced mu has a nonzero dual, so the basis is empty only when the greedy refused it
    if basis:
        raw = total - dim_g
        lower = max(0, raw)
        clamp_note = "" if raw >= 0 else "; clamped to 0"
        text = f"basis total weight {total} minus group dimension {dim_g} gives {raw}{clamp_note}"
        trace.append(TraceEntry("weight-formula-lower", text))
        holds, offenders = theorem_hypothesis_holds(n, mu_rows)
        text = (
            "every factor has rank >= 7, or rank >= 3 and is not split off: holds"
            if holds
            else f"fails for factors {list(offenders)}; diagnostic only, bounds remain valid"
        )
        trace.append(TraceEntry("theorem-hypothesis", text))

        # each basis pattern is classified once; the search reads the same verdicts
        weights = PatternWeights(n)
        small = [v for v in basis if weights.is_small(v.bits)]
        if small:
            text = ", ".join([f"{v} -> {sorted(weights.small[v.bits])}" for v in small])
            text = "minimal-basis vectors with small factor products: " + text
            trace.append(TraceEntry("small-product-list", text))
        else:
            status, upper = STATUS_EXACT, lower
            text = (
                "no minimal-basis vector has a small factor product,"
                " so the weight formula is exact"
            )
            trace.append(TraceEntry("minimal-basis-exact", text))

    case = known_case_of_rows(mu_rows, m, n) if status != STATUS_EXACT else None
    if case is not None and case.kind == "exact":
        if case.value < lower:
            raise RuntimeError("known exact value contradicts the weight-formula lower bound")
        status, lower, upper = STATUS_EXACT, case.value, case.value
        trace.append(TraceEntry(f"known-exact/{case.tag}", case.description))
    elif case is not None:
        if case.value > lower:
            lower = case.value
        trace.append(TraceEntry(f"known-lower/{case.tag}", case.description))

    if status != STATUS_EXACT and basis:
        best: int | None = None
        candidates = 0
        try:
            # refuse before building the dual; keep the patterns whose weight is not
            # None: the bases without small factor products
            check_basis_count(k, enum_cap)
            for b in bases_bits(annihilator_bits(mu_rows, m), enum_cap, weights.__getitem__):
                candidates += 1
                t = sum(map(weights.__getitem__, b))
                if best is None or t < best:
                    best = t
        except EnumerationTooLargeError as exc:
            warnings.append(WARN_BASIS_CAP)
            text = f"{exc}; search skipped"
        else:
            if best is not None:
                upper = best - dim_g
                text = f"best of {candidates} bases with no small factor product"
                text += f" has total weight {best}"
            else:
                text = "no basis avoids small factor products; no weight-formula upper bound"
        trace.append(TraceEntry("upper-bound-search", text))
        if upper is not None and upper < lower:
            raise RuntimeError("upper bound search contradicts the lower bound")
    return EdResult(status, lower, upper, basis, total, dim_g, trace, warnings)
