"""The split walk as it was before its set-up became one pass per block.

Kept as a test oracle: `core._split_walk_keys` must give out the same full
stream of keys as `reference_split_walk_keys` on every block, not only the
keys the greedy picks.  The main loop is the package's; the set-up before it
is the previous one.  The light part's two extra positions are written here,
not read from the package, so that the oracle does not change with the code it
checks; PIVOT_CHUNK is read from the package, since the tables depend on it.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapreplace
from typing import Iterator, Sequence

from edcalc.core import PIVOT_CHUNK
from edcalc.gf2 import rref_bits


def _positions(bits: int) -> Iterator[int]:
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _ReferenceChunkSum:
    """Completion of more than PIVOT_CHUNK pivots: one table entry per chunk of s, summed."""

    def __init__(self, tables: list[tuple[int, list[int]]]) -> None:
        self.tables = tables

    def __getitem__(self, s: int) -> int:
        mask = (1 << PIVOT_CHUNK) - 1
        return sum(table[s >> c & mask] for c, table in self.tables)


def reference_split_walk_keys(
    n: Sequence[int], mu_rows: Sequence[int], factors: int
) -> Iterator[int]:
    """The keys `_split_walk_keys` gives out, by the set-up it had before it found
    the pivots and syndromes in one pass: the factors' increments sorted, mu's
    rows mapped to sorted positions bit by bit, re-reduced with `rref_bits`,
    and read back column by column."""
    m = len(n)
    low = (1 << m) - 1
    # the increments sort as the factors do: rank ascending, then index descending
    inc = sorted([n[i] << m | 1 << (m - 1 - i) for i in _positions(factors)])
    # mu's rows over the sorted positions, reduced again: their pivots are the
    # lightest positions with independent columns, and pivot j's column is 1 << j;
    # factor i's increment holds 1 << (m - 1 - i) in its low m bits
    bit = {m - (x & low).bit_length(): 1 << p for p, x in enumerate(inc)}
    permuted = []
    for g in mu_rows:
        row = 0
        while g:
            row |= bit[(g & -g).bit_length() - 1]
            g &= g - 1
        permuted.append(row)
    rows = rref_bits(permuted)
    d = len(rows)
    col = [0] * len(inc)
    pivots = []
    for j, r in enumerate(rows):
        pivots.append((r & -r).bit_length() - 1)
        while r:
            col[(r & -r).bit_length() - 1] |= 1 << j
            r &= r - 1
    rest = [p for p in range(len(inc)) if p not in pivots]
    extra, heavy = rest[:2], rest[2:]
    last = len(heavy) - 1
    shift = last.bit_length() + d  # a walk entry holds its highest heavy position p <= last
    # table c holds the keys, in entry units, of the sets of pivots c..c+PIVOT_CHUNK-1;
    # trivial mu has one table, for the empty set
    tables = []
    for c in range(0, max(d, 1), PIVOT_CHUNK):
        table = [0]
        for p in pivots[c : c + PIVOT_CHUNK]:
            step = inc[p] << shift
            table += [x + step for x in table]
        tables.append((c, table))
    # completion[s] is the key of the set of pivots with syndrome s
    completion = tables[0][1] if len(tables) == 1 else _ReferenceChunkSum(tables)
    # (key in entry units, syndrome) of each set of extra positions
    extras = [(0, 0)]
    for p in extra:
        step, c = inc[p] << shift, col[p]
        extras += [(x + step, s ^ c) for x, s in extras]

    a_inc = [inc[p] for p in heavy]
    a_col = [col[p] for p in heavy]
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
    if heavy:
        # the heaviest key of the basis: each heavy position with its cheapest light
        # set, and the two lightest patterns of the light part (with two extra
        # positions, any two of its three patterns are independent)
        bound = light[1]
        for a, c in zip(a_inc, a_col):
            bound = max(bound, (a << shift) + min([x + completion[c ^ s] for x, s in extras]))
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
