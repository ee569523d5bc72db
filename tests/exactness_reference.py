"""The exactness test, its trace text and the block grouping as they were
before their fixed cost per `compute_ed` call was cut.

Kept as test oracles: `BitVec.__str__` must print what `reference_str` prints,
`PatternWeights` must classify and weigh every pattern as
`ReferencePatternWeights` does, the `small-product-list` citation must read as
`reference_small_product_text` writes it, and `core._blocks` must find the
blocks that `reference_blocks` finds by scanning every block for each row.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import edcalc.ledger
from edcalc.gf2 import BitVec
from edcalc.ledger import is_small_product


def reference_positions(bits: int) -> Iterator[int]:
    """0-based positions of the set bits of an int pattern, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def reference_str(v: BitVec) -> str:
    """The vector as its coordinate tuple, one coords() entry at a time."""
    return "(" + ",".join(str(c) for c in v.coords()) + ")"


class ReferencePatternWeights(dict):
    """Weight of each int pattern over ranks n, or None for a small factor product.

    Both rejects read the list's limits from `edcalc.ledger` at each call, so a
    test that extends the list extends the oracle with it.
    """

    def __init__(self, n: Sequence[int]) -> None:
        super().__init__()
        self.n = n

    def is_small(self, bits: int) -> bool:
        heavy = sum(1 << i for i, r in enumerate(self.n) if r > edcalc.ledger.SMALL_MAX_RANK)
        if bits & heavy or bits.bit_count() > edcalc.ledger.SMALL_MAX_FACTORS:
            return False
        return is_small_product([self.n[i] for i in reference_positions(bits)])

    def __missing__(self, bits: int) -> int | None:
        small = self.is_small(bits)
        weight = None if small else 1 << sum(self.n[i] for i in reference_positions(bits))
        self[bits] = weight
        return weight


def reference_small_product_text(basis: Sequence[BitVec], n: Sequence[int]) -> str | None:
    """The `small-product-list` citation for a minimal basis, or None when no vector
    of the basis has a small factor product."""
    weights = ReferencePatternWeights(n)
    small = [v for v in basis if weights.is_small(v.bits)]
    if not small:
        return None
    return "minimal-basis vectors with small factor products: " + ", ".join(
        f"{reference_str(v)} -> {sorted(n[i] for i in reference_positions(v.bits))}"
        for v in small
    )


def reference_blocks(mu_rows: Sequence[int], m: int) -> dict[int, list[int]]:
    """Support mask -> rows of each block: a row joins every block whose mask it
    meets, found by scanning them all; then each factor outside every support
    is a block of its own, with no rows."""
    blocks: dict[int, list[int]] = {}
    for bits in mu_rows:
        mask, rows = bits, [bits]
        for joined in [b for b in blocks if b & mask]:
            mask |= joined
            rows += blocks.pop(joined)
        blocks[mask] = rows
    for i in reference_positions((1 << m) - 1 & ~sum(blocks)):
        blocks[1 << i] = []
    return blocks
