"""The known-case ledger: small factor products and the literature's known values.

One registry, LEDGER, holds every family of known essential dimensions: a rank
pattern under the diagonal or the maximal mu, with a value table or formula.
The lookup `known_case_of_rows`, the `table` command's rows (built by
`cli_table`) and the built-in certificates' declared ranks are all read off
it.  Loading it needs no GF(2) code: a central subgroup is only inspected
through its basis rows.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from ._record import _Record

SMALL_PRODUCTS = frozenset(
    [(a,) for a in range(1, 7)]
    + [(1, a) for a in range(1, 6)]
    + [(2, 2), (2, 3)]
    + [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 1, 1)]
)
# the largest rank and the most factors of any entry
SMALL_MAX_RANK = max(map(max, SMALL_PRODUCTS))
SMALL_MAX_FACTORS = max(map(len, SMALL_PRODUCTS))


def is_small_product(ranks: Sequence[int]) -> bool:
    """Whether a product of Spin(2*a_i + 1) over the given ranks is on the small list.

    For small products the single-vector weight bound is not known to be tight, so
    exactness claims require every minimal-basis vector to avoid this list.
    """
    return tuple(sorted(ranks)) in SMALL_PRODUCTS


class KnownCase(_Record):
    __slots__ = ("kind", "value", "tag", "description")
    kind: str  # "exact" or "lower"
    value: int
    tag: str
    description: str

    def __init__(self, kind: str, value: int, tag: str, description: str) -> None:
        self._fill(kind, value, tag, description)


# pattern text and modulo phrase for each kind of mu a ledger family matches
MU_TEXT = {
    "diagonal": ("diagonal mu", "the diagonal sign"),
    "maximal": ("mu = all even sign patterns", "all even sign patterns"),
}

Ranks = tuple[int, ...]


class LedgerFamily(NamedTuple):
    """One family of the known-case ledger: a rank pattern under diagonal or maximal mu.

    The value is a table keyed by sorted ranks, or a formula in the sorted ranks
    that returns None off its pattern.  A lower family declares the built-in
    certificate whose verified rank is its value.  Subjects may use {m} (number
    of factors), {n} (smallest rank) and {ranks}; a certificate subject may use
    {keys}, the table's rank tuples.
    """

    tag: str
    kind: str  # "exact" or "lower"
    mu: str  # "diagonal" or "maximal"
    subject: str
    values: dict[Ranks, int] | Callable[[Ranks], int | None]
    shape: str = ""  # pattern text of a formula family
    formula_text: str = ""
    certificate: str = ""  # built-in certificate key pattern
    certificate_subject: str = ""

    @property
    def table(self) -> dict[Ranks, int]:
        """The value table; empty for a formula family."""
        return {} if callable(self.values) else self.values

    def value_for(self, ranks: Ranks) -> int | None:
        return self.values(ranks) if callable(self.values) else self.values.get(ranks)

    def describe(self, ranks: Ranks, value: int) -> str:
        subject = self.subject.format(m=len(ranks), n=ranks[0], ranks=list(ranks))
        claim = (
            f"exactly {value}"
            if self.kind == "exact"
            else f"at least {value} (finite abelian subgroup of that rank)"
        )
        return f"{subject} modulo {MU_TEXT[self.mu][1]}: {claim}"


# fmt: off
LEDGER = (
    LedgerFamily(
        "spin3-power-diagonal", "exact", "diagonal", "product of {m} copies of Spin(3)",
        lambda r: len(r) + 1 if len(r) >= 2 and r[-1] == 1 else None,
        "m >= 2 factors of rank 1", "m + 1",
    ),
    LedgerFamily("spin3-spin5-diagonal", "exact", "diagonal", "Spin(3) x Spin(5)", {(1, 2): 4}),
    LedgerFamily("spin3-spin7-diagonal", "exact", "diagonal", "Spin(3) x Spin(7)", {(1, 3): 4}),
    LedgerFamily(
        "equal-rank-diagonal", "lower", "diagonal", "{m} equal factors of rank {n}",
        lambda r: len(r) + 2 * r[0] - 1 if len(r) >= 2 and r[0] == r[-1] else None,
        "m >= 2 factors of equal rank n", "m + 2n - 1",
        "diagonal:<n>:<m>", "m >= 2 copies of Spin(2n+1)",
    ),
    LedgerFamily(
        "small-pair-diagonal", "lower", "diagonal", "rank pair {ranks}",
        {(1, 2): 4, (1, 3): 4, (1, 4): 5, (1, 5): 7, (2, 3): 5},
        certificate="pair:<n1>:<n2>", certificate_subject="rank pairs {keys}",
    ),
    LedgerFamily(
        "small-maximal-quotient", "lower", "maximal", "ranks {ranks}",
        {(1, 1, 1): 3, (1, 1, 2): 4, (1, 1, 3): 5},
        certificate="small3:<v>",
        certificate_subject="Spin(3) x Spin(3) x Spin(2v+1) for v in 1..3",
    ),
    LedgerFamily(
        "small-maximal-quotient", "lower", "maximal", "ranks {ranks}", {(1, 1, 1, 1): 5},
        certificate="small4", certificate_subject="four Spin(3) factors",
    ),
)
# fmt: on


def ledger_family(certificate: str) -> LedgerFamily:
    """The lower family that declares a built-in certificate key pattern."""
    return next(f for f in LEDGER if f.certificate == certificate)


def known_case_of_rows(rows: Sequence[int], m: int, n: Sequence[int]) -> KnownCase | None:
    """Strongest ledger entry for ranks n modulo the mu in GF(2)^m whose reduced int rows
    `validate` returns, or None; exact wins."""
    kinds = ("diagonal",) if len(rows) == 1 and rows[0] == (1 << m) - 1 else ()
    # an (m-1)-dimensional space of even patterns is all of them
    if len(rows) == m - 1 and not any(r.bit_count() & 1 for r in rows):
        kinds += ("maximal",)
    if not kinds:
        return None
    ranks = tuple(sorted(n))
    best: KnownCase | None = None
    for fam in LEDGER:
        if fam.mu not in kinds or (value := fam.value_for(ranks)) is None:
            continue
        case = KnownCase(fam.kind, value, fam.tag, fam.describe(ranks, value))
        if best is None or (case.kind == "exact", case.value) > (best.kind == "exact", best.value):
            best = case
    return best
