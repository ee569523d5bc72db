"""The known-case ledger as hand-written rules, before it became one registry.

Kept as a test oracle: `known_case_of_rows` must return the same entry as
`reference_known_cases` on every spec.
"""

from __future__ import annotations

from typing import Callable

from edcalc.gf2 import annihilator_bits, rref_bits
from edcalc.ledger import KnownCase
from edcalc.spec import GroupSpecB

def _rule_spin3_power_diagonal(spec: GroupSpecB) -> KnownCase | None:
    m = spec.m
    diagonal = rref_bits(spec.mu_gens) == [(1 << m) - 1]
    if m >= 2 and all(r == 1 for r in spec.n) and diagonal:
        return KnownCase(
            "exact",
            m + 1,
            "spin3-power-diagonal",
            f"product of {m} copies of Spin(3) modulo the diagonal sign: exactly {m + 1}",
        )
    return None


def _rule_small_pair_exact(spec: GroupSpecB) -> KnownCase | None:
    if spec.m != 2 or rref_bits(spec.mu_gens) != [0b11]:
        return None
    pair = tuple(sorted(spec.n))
    if pair == (1, 2):
        return KnownCase(
            "exact", 4, "spin3-spin5-diagonal", "Spin(3) x Spin(5) modulo the diagonal sign: exactly 4"
        )
    if pair == (1, 3):
        return KnownCase(
            "exact", 4, "spin3-spin7-diagonal", "Spin(3) x Spin(7) modulo the diagonal sign: exactly 4"
        )
    return None


def _rule_equal_rank_diagonal(spec: GroupSpecB) -> KnownCase | None:
    m = spec.m
    diagonal = rref_bits(spec.mu_gens) == [(1 << m) - 1]
    if m >= 2 and len(set(spec.n)) == 1 and diagonal:
        r = spec.n[0]
        return KnownCase(
            "lower",
            m + 2 * r - 1,
            "equal-rank-diagonal",
            f"{m} equal factors of rank {r} modulo the diagonal sign: at least {m + 2 * r - 1}"
            " (finite abelian subgroup of that rank)",
        )
    return None


_PAIR_TABLE = {(1, 2): 4, (1, 3): 4, (1, 4): 5, (1, 5): 7, (2, 3): 5}


def _rule_small_pair_diagonal(spec: GroupSpecB) -> KnownCase | None:
    if spec.m != 2 or rref_bits(spec.mu_gens) != [0b11]:
        return None
    pair = tuple(sorted(spec.n))
    value = _PAIR_TABLE.get(pair)
    if value is None:
        return None
    return KnownCase(
        "lower",
        value,
        "small-pair-diagonal",
        f"rank pair {list(pair)} modulo the diagonal sign: at least {value}"
        " (finite abelian subgroup of that rank)",
    )


_MAXIMAL_TABLE = {(1, 1, 1): 3, (1, 1, 2): 4, (1, 1, 3): 5, (1, 1, 1, 1): 5}


def _rule_small_maximal(spec: GroupSpecB) -> KnownCase | None:
    ranks = tuple(sorted(spec.n))
    value = _MAXIMAL_TABLE.get(ranks)
    maximal = rref_bits(annihilator_bits([(1 << spec.m) - 1], spec.m))
    if value is not None and rref_bits(spec.mu_gens) == maximal:
        return KnownCase(
            "lower",
            value,
            "small-maximal-quotient",
            f"ranks {list(ranks)} modulo all even sign patterns: at least {value}"
            " (finite abelian subgroup of that rank)",
        )
    return None


KNOWN_RULES: tuple[Callable[[GroupSpecB], KnownCase | None], ...] = (
    _rule_spin3_power_diagonal,
    _rule_small_pair_exact,
    _rule_equal_rank_diagonal,
    _rule_small_pair_diagonal,
    _rule_small_maximal,
)


def reference_known_cases(spec: GroupSpecB) -> KnownCase | None:
    """Strongest applicable entry of the built-in case ledger; exact entries win."""
    matches = [kc for rule in KNOWN_RULES if (kc := rule(spec)) is not None]
    exact = [kc for kc in matches if kc.kind == "exact"]
    if exact:
        return max(exact, key=lambda kc: kc.value)
    if matches:
        return max(matches, key=lambda kc: kc.value)
    return None
