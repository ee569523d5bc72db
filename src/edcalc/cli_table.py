"""The `table` command: the small-product list, the known cases and the built-in
certificates, each row read off the ledger when this module loads."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .caps import EXIT_OK
from .ledger import LEDGER, MU_TEXT, SMALL_PRODUCTS, LedgerFamily, Ranks

if TYPE_CHECKING:
    from types import SimpleNamespace


def _tight(ranks: Ranks) -> str:
    return ",".join(map(str, ranks))


def _known_case_rows() -> tuple[dict, ...]:
    """One row per tag; families that share a tag list their tables together."""
    merged: dict[str, tuple[LedgerFamily, dict[Ranks, int]]] = {}
    for fam in LEDGER:
        _, table = merged.setdefault(fam.tag, (fam, {}))
        table.update(fam.table)
    rows = []
    for tag, (fam, table) in merged.items():
        shape, value = fam.shape, fam.formula_text
        if table:
            # a lone rank list prints as a list, several print tight
            keys = [str(list(k)) if len(table) == 1 else f"[{_tight(k)}]" for k in table]
            shape, value = "ranks " + " / ".join(keys), " / ".join(map(str, table.values()))
        pattern = f"{shape}, {MU_TEXT[fam.mu][0]}"
        rows.append({"tag": tag, "kind": fam.kind, "pattern": pattern, "value": value})
    return tuple(rows)


def _builtin_certificate_rows() -> tuple[dict, ...]:
    rows = []
    for fam in (f for f in LEDGER if f.certificate):
        keys = ", ".join(f"({_tight(k)})" for k in fam.table)
        subject = fam.certificate_subject.format(keys=keys)
        values = list(map(str, fam.table.values())) or [fam.formula_text]
        proves = ("ranks " if len(values) > 1 else "rank ") + ", ".join(values)
        description = f"{subject} modulo {MU_TEXT[fam.mu][1]}; proves {proves}"
        rows.append({"key": fam.certificate, "description": description})
    return tuple(rows)


KNOWN_CASE_ROWS = _known_case_rows()
BUILTIN_CERTIFICATE_ROWS = _builtin_certificate_rows()


def answer(args: SimpleNamespace) -> tuple[int, dict, str]:
    """The exit code, the JSON document and the text report of `edcalc table`."""
    products = sorted(SMALL_PRODUCTS, key=lambda t: (len(t), t))
    doc = {
        "small_products": [list(t) for t in products],
        "known_cases": [dict(row) for row in KNOWN_CASE_ROWS],
        "builtin_certificates": [dict(row) for row in BUILTIN_CERTIFICATE_ROWS],
    }
    lines = ["small factor products (weight formula not known to be exact):"]
    lines.extend("  " + str(list(t)) for t in products)
    lines.append("known cases:")
    lines.extend(
        f"  {row['kind']:<5} {row['tag']}: {row['pattern']} -> {row['value']}"
        for row in KNOWN_CASE_ROWS
    )
    lines.append("built-in certificates:")
    lines.extend(f"  {row['key']}: {row['description']}" for row in BUILTIN_CERTIFICATE_ROWS)
    return EXIT_OK, doc, "\n".join(lines)
