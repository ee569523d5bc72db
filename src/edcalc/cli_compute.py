"""The `compute` command: the essential dimension of the group a spec document names,
with the JSON and text forms of its report, which `batch` shares."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .caps import EXIT_CAP, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION
from .core import STATUS_EXACT, compute_ed
from .spec import EmptySpecError, NotReducedError, SpecFormatError, spec_from_doc

if TYPE_CHECKING:
    from pathlib import Path
    from types import SimpleNamespace

    from .core import EdResult


def result_to_doc(result: EdResult) -> dict:
    return {
        "status": result.status,
        "value": result.value,
        "lower": result.lower,
        "upper": result.upper,
        "minimal_basis": [list(v.coords()) for v in result.minimal_basis],
        "basis_total_weight": result.basis_total_weight,
        "group_dim": result.group_dim,
        "trace": [{"rule": t.rule, "citation": t.citation} for t in result.trace],
        "warnings": list(result.warnings),
    }


def render_result_text(result: EdResult) -> str:
    if result.status == STATUS_EXACT:
        rule = next(
            t.rule
            for t in reversed(result.trace)
            if t.rule == "minimal-basis-exact" or t.rule.startswith("known-exact/")
        )
        head = f"status: exact, ed = {result.lower}, rule: {rule}"
    elif result.upper is not None:
        head = f"status: bounds-only, {result.lower} <= ed <= {result.upper}"
    else:
        head = f"status: bounds-only, ed >= {result.lower}"
    basis = ", ".join(str(v) for v in result.minimal_basis) or "(not computed)"
    lines = [
        head,
        f"lower bound: {result.lower}",
        f"upper bound: {result.upper if result.upper is not None else 'unknown'}",
        f"minimal basis: {basis}",
        f"basis total weight: {result.basis_total_weight}",
        f"group dimension: {result.group_dim}",
        "trace:",
    ]
    lines.extend(f"  {t.rule}: {t.citation}" for t in result.trace)
    lines.extend(f"warning: {w}" for w in result.warnings)
    return "\n".join(lines)


def compute_file(path: str | Path, enum_cap: int) -> tuple[int, EdResult | None, str | None]:
    """The exit code of computing the spec document at path, and the result or an error."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        return EXIT_PARSE, None, f"cannot parse {path}: {exc}"
    try:
        spec = spec_from_doc(doc)
    except SpecFormatError as exc:
        return EXIT_PARSE, None, f"{path}: {exc}"
    except ValueError as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    try:
        result = compute_ed(spec, enum_cap=enum_cap)
    except (EmptySpecError, NotReducedError) as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    partial = result.warnings and result.status != STATUS_EXACT
    return (EXIT_CAP if partial else EXIT_OK), result, None


def answer(args: SimpleNamespace) -> tuple[int, dict | None, str]:
    """The exit code, the JSON document and the text report of `edcalc compute`,
    or the exit code, None and the error."""
    code, result, error = compute_file(args.spec, args.enum_cap)
    if result is None:
        return code, None, error
    return code, result_to_doc(result), render_result_text(result)
