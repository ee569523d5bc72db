"""Command-line interface: compute, certify, table, batch."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .core import (
    BUILTIN_CERTIFICATE_ROWS,
    DEFAULT_BASIS_CAP,
    KNOWN_CASE_ROWS,
    SMALL_PRODUCTS,
    STATUS_EXACT,
    EdResult,
    EmptySpecError,
    NotReducedError,
    SpecFormatError,
    compute_ed,
    spec_from_doc,
)
from .gf2 import DEFAULT_DIM_CAP, EnumerationTooLargeError

if TYPE_CHECKING:
    from .extraspecial import CertReport

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_CERT = 5
EXIT_PIPE = 141  # the shell's code for a process killed by SIGPIPE, 128 + 13

DEFAULT_ENUM_CAP = 1 << DEFAULT_DIM_CAP


def cap_value(text: str) -> int:
    """argparse type of --basis-cap and --enum-cap: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edcalc",
        description="Exact essential-dimension calculator for quotients of products"
        " of odd spin groups, with certificate verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", help="emit a JSON report")
    group.add_argument("--text", action="store_true", help="emit a text report (default)")

    basis_cap = argparse.ArgumentParser(add_help=False)
    basis_cap.add_argument(
        "--basis-cap",
        type=cap_value,
        default=DEFAULT_BASIS_CAP,
        help="largest basis count searched exhaustively (default %(default)s)",
    )
    enum_cap = argparse.ArgumentParser(add_help=False)
    enum_cap.add_argument(
        "--enum-cap",
        type=cap_value,
        default=DEFAULT_ENUM_CAP,
        help="largest element enumeration, for subspaces and closures (default 2^24)",
    )

    p = sub.add_parser(
        "compute", parents=[fmt, basis_cap, enum_cap], help="compute the essential dimension"
    )
    p.add_argument("spec", help="path to a spec JSON document")

    p = sub.add_parser("certify", parents=[fmt, enum_cap], help="verify a lower-bound certificate")
    p.add_argument(
        "certificate",
        help="path to a certificate JSON document, or builtin:<key>"
        " (for example builtin:diagonal:2:3, builtin:pair:1:5, builtin:small3:2,"
        " builtin:small4)",
    )

    sub.add_parser("table", parents=[fmt], help="print the built-in case tables")

    p = sub.add_parser(
        "batch", parents=[fmt, basis_cap, enum_cap], help="compute every spec in a directory"
    )
    p.add_argument("directory", help="directory of spec JSON documents")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "certify": cmd_certify,
        "table": cmd_table,
        "batch": cmd_batch,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # the reader of stdout left early; what is still buffered goes to
        # devnull, so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _read_json(path: str | Path) -> object:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dim_cap(enum_cap: int) -> int:
    return enum_cap.bit_length() - 1


def _emit(args: argparse.Namespace, doc: dict, text: str) -> None:
    # flush here, so that a closed pipe shows up while main can still catch it
    print(json.dumps(doc, indent=2) if args.json else text, flush=True)


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


def _try_compute(
    path: str | Path, basis_cap: int, enum_cap: int
) -> tuple[int, EdResult | None, str | None]:
    try:
        doc = _read_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        return EXIT_PARSE, None, f"cannot parse {path}: {exc}"
    try:
        spec = spec_from_doc(doc)
    except SpecFormatError as exc:
        return EXIT_PARSE, None, f"{path}: {exc}"
    except ValueError as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    try:
        result = compute_ed(spec, basis_cap=basis_cap, dim_cap=_dim_cap(enum_cap))
    except (EmptySpecError, NotReducedError) as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    partial = result.warnings and result.status != STATUS_EXACT
    return (EXIT_CAP if partial else EXIT_OK), result, None


def cmd_compute(args: argparse.Namespace) -> int:
    code, result, error = _try_compute(args.spec, args.basis_cap, args.enum_cap)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return code
    assert result is not None
    _emit(args, result_to_doc(result), render_result_text(result))
    return code


def report_to_doc(report: CertReport) -> dict:
    return {
        "abelian_in_quotient": report.abelian_in_quotient,
        "subgroup_order": report.subgroup_order,
        "rank": report.rank,
        "centralizer_finite": report.centralizer_finite,
        "lower_bound": report.lower_bound,
        "failure_reason": report.failure_reason,
        "notes": list(report.notes),
    }


def render_cert_text(report: CertReport) -> str:
    lines = [
        f"abelian in quotient: {'yes' if report.abelian_in_quotient else 'no'}",
        f"subgroup order: {report.subgroup_order}",
        f"rank: {report.rank}",
        f"centralizer finite: {'yes' if report.centralizer_finite else 'no'}",
    ]
    if report.lower_bound is not None:
        lines.append(f"lower bound {report.lower_bound}")
    else:
        lines.append(f"certificate invalid: {report.failure_reason}")
    lines.extend(f"note: {n}" for n in report.notes)
    return "\n".join(lines)


def cmd_certify(args: argparse.Namespace) -> int:
    # the certificate layer is imported here, so the other commands never load it
    from .extraspecial import builtin_certificate, certificate_from_doc, verify_certificate

    target = args.certificate
    if target.startswith("builtin:"):
        try:
            cert = builtin_certificate(target[len("builtin:") :])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        try:
            cert = certificate_from_doc(_read_json(target))
        except (OSError, json.JSONDecodeError, SpecFormatError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        report = verify_certificate(cert, closure_cap=args.enum_cap)
    except (EmptySpecError, NotReducedError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    _emit(args, report_to_doc(report), render_cert_text(report))
    return EXIT_OK if report.lower_bound is not None else EXIT_CERT


def cmd_table(args: argparse.Namespace) -> int:
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
    _emit(args, doc, "\n".join(lines))
    return EXIT_OK


def cmd_batch(args: argparse.Namespace) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    overall = EXIT_OK
    entries = []
    blocks = []
    for path in sorted(directory.glob("*.json")):
        code, result, error = _try_compute(path, args.basis_cap, args.enum_cap)
        if overall == EXIT_OK and code != EXIT_OK:
            overall = code
        if error is not None:
            entries.append({"file": path.name, "exit_code": code, "error": error})
            blocks.append(f"== {path.name} ==\nerror: {error}")
        else:
            assert result is not None
            entries.append({"file": path.name, "exit_code": code, "report": result_to_doc(result)})
            blocks.append(f"== {path.name} ==\n{render_result_text(result)}")
    _emit(args, {"results": entries}, "\n".join(blocks))
    return overall


if __name__ == "__main__":
    sys.exit(main())
