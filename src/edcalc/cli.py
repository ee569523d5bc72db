"""Command-line interface: compute, certify, table, batch.

Each handler imports the modules its command runs, so `table` loads only the
ledger and `certify` never loads the essential-dimension search.  A plainly
spelt command line is read by `read_argv`; anything else, help and every usage
error included, goes to the argparse parser of `usage`, which is imported only
then.  Both read one declared table: COMMANDS, FORMATS and CAPS.

`main` returns the exit code and is what library callers and tests call.  `run`
is the process entry point: it ends the process with `os._exit` as soon as the
report is flushed, so the interpreter frees none of its modules and objects.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn, Sequence

from .caps import DEFAULT_BASIS_CAP, DEFAULT_DIM_CAP

if TYPE_CHECKING:
    from pathlib import Path

    from .core import EdResult
    from .extraspecial import CertReport

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_CERT = 5
EXIT_IOERR = 74  # EX_IOERR of sysexits.h
EXIT_PIPE = 141  # the shell's code for a process killed by SIGPIPE, 128 + 13

DEFAULT_ENUM_CAP = 1 << DEFAULT_DIM_CAP

# output flags, mutually exclusive, that every command takes
FORMATS = {"--json": "emit a JSON report", "--text": "emit a text report (default)"}

# cap option: (default, help)
CAPS = {
    "--basis-cap": (
        DEFAULT_BASIS_CAP,
        "largest basis count searched exhaustively (default %(default)s)",
    ),
    "--enum-cap": (
        DEFAULT_ENUM_CAP,
        "largest element enumeration, for subspaces and closures (default 2^24)",
    ),
}

# command: (help, the caps it takes, its positional argument and that argument's help)
COMMANDS = {
    "compute": (
        "compute the essential dimension",
        ("--basis-cap", "--enum-cap"),
        ("spec", "path to a spec JSON document"),
    ),
    "certify": (
        "verify a lower-bound certificate",
        ("--enum-cap",),
        (
            "certificate",
            "path to a certificate JSON document, or builtin:<key>"
            " (for example builtin:diagonal:2:3, builtin:pair:1:5, builtin:small3:2,"
            " builtin:small4)",
        ),
    ),
    "table": ("print the built-in case tables", (), None),
    "batch": (
        "compute every spec in a directory",
        ("--basis-cap", "--enum-cap"),
        ("directory", "directory of spec JSON documents"),
    ),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def read_argv(argv: Sequence[str]) -> dict | None:
    """The arguments of a plainly spelt command line, as the argparse parser reads them.

    Reads exact option names, `--cap N` or `--cap=N` with N at most 18 plain
    ASCII digits and at least 1, and one positional argument that does not
    start with '-'.  Returns None for anything else (help, abbreviations, '--',
    other spellings of a number, every error): argparse handles those.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    _, caps, positional = COMMANDS[command]
    args: dict = {"command": command}
    args.update((_dest(flag), False) for flag in FORMATS)
    args.update((_dest(cap), CAPS[cap][0]) for cap in caps)
    rest = iter(argv[1:])
    for arg in rest:
        if arg in FORMATS:
            args[_dest(arg)] = True
        elif not arg.startswith("-"):
            if positional is None or positional[0] in args:
                return None
            args[positional[0]] = arg
        else:
            option, eq, value = arg.partition("=")
            if option not in caps:
                return None
            if not eq:
                value = next(rest, "")
            # 18 digits stay below int()'s limit on the length of a decimal string
            if not (value.isascii() and value.isdigit() and len(value) <= 18) or int(value) < 1:
                return None
            args[_dest(option)] = int(value)
    if args["json"] and args["text"]:
        return None
    if positional is not None and positional[0] not in args:
        return None
    return args


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parsed = read_argv(argv)
    if parsed is None:
        from .usage import build_parser

        parsed = vars(build_parser(COMMANDS, FORMATS, CAPS).parse_args(argv))
    args = SimpleNamespace(**parsed)
    handlers = {
        "compute": cmd_compute,
        "certify": cmd_certify,
        "table": cmd_table,
        "batch": cmd_batch,
    }
    try:
        return handlers[args.command](args)
    except OSError as exc:  # BrokenPipeError among them
        return _write_failed(exc)


def run() -> NoReturn:
    """The `edcalc` process: runs `main`, flushes the report and ends the process.

    The process ends by `os._exit`, skipping interpreter teardown.  An exception
    or `SystemExit` from `main` (help and usage errors) leaves the normal way.
    Exact values are printed whatever their length: the limit on int-to-str
    conversion is lifted for this process only.
    """
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:
        code = _write_failed(exc)
    os._exit(code)


def _write_failed(exc: OSError) -> int:
    """The exit code for a report or an error line that stdout or stderr did not take.

    What stdout still buffers goes to devnull, so a later flush stays quiet.  A
    closed pipe is silent; any other failure gets one line on stderr, if stderr takes it.
    """
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if isinstance(exc, BrokenPipeError):  # the reader left early, as under `| head -1`
        return EXIT_PIPE
    try:
        print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass
    return EXIT_IOERR


def __getattr__(name: str) -> object:
    # the ledger's tables, read here by bench/make_refs.py; importing cli loads no ledger
    if name in ("SMALL_PRODUCTS", "KNOWN_CASE_ROWS", "BUILTIN_CERTIFICATE_ROWS"):
        from . import ledger

        return getattr(ledger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _read_json(path: str | Path) -> object:
    """The document in a JSON file; raises OSError, or ValueError when it is not UTF-8 JSON."""
    import json

    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _emit(args: SimpleNamespace, doc: dict, text: str) -> None:
    if args.json:
        import json

        text = json.dumps(doc, indent=2)
    # flush here, so that a closed pipe shows up while main can still catch it
    print(text, flush=True)


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
    from .core import STATUS_EXACT

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
    from .core import STATUS_EXACT, compute_ed
    from .spec import EmptySpecError, NotReducedError, SpecFormatError, spec_from_doc

    try:
        doc = _read_json(path)
    except (OSError, ValueError) as exc:
        return EXIT_PARSE, None, f"cannot parse {path}: {exc}"
    try:
        spec = spec_from_doc(doc)
    except SpecFormatError as exc:
        return EXIT_PARSE, None, f"{path}: {exc}"
    except ValueError as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    try:
        result = compute_ed(spec, basis_cap=basis_cap, dim_cap=enum_cap.bit_length() - 1)
    except (EmptySpecError, NotReducedError) as exc:
        return EXIT_VALIDATION, None, f"{path}: {exc}"
    partial = result.warnings and result.status != STATUS_EXACT
    return (EXIT_CAP if partial else EXIT_OK), result, None


def cmd_compute(args: SimpleNamespace) -> int:
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


def cmd_certify(args: SimpleNamespace) -> int:
    from .extraspecial import builtin_certificate, certificate_from_doc, verify_certificate
    from .gf2 import EnumerationTooLargeError
    from .spec import SpecFormatError

    target = args.certificate
    if target.startswith("builtin:"):
        try:
            cert = builtin_certificate(target[len("builtin:") :])
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        try:
            doc = _read_json(target)
        except (OSError, ValueError) as exc:
            print(f"error: cannot parse {target}: {exc}", file=sys.stderr)
            return EXIT_PARSE
        try:
            cert = certificate_from_doc(doc)
        except SpecFormatError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PARSE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        report = verify_certificate(cert, closure_cap=args.enum_cap)
    except ValueError as exc:  # EmptySpecError and NotReducedError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except EnumerationTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    _emit(args, report_to_doc(report), render_cert_text(report))
    return EXIT_OK if report.lower_bound is not None else EXIT_CERT


def cmd_table(args: SimpleNamespace) -> int:
    from .ledger import BUILTIN_CERTIFICATE_ROWS, KNOWN_CASE_ROWS, SMALL_PRODUCTS

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


def cmd_batch(args: SimpleNamespace) -> int:
    from pathlib import Path

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
    run()
