"""Command-line interface: compute, certify, table, batch.

Each command runs in its own module, `cli_<command>`, which imports the
modules that command runs, so `table` loads only the ledger and `certify`
never loads the essential-dimension search; this module holds what every
command shares.  A plainly spelt command line is read by `read_argv`; anything
else, the cap option, help and every usage error included, goes to the
argparse parser of `usage`, which is imported only then.  Both read one
declared table: COMMANDS, FORMATS and CAPS.

`main` returns the exit code and is what library callers and tests call.  `run`
is the process entry point: it ends the process with `os._exit` as soon as the
report is flushed, so the interpreter frees none of its modules and objects.
Under `python -m edcalc.cli` this module runs as `__main__`, and importing it
would compile it a second time, so no other module does: `main` passes the
parser its tables, and writes the report that a command module's `answer`
returns.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import NoReturn, Sequence

from .caps import DEFAULT_ENUM_CAP, EXIT_IOERR, EXIT_PIPE

# output flags, mutually exclusive, that every command takes
FORMATS = {"--json": "emit a JSON report", "--text": "emit a text report (default)"}

# cap option: (default, help)
CAPS = {
    "--enum-cap": (
        DEFAULT_ENUM_CAP,
        "largest enumeration: nonzero patterns of a dual block, bases searched,"
        " or closure elements (default 2^24)",
    ),
}

# command: (help, the caps it takes, its positional argument and that argument's help)
COMMANDS = {
    "compute": (
        "compute the essential dimension",
        ("--enum-cap",),
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
        ("--enum-cap",),
        ("directory", "directory of spec JSON documents"),
    ),
}


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def read_argv(argv: Sequence[str]) -> dict | None:
    """The arguments of a plainly spelt command line, as the argparse parser reads them.

    Reads exact format flags and one positional argument that does not start
    with '-'; the cap keeps its default.  Returns None for anything else (the
    cap option, help, abbreviations, '--', every error): argparse handles those.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    command = argv[0]
    _, caps, positional = COMMANDS[command]
    args: dict = {"command": command}
    args.update((_dest(flag), False) for flag in FORMATS)
    args.update((_dest(cap), CAPS[cap][0]) for cap in caps)
    for arg in argv[1:]:
        if arg in FORMATS:
            args[_dest(arg)] = True
        elif arg.startswith("-") or positional is None or positional[0] in args:
            return None
        else:
            args[positional[0]] = arg
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
    # each command's module imports the modules that command runs
    if args.command == "compute":
        from .cli_compute import answer
    elif args.command == "certify":
        from .cli_certify import answer
    elif args.command == "table":
        from .cli_table import answer
    else:
        from .cli_batch import answer
    try:
        code, doc, text = answer(args)
        if doc is None:
            print(f"error: {text}", file=sys.stderr)
        else:
            _emit(args, doc, text)
    except OSError as exc:  # BrokenPipeError among them
        return _write_failed(exc)
    return code


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
    os.dup2(devnull := os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    os.close(devnull)
    if isinstance(exc, BrokenPipeError):  # the reader left early, as under `| head -1`
        return EXIT_PIPE
    try:
        print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
    except OSError:
        pass
    return EXIT_IOERR


def _emit(args: SimpleNamespace, doc: dict, text: str) -> None:
    if args.json:
        import json

        text = json.dumps(doc, indent=2)
    # flush here, so that a closed pipe shows up while main can still catch it
    print(text, flush=True)


# names that bench/make_refs.py and bench/test_bench.py read from this module,
# by the module that holds them; importing cli loads none of them
_ELSEWHERE = {
    "SMALL_PRODUCTS": "ledger",
    "KNOWN_CASE_ROWS": "cli_table",
    "BUILTIN_CERTIFICATE_ROWS": "cli_table",
    "result_to_doc": "cli_compute",
    "render_result_text": "cli_compute",
    "report_to_doc": "cli_certify",
    "render_cert_text": "cli_certify",
}


def __getattr__(name: str) -> object:
    if name in _ELSEWHERE:
        from importlib import import_module

        return getattr(import_module(f".{_ELSEWHERE[name]}", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    run()
