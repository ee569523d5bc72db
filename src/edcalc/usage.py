"""The argparse parser of the command line, for help and usage errors.

`cli` reads a plainly spelt command line itself and imports this module only
for anything else.  It passes its declared tables in: under `python -m
edcalc.cli` the running module is `__main__`, so importing from `cli` here
would compile it a second time.
"""

from __future__ import annotations

import argparse

DESCRIPTION = (
    "Exact essential-dimension calculator for quotients of products"
    " of odd spin groups, with certificate verification."
)


def cap_value(text: str) -> int:
    """argparse type of --basis-cap and --enum-cap: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser(commands: dict, formats: dict, caps: dict) -> argparse.ArgumentParser:
    """The parser of `cli`'s COMMANDS, each with the FORMATS flags and its CAPS options."""
    parser = argparse.ArgumentParser(prog="edcalc", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, command_caps, positional) in commands.items():
        p = sub.add_parser(command, help=help_text)
        group = p.add_mutually_exclusive_group()
        for flag, flag_help in formats.items():
            group.add_argument(flag, action="store_true", help=flag_help)
        for cap in command_caps:
            default, cap_help = caps[cap]
            p.add_argument(cap, type=cap_value, default=default, help=cap_help)
        if positional is not None:
            name, name_help = positional
            p.add_argument(name, help=name_help)
    return parser
