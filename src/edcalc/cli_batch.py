"""The `batch` command: `compute` on every spec document of a directory, in name order."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .caps import EXIT_OK, EXIT_PARSE
from .cli_compute import compute_file, render_result_text, result_to_doc

if TYPE_CHECKING:
    from types import SimpleNamespace


def answer(args: SimpleNamespace) -> tuple[int, dict | None, str]:
    """The exit code, the JSON document and the text report of `edcalc batch`,
    or the exit code, None and the error; the code is the first nonzero of a file."""
    directory = Path(args.directory)
    if not directory.is_dir():
        return EXIT_PARSE, None, f"{directory} is not a directory"
    overall = EXIT_OK
    entries = []
    blocks = []
    for path in sorted(directory.glob("*.json")):
        code, result, error = compute_file(path, args.enum_cap)
        if overall == EXIT_OK and code != EXIT_OK:
            overall = code
        if error is not None:
            entries.append({"file": path.name, "exit_code": code, "error": error})
            blocks.append(f"== {path.name} ==\nerror: {error}")
        else:
            assert result is not None
            entries.append({"file": path.name, "exit_code": code, "report": result_to_doc(result)})
            blocks.append(f"== {path.name} ==\n{render_result_text(result)}")
    return overall, {"results": entries}, "\n".join(blocks)
