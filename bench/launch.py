"""Run one edcalc command with layer tracing: python3 bench/launch.py STATS_PATH ARGS...

Installs the tracer's wrappers, calls ``edcalc.cli.main(ARGS)`` and writes the
span totals, plus the time ``import edcalc.cli`` took, to STATS_PATH.  The
traced cli workload runs every op through this launcher.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

from tracer import Tracer


def main() -> int | str | None:
    stats_path, args = sys.argv[1], sys.argv[2:]
    t0 = perf_counter_ns()
    import edcalc.cli

    import_ns = perf_counter_ns() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = edcalc.cli.main(args)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump({**tracer.dump(), "import_ns": import_ns}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
