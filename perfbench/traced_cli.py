"""Run the polyorbit command line with the benchmark's span tracer installed.

Usage: python perfbench/traced_cli.py <subcommand> [args...]

Behaves like `python -m polyorbit`; in addition it writes its import time,
per-layer totals and spans as JSON to the path in PERFBENCH_TOTALS.
PYTHONPATH must point at the package's source directory.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import polyorbit.cli
    import_s = time.perf_counter() - t0

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = polyorbit.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TOTALS"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "totals": tracer.totals(),
                   "spans": list(tracer.span_rows())}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
