"""Run one ``crbmkit`` CLI call with spans recorded, for the traced CLI run.

    python3 perfbench/cli_child.py DUMP.json <crbmkit arguments...>

Times ``import crbmkit.cli``, wraps the layer bindings, runs ``main(argv)``
as the ``crbmkit`` console script would, writes the import and run times,
the code-solver cache misses and the spans to DUMP.json, and exits with the
CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

from spans import Tracer, code_cache_misses


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import crbmkit.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        run_s = time.perf_counter() - t0
        tracer.uninstall()
        with open(dump, "w") as fh:
            json.dump({"import_s": import_s, "run_s": run_s,
                       "code_misses": code_cache_misses(),
                       "spans": [asdict(s) for s in tracer.spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
