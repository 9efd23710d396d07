"""One measured round in a fresh interpreter: import flowmesh's CLI, then make
the round's workflow calls through ``flowmesh.cli.main`` one at a time.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_JSON ROUND TRACED

A fresh process per round gives every call the state a command-line user
sees, and makes each process's peak RSS the peak of one round.  With TRACED
set to 1 the layers are traced (see spans.py).
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, layer_metrics  # noqa: E402


def main() -> int:
    spec_path, result_path, index, traced = sys.argv[1:5]
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)

    start = time.perf_counter()
    import flowmesh.cli

    import_s = time.perf_counter() - start
    tracer = Tracer() if traced == "1" else None
    calls = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for template in spec["round_argv"]:
            argv = [arg.replace("{round}", index) for arg in template]
            start = time.perf_counter()
            root = tracer.open("cli.main") if tracer else None
            try:
                code = flowmesh.cli.main(argv)
            except SystemExit as exc:  # argparse refusing the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a lost run
                traceback.print_exc()
                code = -1
            finally:
                if tracer:
                    tracer.close(root)
            calls.append({"wall_s": time.perf_counter() - start, "exit": code})

    result = {
        "flowmesh_file": flowmesh.cli.__file__,
        "import_s": import_s,
        "calls": calls,
        "traced": tracer is not None,
        "layers": layer_metrics(tracer) if tracer else None,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
