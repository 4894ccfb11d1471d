"""Benchmark worker: one fresh process runs one request list in-process.

Usage: ``python3 worker.py SRC_DIR TRACE SPANS_PATH``. The worker imports
``macops`` from SRC_DIR, prints ``ready``, reads one JSON list of argument
vectors from stdin, sends each through ``macops.cli.main`` with stdout and
stderr captured, and prints one JSON document: per-request latency, exit
code, exception and stdout; the list's wall time; ``ru_maxrss``; and,
with TRACE = 1, the per-layer metrics (spans are written to SPANS_PATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def main() -> int:
    src, traced, spans_path = sys.argv[1], sys.argv[2] == "1", sys.argv[3]
    sys.path.insert(0, src)
    import macops.cli

    if not os.path.abspath(macops.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"macops imported from {macops.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    proto = sys.stdout
    print("ready", file=proto, flush=True)
    requests = json.loads(sys.stdin.readline())

    tracer = None
    if traced:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    cli = macops.cli
    results = []
    wall_start = perf_counter()
    for argv in requests:
        out, err = io.StringIO(), io.StringIO()
        exc = None
        rc = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception as e:  # a request that raises is a failed request
            exc = f"{type(e).__name__}: {e}"
        results.append((perf_counter() - start, rc, exc, out.getvalue()))
    wall = perf_counter() - wall_start

    doc = {
        "wall_s": wall,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "requests": [
            {"latency_s": lat, "rc": rc, "exc": exc, "stdout": text}
            for lat, rc, exc, text in results
        ],
    }
    if tracer is not None:
        doc["layers"] = layertrace.layer_metrics(tracer.spans)
        doc["spans"] = len(tracer.spans)
        if spans_path:
            tracer.write(spans_path)
    json.dump(doc, proto)
    proto.write("\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
