"""Serve a list of `spindim` requests in one process.

    python3 worker.py [--trace] < requests.json

stdin holds a JSON list of argv lists.  Each is passed to
`spindim.cli.run` in turn and timed.  stdout gets one JSON object with
the import time, each request's (exit code, stdout, stderr, start, end),
the last two as perf_counter readings, and with --trace the per-layer
summary from `tracer.Tracer`.  `spindim` must be importable (the
benchmark sets PYTHONPATH to the source tree).
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> None:
    trace = sys.argv[1:] == ["--trace"]
    if sys.argv[1:] not in ([], ["--trace"]):
        raise SystemExit("usage: worker.py [--trace] < requests.json")
    t0 = time.perf_counter()
    import spindim.cli as cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    requests = json.load(sys.stdin)

    results = []
    for argv in requests:
        t = time.perf_counter()
        try:
            code, out, err = cli.run(argv)
        except Exception:      # a crash is a failed request, as in a process
            code, out, err = 1, "", traceback.format_exc()
        results.append([code, out, err, t, time.perf_counter()])

    report = {"import_s": import_s, "results": results}
    if tracer is not None:
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        summary["cli.usage_errors"] = sum(r[0] == 2 for r in results)
        report["trace"] = summary
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
