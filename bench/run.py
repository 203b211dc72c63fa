"""Benchmark of the `spindim` command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the directory holding `src/spindim`
and `BENCHMARK.json`); only the standard library is needed.  One client,
closed loop: the benchmark plus at most one `spindim` process run at a
time.  Workloads (see `workloads.py` for the inputs):

  lattice-cold   one cold process per request: verify-lattice --r-max 14,
                 the full ed-table in JSON, and verify-heisenberg for every
                 rank up to 6 and 30 times at rank 10.  abelian, spinlat,
                 repdim and edcalc do the work; qform2 is never called.
  forms-warm     one process serves a 400-request stream through
                 `spindim.cli.run`: qform ops over F_{2^k} (normalize sets
                 the tail), symbol normalization and the spin-group
                 invariants.  The lattice layer is bypassed.
  oneshot-cold   one cold process per cheap request, every subcommand.
                 Interpreter start, import and lazy set-up dominate, so
                 work moved to import time shows here.

A run repeats the workload's request list ("a pass"), at least twice,
until the end of the pass nearest to --seconds, checks every output
against `checks.py`, prints a summary with the machine context and
sample counts, and ends with one JSON line holding the end-to-end
metrics (--trace 0) or the per-layer metrics from spans recorded around
each module's public functions (--trace 1).  A traced run alternates
untraced and traced passes so that it can report the tracing overhead.

End-to-end metrics: setup_s, spawn until `spindim.cli` is imported
(median over samples taken between passes); wall_s, the median over
passes of the time spent serving the request list (for cold workloads
each process's whole lifetime); latency_p50_ms and latency_tail_ms over
every request of every pass; peak_rss_mb, the largest serving process.
The failure ratio is `failed / attempted` in the result line.

Times are scaled to a reference speed.  On a shared host the speed the
benchmark gets drifts by a third and more, over seconds to minutes, so
raw times of the same code differ from run to run by more than the
changes the benchmark is meant to show.  The benchmark and every child
it starts are pinned to one CPU, and a thread of the benchmark times a
fixed pure-Python loop (`reference_loop`) every SAMPLE_GAP seconds on
that CPU for the whole run.  Each measured interval is then integrated
against the loop's smoothed speed: an interval reads as the seconds it
would have taken had the loop run at its nominal REF_SECONDS throughout.
The program's own cost still shows in full; only the host's speed
swings are divided out.  This holds while nothing outside the benchmark
runs on its CPU.  The summary lines print unscaled figures too.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_PASSES = 2                 # with --trace 1: one untraced, one traced
SETUP_PER_PASS = 5
CLI_MAIN = "from spindim.cli import main; main()"
SETUP_PROBE = ("import sys, spindim.cli; sys.stdout.write('ready\\n'); "
               "sys.stdout.flush(); sys.stdin.read()")
# Tail percentiles tried from the highest down; the first with at least
# ten samples beyond it is reported.  The cap per workload keeps the
# percentile fixed when a faster program fits more passes into a run;
# below it, each workload's request list puts many requests of one cost.
TAIL_GRID = (99, 95, 90, 75, 50)
TAIL_CAP = {"lattice-cold": 75, "forms-warm": 95, "oneshot-cold": 90}
# Reference loop: iterations, nominal duration (about its median on a
# 2-core Xeon VM), pause between samples, and the samples on each side
# that a sample's rolling median takes in.
REF_LOOPS = 8000
REF_SECONDS = 0.75e-3
SAMPLE_GAP = 0.05
SMOOTH = 5


# ---------------------------------------------------------------------------
# reference speed


def reference_loop() -> int:
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return total


def pin_to_one_cpu() -> int | None:
    """Pin this process, and so every child it starts, to one CPU: the
    reference loop then runs where the program runs."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Speedometer:
    """Times `reference_loop` every SAMPLE_GAP seconds in a thread, from
    `start()` to `stop()`, and scales intervals of that time to the
    loop's nominal speed."""

    def __init__(self):
        self.samples = []          # (midpoint, seconds the loop took)
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._times = self._refs = None

    def _run(self):
        while True:
            t0 = time.perf_counter()
            reference_loop()
            t1 = time.perf_counter()
            self.samples.append(((t0 + t1) / 2, t1 - t0))
            if self._halt.wait(SAMPLE_GAP):
                return

    def start(self):
        self._thread.start()

    def stop(self):
        self._halt.set()
        self._thread.join()
        self.smooth()

    def smooth(self):
        """Take each sample's rolling median, so that a sample cut into by
        a context switch does not count."""
        refs = [secs for _, secs in self.samples]
        self._times = [t for t, _ in self.samples]
        self._refs = [statistics.median(refs[max(0, i - SMOOTH):i + SMOOTH + 1])
                      for i in range(len(refs))]

    def scaled(self, start: float, end: float) -> float:
        """Seconds from `start` to `end` (perf_counter readings) at the
        nominal speed: each stretch of the interval is weighted by
        REF_SECONDS over the smoothed loop time of the nearest sample."""
        times, refs = self._times, self._refs
        k = bisect.bisect_left(times, start)
        if k == len(times) or (k > 0 and start - times[k - 1] <= times[k] - start):
            k -= 1
        total, t = 0.0, start
        while t < end:
            edge = ((times[k] + times[k + 1]) / 2 if k + 1 < len(times)
                    else end)
            stop = min(end, edge)
            total += (stop - t) * REF_SECONDS / refs[k]
            t, k = stop, k + 1
        return total

    def median_ref(self) -> float:
        return statistics.median(secs for _, secs in self.samples)


# ---------------------------------------------------------------------------
# processes


def spawn(cmd, env, stdin_data=None):
    """Run one child to completion: (exit code, stdout, stderr, (spawn,
    reap) as perf_counter readings, peak RSS in KiB)."""
    t0 = time.perf_counter()
    with subprocess.Popen(
            cmd, cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL if stdin_data is None else subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        if stdin_data is not None:
            try:
                proc.stdin.write(stdin_data)
                proc.stdin.close()
            except BrokenPipeError:     # the child died early; its exit code says why
                pass
        out = proc.stdout.read()
        reader.join()
        # wait4 rather than wait: it also returns the child's resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(), err[0].decode(),
            (t0, time.perf_counter()), usage.ru_maxrss)


def setup_once(env) -> tuple[float, float]:
    """(spawn, ready): from spawn until `spindim.cli` is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                          env=env, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdin.close()
    if line != b"ready\n" or proc.returncode != 0:
        raise RuntimeError("spindim.cli failed to import")
    return t0, ready


# A pass holds "results", one (argv, exit code, stdout, interval) per
# request, where the interval is a (start, end) pair of perf_counter
# readings until `scale_passes` turns it into scaled seconds.


def run_cold_pass(requests, env, traced):
    """One process per request; latency is the process lifetime."""
    results, trace, rss = [], {}, []
    for argv in requests:
        if traced:
            code, out, err, span, kb = spawn(
                [sys.executable, str(BENCH_DIR / "worker.py"), "--trace"],
                env, json.dumps([argv]).encode())
            if code != 0:
                raise RuntimeError(f"traced worker failed: {err}")
            report = json.loads(out)
            code, out, err, _, _ = report["results"][0]
            _merge(trace, report["trace"])
        else:
            code, out, err, span, kb = spawn(
                [sys.executable, "-c", CLI_MAIN] + argv, env)
        results.append((argv, code, out, span))
        rss.append(kb)
    return {"results": results, "rss_kb": max(rss), "trace": trace}


def run_warm_pass(requests, env, traced):
    """One process serves every request through spindim.cli.run."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py")]
    code, out, err, _, kb = spawn(cmd + (["--trace"] if traced else []),
                                  env, json.dumps(requests).encode())
    if code != 0:
        raise RuntimeError(f"worker failed: {err}")
    report = json.loads(out)
    # the worker's perf_counter readings share the benchmark's clock
    results = [(argv, c, o, (t0, t1))
               for argv, (c, o, _, t0, t1) in zip(requests, report["results"])]
    trace = {}
    if traced:
        _merge(trace, report["trace"])
    return {"results": results, "rss_kb": kb, "trace": trace}


def _merge(acc, summary):
    """Add one process's trace summary into a pass total; import times
    are kept as a list, one per process."""
    for key, value in summary.items():
        if key == "cli.import_s":
            acc.setdefault(key, []).append(value)
        else:
            acc[key] = acc.get(key, 0) + value


# ---------------------------------------------------------------------------
# metrics


def scale_passes(passes, speedo):
    """Replace each request's interval with its scaled seconds, and keep
    the unscaled pass time as "raw_s"."""
    for p in passes:
        p["raw_s"] = sum(t1 - t0 for *_, (t0, t1) in p["results"])
        p["results"] = [(argv, code, out, speedo.scaled(t0, t1))
                        for argv, code, out, (t0, t1) in p["results"]]


def tally(passes):
    """(attempted, failed, distinct failure reasons) over every request
    of every pass.  Passes repeat the same requests, so each distinct
    (argv, exit code, stdout) is checked once."""
    verdicts = {}
    attempted = failed = 0
    for p in passes:
        for argv, code, out, _ in p["results"]:
            key = (tuple(argv), code, out)
            if key not in verdicts:
                verdicts[key] = checks.check(argv, code, out)
            attempted += 1
            failed += verdicts[key] is not None
    return attempted, failed, sorted({v for v in verdicts.values() if v})


def pass_seconds(p) -> float:
    """Time one pass spent serving its requests."""
    return sum(secs for *_, secs in p["results"])


def tail(latencies, cap):
    """(percentile, value): the highest of TAIL_GRID, up to `cap`, with at
    least ten samples beyond it, by nearest rank."""
    data = sorted(latencies)
    n = len(data)
    for p in TAIL_GRID:
        rank = -(-p * n // 100)          # ceil(p/100 * n), 1-based
        if p <= cap and n - rank >= 10:
            return p, data[rank - 1]
    return None, None


def end_to_end(workload, passes, setup, raw_setup):
    lat = [secs * 1e3 for p in passes for *_, secs in p["results"]]
    pct, tail_ms = tail(lat, TAIL_CAP[workload])
    if pct is None:
        raise RuntimeError(f"only {len(lat)} requests: too few for a tail")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(pass_seconds(p) for p in passes),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups spread over the run; "
                   f"{statistics.median(raw_setup):.4g} s unscaled",
        "wall_s": f"median of {len(passes)} passes; "
                  f"{statistics.median(p['raw_s'] for p in passes):.4g} s unscaled",
        "latency_p50_ms": f"n={len(lat)}",
        "latency_tail_ms": f"p{pct}, n={len(lat)}",
        "peak_rss_mb": f"median of {len(passes)} passes' largest process",
    }
    return values, notes


def per_layer(traced, untraced):
    """Median over traced passes of each layer figure, plus the tracing
    overhead: traced minus untraced median pass time."""
    per_pass = []
    for p in traced:
        t = dict(p["trace"])
        hits = t.get("spinlat.build_char_data.hits", 0)
        misses = t.get("spinlat.build_char_data.misses", 0)
        t["spinlat.build_char_data.hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        t["cli.import_s"] = statistics.median(t["cli.import_s"])
        per_pass.append(t)
    keys = set().union(*per_pass)
    values = {k: statistics.median(t.get(k, 0) for t in per_pass) for k in keys}
    values["bench.trace_overhead_s"] = (
        statistics.median(pass_seconds(p) for p in traced)
        - statistics.median(pass_seconds(p) for p in untraced))
    notes = {k: f"median of {len(traced)} traced passes" for k in values}
    return values, notes


def context(cpu, speedo) -> dict:
    """Where the numbers come from, so results of different machines or
    sources are not compared."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spindim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() if got.returncode == 0 else None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "src_sha256": digest.hexdigest(), "pinned_cpu": cpu,
            "reference_loop_ms": {"nominal": REF_SECONDS * 1e3,
                                  "median": speedo.median_ref() * 1e3,
                                  "samples": len(speedo.samples)}}


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "spindim" / "cli.py").is_file():
        print(f"no spindim source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    requests = workloads.generate(args.workload, args.seed)
    run_pass = run_warm_pass if args.workload == "forms-warm" else run_cold_pass

    cpu = pin_to_one_cpu()
    speedo = Speedometer()
    speedo.start()
    try:
        setup_once(env)             # untimed: leaves bytecode caches behind
        setup, passes = [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            began = time.perf_counter()
            passes.append(dict(run_pass(requests, env, traced), traced=traced))
            # set-up samples between passes spread them over the run
            setup += [setup_once(env) for _ in range(SETUP_PER_PASS)]
            now = time.perf_counter()
            # stop here if another pass would end further from --seconds
            if (now - start + (now - began) / 2 >= args.seconds
                    and len(passes) >= MIN_PASSES):
                break
    finally:
        speedo.stop()
    scale_passes(passes, speedo)
    raw_setup = [t1 - t0 for t0, t1 in setup]
    setup = [speedo.scaled(t0, t1) for t0, t1 in setup]

    attempted, failed, reasons = tally(passes)
    untraced = [p for p in passes if not p["traced"]]
    if args.trace:
        values, notes = per_layer([p for p in passes if p["traced"]], untraced)
    else:
        values, notes = end_to_end(args.workload, untraced, setup, raw_setup)

    print("context " + json.dumps(context(cpu, speedo), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{len(requests)} requests each; fail_ratio {failed}/{attempted} = "
          f"{failed / attempted:g}")
    for reason in reasons:
        print(f"failure: {reason}")
    metrics = {}
    for m in wanted:
        # a per-layer counter that never fired reads 0; an end-to-end
        # metric is always computed
        value = values.get(m["name"], 0) if args.trace else values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']} "
              f"({notes.get(m['name'], 'never recorded')})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
