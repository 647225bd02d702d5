"""One measured process: set up a workload, run its ops, check the answers.

Started by run.py in a fresh interpreter with a pinned environment:

    python3 perfbench/worker.py <mode> <workload> <spawn time>

with the op blocks as JSON on stdin.  Modes:

* ``setup``  - set up, report the set-up time, exit;
* ``timed``  - set up, run blocks until ``seconds`` of reference time (see
  hostclock.py) have passed, finishing the block in progress, check every
  answer; peak memory is read after ``rss_blocks`` blocks;
* ``fixed``  - set up, run every given block, check every answer;
* ``traced`` - as ``fixed``, with the layer wrappers of layers.py on.

Every mode times the host-speed probe of hostclock.py for a moment
before and after set-up (``setup_scale``), and the run modes time it
between windows of ops; the worker reports the timed phase both raw and
scaled to the reference host speed.

Prints one JSON object on stdout.  The spawn time is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so set-up time covers interpreter start and imports.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time


def _import_library(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import branchgroups

    found = os.path.realpath(os.path.dirname(branchgroups.__file__))
    if found != os.path.realpath(os.path.join(src, "branchgroups")):
        raise SystemExit(f"branchgroups imported from {found}, not from {src}")


# probes before and after set-up, about 50 ms each way
SETUP_PROBES = 25
# bounds the wall time of a timed run, so the runs of a sweep end in time
MAX_WALL_SHARE = 1.5


def peak_rss() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail_latency(latencies, percentile):
    """Nearest-rank percentile of the latencies and the samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def main() -> int:
    mode, workload_name, spawn = sys.argv[1], sys.argv[2], float(sys.argv[3])
    import hostclock

    # probes around set-up give its scale; their own time is not set-up
    before = hostclock.probes(SETUP_PROBES)
    spec = json.load(sys.stdin)
    here = os.path.dirname(os.path.abspath(__file__))
    _import_library(os.path.dirname(here))

    import numpy

    import layers
    import workloads

    tracer = ids = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        ids = layers.install(tracer)
        tracer.active = True

    wl = workloads.WORKLOADS[workload_name]()
    setup, run = wl.setup, wl.run
    if tracer is not None:
        # root spans: every layer span belongs to the set-up or to one op
        setup, run = tracer.wrap("setup", setup)[1], tracer.wrap("op", run)[1]
    setup()
    setup_s = time.monotonic() - spawn - sum(before)
    setup_scale = hostclock.scale_of(statistics.mean(before + hostclock.probes(SETUP_PROBES)))
    out = {"setup_s": setup_s, "setup_scale": setup_scale, "numpy": numpy.__version__}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    # the run ends at the first block boundary after ``seconds`` of reference
    # time, so a slow host does the same ops as a fast one; on a very slow
    # host it ends after MAX_WALL_SHARE * ``seconds`` of wall time instead
    seconds = spec["seconds"] if mode == "timed" else math.inf
    rss_blocks = spec.get("rss_blocks", math.inf)
    done = []
    latencies = []
    windows = []
    peak_rss_mb = None
    clock = hostclock.HostClock()
    for count, block in enumerate(spec["blocks"], start=1):
        for op in block:
            t0 = time.perf_counter()
            try:
                answer = run(op)
                error = None
            except Exception as exc:  # counted in failed_frac, never fatal
                answer, error = None, f"{type(exc).__name__}: {exc}"[:200]
            latencies.append(time.perf_counter() - t0)
            windows.append(clock.window)
            done.append((op, None if error else wl.keep(op, answer), error))
            clock.tick()
        if count == rss_blocks:
            peak_rss_mb = peak_rss()
        if clock.scaled_s >= seconds or clock.raw_wall_s() >= MAX_WALL_SHARE * seconds:
            break
    clock.finish()
    if tracer is not None:
        tracer.active = False
    rss_after_blocks = min(count, rss_blocks)
    if peak_rss_mb is None:
        peak_rss_mb = peak_rss()
    snap = layers.snapshot(wl.held_groups())

    results = {}
    for op, answer, error in done:
        key = workloads.result_key(op)
        if key is not None and error is None:
            results[key] = answer
    checks_started = time.perf_counter()
    wl.prepare_checks()
    failures = []
    unknown = 0
    for position, (op, answer, error) in enumerate(done):
        problem = error
        if problem is None:
            try:
                problem = wl.check(op, answer, results, position)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"[:200]
        if problem is not None:
            failures.append(f"{op[:3]}: {problem}")
        elif wl.unknown(op, answer):
            unknown += 1

    check_s = time.perf_counter() - checks_started
    scaled = [t * clock.scales[w] for t, w in zip(latencies, windows)]
    times = {}
    for name, wall, lats in (("raw", clock.raw_wall_s(), latencies),
                             ("scaled", clock.scaled_s, scaled)):
        tail, beyond = tail_latency(lats, wl.tail_percentile)
        times[name] = {"wall_s": wall, "op_p50_ms": statistics.median(lats) * 1e3,
                       "op_tail_ms": tail * 1e3}
    out.update({
        "ops": len(done),
        **times,
        "tail_percentile": wl.tail_percentile,
        "samples_beyond_tail": beyond,
        "failed": len(failures),
        "unknown": unknown,
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb,
        "rss_after_blocks": rss_after_blocks,
        "snapshot": snap,
        "check_s": check_s,
        "host_probe_ms": clock.mean_probe_ms(),
        "probes": clock.probe_count(),
    })
    if tracer is not None:
        out["per_layer"] = layers.per_layer_metrics(tracer, ids, snap)
        out["spans_kept"] = len(tracer.span_name)
        out["spans_dropped"] = tracer.dropped
        tracer.write(spec["trace_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
