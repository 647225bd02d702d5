"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/``.
This process never imports the library: it makes the seeded inputs and
starts fresh interpreters (worker.py) with a pinned environment.

``--trace 0`` prints the end-to-end metrics.  Set-up time is the median
over SETUP_SAMPLES fresh processes; the other metrics come from one
closed-loop timed process (one client, one thread, the next op sent as
soon as the previous one returns).  Every time is scaled to a reference
host speed by the probe of hostclock.py; the raw times are on the
report line.

``--trace 1`` runs a fixed number of blocks twice, in two fresh
processes: once plain and once with every layer wrapped, and prints the
per-layer metrics plus the tracing overhead (traced wall time over plain
wall time, minus one, both scaled).  The spans are written to .bench_out/.

The second-to-last line of output is a report (environment, failure and
Unknown shares, raw times, cache snapshot); the last line is the result
object.
The exit code is 1 when an answer check failed, 2 on bad usage or a
missing library, 3 when a worker process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170
PINNED_ENV = {
    # solve() pops from a set of words, so hash order changes its work
    "PYTHONHASHSEED": "0",
    # set-up always compiles the library from source, as in a fresh checkout
    "PYTHONDONTWRITEBYTECODE": "1",
    # eigvalsh must not compete with the load generator for the 2 cores
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "exact_frac": "ratio",
}


class WorkerFailed(RuntimeError):
    pass


def run_worker(mode, workload, spec, deadline):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(PINNED_ENV)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, workload, repr(spawn)],
            input=json.dumps(spec), capture_output=True, text=True, env=env,
            cwd=str(ROOT), timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker exceeded the run's time limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerFailed(f"{mode} worker printed no result: {proc.stdout[-500:]!r}")


def src_line_count() -> int:
    total = 0
    for path in sorted((ROOT / "src" / "branchgroups").glob("*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def environment(seed: int, numpy_version: str):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_lines": src_line_count(),
        **PINNED_ENV,
    }


def end_to_end(workload, seed, seconds, deadline):
    blocks = inputs.make_blocks(workload, seed, inputs.MAX_BLOCKS[workload])
    setup_runs = [run_worker("setup", workload, {"blocks": []}, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
    spec = {"blocks": blocks, "seconds": seconds, "rss_blocks": inputs.RSS_BLOCKS[workload]}
    main = run_worker("timed", workload, spec, deadline)
    setup_runs.append(main)
    ops = main["ops"]
    scaled = main["scaled"]
    values = {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setup_runs),
        "ops_per_s": ops / scaled["wall_s"],
        "op_p50_ms": scaled["op_p50_ms"],
        "op_tail_ms": scaled["op_tail_ms"],
        "peak_rss_mb": main["peak_rss_mb"],
        "exact_frac": (ops - main["failed"] - main["unknown"]) / ops,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    report = {
        "raw": main["raw"],
        "setup_scales": [r["setup_scale"] for r in setup_runs],
        "setup_samples_s": [r["setup_s"] for r in setup_runs],
        "failed_frac": {"value": main["failed"] / ops, "unit": "ratio"},
        "unknown_frac": {"value": main["unknown"] / ops, "unit": "ratio"},
        "tail_percentile": main["tail_percentile"],
        "samples_beyond_tail": main["samples_beyond_tail"],
        "check_s": main["check_s"],
        "rss_after_blocks": main["rss_after_blocks"],
        "host_probe_ms": main["host_probe_ms"],
        "probes": main["probes"],
    }
    return main, metrics, report


def traced(workload, seed, deadline):
    blocks = inputs.make_blocks(workload, seed, inputs.TRACE_BLOCKS[workload])
    plain = run_worker("fixed", workload, {"blocks": blocks}, deadline)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace_{workload}_seed{seed}.json.gz"
    spec = {"blocks": blocks, "trace_path": str(trace_path)}
    main = run_worker("traced", workload, spec, deadline)
    # both processes ran and checked the same ops
    main["failed"] = max(main["failed"], plain["failed"])
    main["failures"] += plain["failures"]
    metrics = dict(main["per_layer"])
    # both walls scaled to the reference host speed, so drift between the
    # two processes does not show as overhead
    overhead = main["scaled"]["wall_s"] / plain["scaled"]["wall_s"] - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    report = {
        "plain_wall_s": plain["raw"]["wall_s"],
        "traced_wall_s": main["raw"]["wall_s"],
        "plain_scaled_wall_s": plain["scaled"]["wall_s"],
        "traced_scaled_wall_s": main["scaled"]["wall_s"],
        "plain_snapshot": plain["snapshot"],
        "spans_kept": main["spans_kept"],
        "spans_dropped": main["spans_dropped"],
        "spans_file": str(trace_path.relative_to(ROOT)),
    }
    return main, metrics, report


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "branchgroups" / "__init__.py").is_file():
        print(f"no library under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2

    deadline = started + RUN_LIMIT_S
    try:
        if args.trace:
            main_out, metrics, report = traced(args.workload, args.seed, deadline)
        else:
            main_out, metrics, report = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    report.update({
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed, main_out["numpy"]),
        "ops": main_out["ops"],
        "failures": main_out["failures"],
        "snapshot": main_out["snapshot"],
    })
    print(json.dumps({"report": report}))
    correct = main_out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": main_out["ops"],
        "failed": main_out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
