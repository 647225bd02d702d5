"""Wall-clock bounds that hold on a slow host.

A timed check takes `slowdown()` just before its timed call and divides
the time it measures by it: the median of five `perfbench/hostclock.probe()`
calls over the probe's time on the host the bounds were set on, and never
less than 1.  A host at or above that speed keeps the raw bound; the bound
values themselves do not change.
"""

import importlib.util
import pathlib
import statistics

# the probe's time on the host the bounds were set on (2 vCPUs, Python 3.11)
REFERENCE_PROBE_S = 0.62e-3

_spec = importlib.util.spec_from_file_location(
    "hostclock", pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "hostclock.py")
hostclock = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(hostclock)


def slowdown() -> float:
    """How many times slower than the reference host this host runs now."""
    return max(1.0, statistics.median(hostclock.probe() for _ in range(5)) / REFERENCE_PROBE_S)
