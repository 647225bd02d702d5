"""Host-speed calibration: a fixed pure-Python probe timed between ops.

The benchmark runs on vCPUs shared with other machines, whose speed
drifts by up to a factor of two, within seconds and over minutes.  The
drift slows the probe and the library alike.  So a run cuts its timed
phase into windows of at least PROBE_EVERY_S seconds of ops (a window
ends with the op that crosses that time), times the probe between
windows, once per PROBE_EVERY_S of the window before (at most
MAX_PROBES times), and scales every time taken in a window by
REF_PROBE_MS over the mean probe time around it: each reported time is
the time the run would have taken on a host where the probe takes
REF_PROBE_MS.  The probes cost about 4% of the run.  The probe never
touches the library, so a change to the program moves the scaled times
by the same share as the raw ones.
"""

from __future__ import annotations

import statistics
import time

REF_PROBE_MS = 2.0
PROBE_EVERY_S = 0.05
MAX_PROBES = 20


def probe() -> float:
    """Seconds taken by a fixed mix of dict, tuple, str and int work."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(3000):
        key = (i & 127, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += len(str(i))
    sorted(table.items())
    return time.perf_counter() - t0


def probes(count: int):
    return [probe() for _ in range(count)]


def scale_of(probe_s: float) -> float:
    """Factor turning a raw time into a reference time at a probe time."""
    return REF_PROBE_MS / (probe_s * 1e3)


class HostClock:
    """Windows of op time of one process, with probes before and after
    each.  ``window`` is the index of the window open now; ``scaled_s``
    is the reference time of the closed windows."""

    def __init__(self):
        self.probes = [[probe()]]
        self.walls = []
        self.scales = []
        self.scaled_s = 0.0
        self.opened = time.perf_counter()
        self.due = self.opened + PROBE_EVERY_S

    @property
    def window(self) -> int:
        return len(self.walls)

    def _close(self, now: float) -> None:
        wall = now - self.opened
        count = max(1, min(MAX_PROBES, round(wall / PROBE_EVERY_S)))
        self.walls.append(wall)
        self.probes.append(probes(count))
        self.scales.append(scale_of(statistics.mean(self.probes[-2] + self.probes[-1])))
        self.scaled_s += self.walls[-1] * self.scales[-1]
        self.opened = time.perf_counter()
        self.due = self.opened + PROBE_EVERY_S

    def tick(self) -> None:
        """Call after each op: closes the window once it is due."""
        now = time.perf_counter()
        if now >= self.due:
            self._close(now)

    def finish(self) -> None:
        now = time.perf_counter()
        if now > self.opened:
            self._close(now)

    def raw_wall_s(self) -> float:
        return sum(self.walls)

    def probe_count(self) -> int:
        return sum(map(len, self.probes))

    def mean_probe_ms(self) -> float:
        return statistics.mean(t for taken in self.probes for t in taken) * 1e3
