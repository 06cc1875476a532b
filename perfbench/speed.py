"""Probes of the host's speed, and times adjusted to a fixed speed.

The host's speed changes by up to 2x, for under a second to minutes at a
time (README.md, "Host noise"), which moves raw wall times by more than the
benchmark's bounds.  A probe is a fixed loop that uses no ftflow code.
`Probes` runs one on entry, on exit and every `every_s` seconds in between,
from a one-shot SIGALRM timer that is re-armed after each probe: the probe
runs in this thread, between two bytecodes of whatever the program is doing,
so no thread or process is started.  The probes cut the time from entry to
exit into segments.  A segment's adjusted time is its raw time scaled by
`ref_s` over the mean of the probes at its two ends, so it reads as seconds
on a host where the probe takes `ref_s`.  Probe time is left out of both.

This module imports nothing heavy, so a set-up can be probed from its start.
"""

from __future__ import annotations

import signal
import time


def python_probe() -> None:
    """A pure-Python probe, about 2.5 ms on a fast host, for use before numpy is imported."""
    x, y = 0.3, 0.4
    seen = {}
    for i in range(10_000):
        r = (x * x + y * y) ** 0.5
        x, y = x - 1e-3 * r * x + 1e-4, y - 1e-3 * r * y + 1e-4
        seen[i & 63] = r


class Probes:
    """Context that runs `probe` on entry, on exit and every `every_s` seconds."""

    def __init__(self, probe, every_s: float, ref_s: float):
        self.probe = probe
        self.every_s = every_s
        self.ref_s = ref_s
        self.times: list[tuple[float, float]] = []  # perf_counter() at the start and end of each probe

    def _run(self):
        start = time.perf_counter()
        self.probe()
        self.times.append((start, time.perf_counter()))

    def _tick(self, signum, frame):
        self._run()
        signal.setitimer(signal.ITIMER_REAL, self.every_s)

    def __enter__(self):
        self.times = []
        self._run()
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        self._run()

    def seconds(self) -> list[float]:
        return [b - a for a, b in self.times]

    def probe_s(self, t0: float, t1: float) -> float:
        """Seconds of the probes that started in [t0, t1)."""
        return sum(b - a for a, b in self.times if t0 <= a < t1)

    def wall(self) -> tuple[float, float]:
        """(raw, adjusted) seconds from entry to exit, probes excluded."""
        raw = adjusted = 0.0
        for (a0, b0), (a1, b1) in zip(self.times, self.times[1:]):
            raw += a1 - b0
            adjusted += (a1 - b0) * self.ref_s / (0.5 * ((b0 - a0) + (b1 - a1)))
        return raw, adjusted
