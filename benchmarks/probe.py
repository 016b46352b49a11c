"""A speed probe that puts timings on a quiet-host scale.

On a shared host, neighbours slow this CPU down by up to about 1.9x for
stretches of a few seconds to a minute, longer than a whole benchmark run,
so no choice of median or minimum over one run's own timings repeats from
run to run.  The probe measures that slowdown as it happens: an interval
timer interrupts the run every PERIOD seconds and times a small fixed
kernel of interpreter work that shares no code with natlog.  A measured
interval is then reported as

    (wall time - probe time inside it) * NOMINAL_NS * mean(1 / probe time)

over the probes taken around it, that is, in seconds of a host on which
the kernel takes NOMINAL_NS.  The kernel stays the same from commit to
commit, so the scale does too.  The kernel does not slow down by exactly
the same factor as every part of natlog, so the scale removes most but
not all of the noise.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter_ns

import numpy as np

PERIOD = 0.02  # seconds between probes
WINDOW_NS = 100_000_000  # probes this far around an interval also count
NOMINAL_NS = 400_000  # kernel time on a quiet 2.1 GHz Xeon (KVM) host

_TABLE = {(i, i % 7): str(i) for i in range(64)}
_VECTOR = np.arange(5.0)


def kernel() -> int:
    """Fixed interpreter work: small tuples, dict lookups, a tiny softmax."""
    total = 0
    for i in range(400):
        key = (i % 64, (i % 64) % 7)
        word = _TABLE[key]
        parts = [word, word[:1], str(len(word))]
        total += len(" ".join(parts)) + sorted(key)[0]
        if i % 40 == 0:
            scores = _VECTOR - _VECTOR.max()
            total += int(np.exp(scores).sum())
    return total


class Probe:
    """Interval-timer probe; use as a context manager around the run."""

    def __init__(self) -> None:
        # lists, not arrays: the handler may append while scale() copies
        self.starts: list[int] = []
        self.durations: list[int] = []
        self.total_ns = 0  # time spent in probes so far
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        kernel()
        t1 = perf_counter_ns()
        self.starts.append(t0)
        self.durations.append(t1 - t0)
        self.total_ns += perf_counter_ns() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start_ns: np.ndarray, end_ns: np.ndarray) -> np.ndarray:
        """Quiet-host factor NOMINAL_NS * mean(1 / probe) for each interval."""
        count = len(self.durations)  # probes recorded so far
        starts = np.array(self.starts[:count], dtype=np.int64)
        durations = np.array(self.durations[:count], dtype=np.float64)
        inverse = np.concatenate([[0.0], np.cumsum(1.0 / durations)])
        lo = np.searchsorted(starts, np.asarray(start_ns) - WINDOW_NS)
        hi = np.searchsorted(starts, np.asarray(end_ns) + WINDOW_NS)
        if np.any(hi <= lo):
            raise RuntimeError("an interval has no probe around it")
        return NOMINAL_NS * (inverse[hi] - inverse[lo]) / (hi - lo)


class Timer:
    """Records intervals net of probe time, and scales them afterwards."""

    def __init__(self, probe: Probe) -> None:
        self.probe = probe
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.net_ns = array("q")
        self.probed = array("b")  # whether a probe ran inside the interval

    def start(self) -> tuple[int, int]:
        return perf_counter_ns(), self.probe.total_ns

    def stop(self, token: tuple[int, int]) -> None:
        t1 = perf_counter_ns()
        t0, probed = token
        probe_ns = self.probe.total_ns - probed
        self.start_ns.append(t0)
        self.end_ns.append(t1)
        self.net_ns.append(t1 - t0 - probe_ns)
        self.probed.append(probe_ns != 0)

    def raw_s(self) -> np.ndarray:
        return np.frombuffer(self.net_ns, dtype=np.int64) / 1e9

    def scaled_s(self) -> np.ndarray:
        """Each interval in quiet-host seconds."""
        factor = self.probe.scale(
            np.frombuffer(self.start_ns, dtype=np.int64),
            np.frombuffer(self.end_ns, dtype=np.int64),
        )
        return self.raw_s() * factor

    def probed_mask(self) -> np.ndarray:
        """True for the intervals a probe ran inside.

        For intervals much shorter than PERIOD these are a random sample
        that also carries the cache misses the probe causes.
        """
        return np.frombuffer(self.probed, dtype=np.int8) != 0
