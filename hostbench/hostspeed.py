"""The host-speed probe that takes the shared host's drift out of a
timing.

The host shares its cores with other machines, and how fast it runs
Python swings by up to a factor of two over tens of seconds, so a
whole 30 s run can land in a slow stretch.  No statistic over one
run's raw timings removes that.  Instead every timed operation is
bracketed by two runs of a fixed loop, :func:`probe`, and reported at
the speed at which the probe takes :data:`REFERENCE_S`: a timing of
``t`` host seconds with probes averaging ``p`` reads
``t * REFERENCE_S / p``.  A change to the simulator moves its
operations and leaves the probe alone, so it moves the normalised
time by the same share as the raw one.

The host's stalls come in bursts of a few milliseconds, so the two
probes around one operation often miss a stall that slowed it, or
catch one that did not.  A run of an operation is therefore judged by
the probes of the :data:`WINDOW` runs around it (:func:`local_probes`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import mean
from typing import Callable, List, Sequence, Tuple, TypeVar

#: About the probe's time on the 2-core host when nothing else runs.
#: It fixes only the scale of normalised times, which read as host
#: seconds on an unloaded host.
REFERENCE_S = 0.002

#: Loop trips of one probe.
PROBE_TRIPS = 12000

#: Runs whose probes judge the host's speed during one run: the run
#: and four either side, one to three seconds of any workload.
WINDOW = 9

T = TypeVar("T")


class _Counter:
    def __init__(self):
        self.table = {}
        self.total = 0

    def add(self, i: int) -> None:
        slot = i & 63
        self.table[slot] = self.table.get(slot, 0) + i
        self.total += len(self.table)


def probe() -> float:
    """Host seconds a fixed loop of the work the simulator's
    interpreter does most, dict lookups, attribute updates, calls and
    appends, takes now."""
    counter = _Counter()
    kept = []
    started = time.perf_counter()
    for i in range(PROBE_TRIPS):
        counter.add(i)
        if i & 7 == 0:
            kept.append(i)
    return time.perf_counter() - started


@dataclass(frozen=True)
class Timing:
    """One operation's host seconds and the probes around it."""

    raw_s: float
    #: Host seconds of the probe before plus the probe after.
    probes_s: float

    @property
    def seconds(self) -> float:
        """The operation's time at the reference speed, judged by its
        own probes."""
        return at_reference(self.raw_s, self.probes_s)


def at_reference(seconds: float, probes_s: float) -> float:
    """Host ``seconds`` measured while a pair of probes took
    ``probes_s``, at the reference speed."""
    return seconds * 2.0 * REFERENCE_S / probes_s


def local_probes(timings: Sequence[Timing]) -> List[float]:
    """For each of ``timings``, in the order they ran, the mean probe
    pair of the :data:`WINDOW` timings around it."""
    half = WINDOW // 2
    return [mean(t.probes_s for t in timings[max(0, i - half):i + half + 1])
            for i in range(len(timings))]


def timed(call: Callable[[], T]) -> Tuple[T, Timing]:
    """Run ``call()`` between two probes; its result and timing.  An
    exception from ``call`` passes through untimed."""
    before = probe()
    started = time.perf_counter()
    result = call()
    raw_s = time.perf_counter() - started
    return result, Timing(raw_s, before + probe())
