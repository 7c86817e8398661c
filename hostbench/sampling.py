"""Sample statistics and the serve-warm arrival schedule."""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from random import Random
from typing import Dict, List, Sequence

#: Percentiles a latency report may name, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A reported tail percentile needs this many samples beyond it.
MIN_BEYOND = 10

def rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    # exact decimal arithmetic: 99.9% of 10000 is rank 9990, not 9991
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def beyond(p: float, n: int) -> int:
    """How many of ``n`` sorted samples lie above percentile ``p``."""
    return n - rank(p, n)


def tail_percentile(n: int) -> float:
    """The highest of :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples beyond it; the median when none has."""
    chosen = PERCENTILES[0]
    for p in PERCENTILES:
        if beyond(p, n) >= MIN_BEYOND:
            chosen = p
    return chosen


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` of ``values``."""
    ordered = sorted(values)
    return ordered[rank(p, len(ordered)) - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def open_loop_schedule(seed: int, programs: Sequence[str], rate: float,
                       seconds: float) -> List[Dict]:
    """Arrivals for ``rate`` requests/s over ``seconds``, from ``seed``.

    Request *i* is due at a seeded uniform point of its own
    ``1/rate`` slot, so the seed moves every arrival while the offered
    load stays ``rate`` in every second.  Programs come in seeded
    permutations of ``programs``: each block of ``len(programs)``
    requests runs every program once, so all seeds offer the same
    mix.  The result depends on nothing but the arguments.
    """
    rng = Random(seed)
    count = round(rate * seconds)
    order: List[str] = []
    while len(order) < count:
        block = list(programs)
        rng.shuffle(block)
        order.extend(block)
    return [{"id": i, "due": (i + rng.random()) / rate,
             "program": order[i]}
            for i in range(count)]
