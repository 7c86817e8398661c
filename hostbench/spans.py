"""In-memory span tracer with self-time attribution.

A span is one call into a layer: its name (the layer), start, end, the
span that was open below it on the same host thread (its parent), the
host thread, and the owner it ran for (a table cell, a serve request,
or a benchmark phase).  A span's self time is its duration minus the
durations of its direct children, so nested layers never double count:
a class load that runs ``<clinit>`` through the interpreter keeps only
the loader's own time, and a template calling another template keeps
only its own body.

Hot layers open millions of spans per table pass (``SimThread.charge``
alone is called ~2.6M times), so closed spans are folded into per
(owner, layer) totals at once instead of being stored; only the stack
of open spans lives in memory.  Each host thread has its own stack:
under ``--cores N`` every simulated thread runs on its own host thread,
and a thread parked inside a scheduler call must not see the other
threads' spans as its children.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Tuple


class Tracer:
    """Open-span stacks per host thread plus folded per-layer totals.

    Totals are updated without a lock.  That is safe for the workloads
    this tracer serves: table passes run on one host thread, the
    ``--cores N`` scheduler hands execution between host threads so
    that only one runs simulated code at a time, and the serve pool's
    single worker thread is the only one calling into traced layers.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Who the current work is for; stamped on every span opened.
        self.owner = "setup"
        #: ``(owner, layer) -> [self_seconds, spans]``
        self.spans: Dict[Tuple[str, str], List] = {}
        #: ``(owner, name) -> count`` for events counted at a boundary.
        self.counts: Dict[Tuple[str, str], int] = {}
        self._stacks: Dict[int, List[List]] = {}

    def open(self, layer: str) -> List:
        """Push a span on the calling thread's stack and return it."""
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        # [layer, owner, start, seconds covered by direct children]
        span = [layer, self.owner, 0.0, 0.0]
        stack.append(span)
        span[2] = self.clock()
        return span

    def close(self, span: List) -> float:
        """Pop ``span`` (the innermost open span of this thread), fold
        its self time into the totals and return its duration."""
        duration = self.clock() - span[2]
        stack = self._stacks[threading.get_ident()]
        popped = stack.pop()
        if popped is not span:
            raise RuntimeError(
                f"span {span[0]!r} closed while {popped[0]!r} was open")
        if stack:
            stack[-1][3] += duration
        key = (span[1], span[0])
        total = self.spans.get(key)
        if total is None:
            total = self.spans[key] = [0.0, 0]
        total[0] += duration - span[3]
        total[1] += 1
        return duration

    def count(self, name: str, n: int = 1) -> None:
        key = (self.owner, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a ``layer`` span."""
        open_span = self.open
        close_span = self.close

        def traced(*args, **kwargs):
            span = open_span(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(span)

        return traced

    def open_spans(self) -> int:
        return sum(len(stack) for stack in self._stacks.values())

    # -- reading totals ------------------------------------------------------

    def self_seconds(self, layer: str, owners) -> float:
        return sum(self.spans.get((owner, layer), (0.0, 0))[0]
                   for owner in owners)

    def span_count(self, layer: str, owners) -> int:
        return sum(self.spans.get((owner, layer), (0.0, 0))[1]
                   for owner in owners)

    def counted(self, name: str, owners) -> int:
        return sum(self.counts.get((owner, name), 0) for owner in owners)

    def owners(self) -> List[str]:
        seen = {owner for owner, _ in self.spans}
        seen.update(owner for owner, _ in self.counts)
        return sorted(seen)
