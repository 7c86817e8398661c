"""The four benchmark workloads.

Each scenario has three steps.  ``references`` takes the benchmark's
own correctness references, which no user pays for.  ``setup`` builds
what a user pays for once; it is run several times and must leave
working state behind every time.  ``measure`` does the timed work
for a number of seconds and records it in a :class:`Tally`.  Every
operation is checked as it completes; a failed check is counted, never
raised.
"""

from __future__ import annotations

import asyncio
import gc
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from statistics import mean
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.agents.ipa import IPA
from repro.errors import ReproError
from repro.harness import build_table1, build_table2, execute
from repro.harness import render_table1, render_table2, RunConfig
from repro.jvm.machine import VMConfig
from repro.launcher import runtime_archive
from repro.service import (
    ServiceConfig,
    VMPool,
    WorkloadRequest,
    run_cold,
)
from repro.service.warm import WarmVM
from repro.workloads import full_suite, get_workload

from hostspeed import Timing, at_reference, local_probes, timed
from probes import Patches
from sampling import median, open_loop_schedule
from spans import Tracer

#: ``--cores 4`` programs: every program that starts threads or blocks
#: on a simulated device, so the scheduler's handoff, monitor and
#: device paths all run.
CORES4_PROGRAMS = ("fj-kmeans", "actors", "reactors", "mtrt", "jbb2005",
                   "io-kv", "io-echo")

#: Offered serve-warm load.  One worker serves the eight programs at
#: 6.4 to 7.8 requests/s on a 2-core host, whose speed drifts, so
#: 3.4/s keeps it about half busy: queueing shows in the tail without
#: a growing backlog, and a 30 s run yields the 100 samples a p90
#: needs.
SERVE_RATE = 3.4


class Request(NamedTuple):
    """One served request, in raw host seconds."""

    #: When it was due, from the start of the schedule.
    due_s: float
    #: From its due time until its reply reached the generator.
    latency_s: float
    #: Its wait in the pool's queue behind earlier requests.
    queue_s: float


@dataclass
class Tally:
    """What one phase of a run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Completed passes over the workload's operations.
    passes: int = 0
    #: Every run of an operation in the order they ran, with what it
    #: ran (a table cell, a program).  On serve-warm: service time,
    #: queue excluded.
    runs: List[Tuple[str, Timing]] = field(default_factory=list)
    #: serve-warm only: the request that ``runs[i]`` served; generator
    #: lateness and pool queue wait.
    requests: List[Request] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    queue_ms: List[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def record(self, key: str, timing: Timing) -> None:
        self.runs.append((key, timing))

    def _local_probes(self) -> List[float]:
        return local_probes([timing for _, timing in self.runs])

    def op_seconds(self) -> Dict[str, float]:
        """Each operation's mean seconds at the reference speed over
        its runs, each judged by the probes around it."""
        seconds: Dict[str, List[float]] = {}
        for (key, timing), probes_s in zip(self.runs,
                                           self._local_probes()):
            seconds.setdefault(key, []).append(
                at_reference(timing.raw_s, probes_s))
        return {key: mean(values) for key, values in seconds.items()}

    def pass_seconds(self) -> float:
        """Seconds of one pass at the reference speed: the sum of
        :meth:`op_seconds`."""
        return sum(self.op_seconds().values())

    def pass_latencies_ms(self) -> List[float]:
        """Latencies of the operations of a back-to-back pass, each at
        its :meth:`op_seconds`, once per run: the fixed population
        whose percentiles a batch workload reports."""
        seconds = self.op_seconds()
        return [seconds[key] * 1000.0 for key, _ in self.runs]

    def latency_ms(self) -> List[float]:
        """serve-warm: each request's latency from its due time at the
        reference speed.

        A request's own handling, its latency less its queue wait and
        its run's probes, is read at the speed of the probes around its
        run.  Its queue wait is replayed at that speed through the one
        worker's first-come-first-served queue, from the earlier
        requests' handling.  A measured wait cannot be scaled back: as
        the host slows, the worker nears saturation and waits grow many
        times faster than the host slows.
        """
        latencies = []
        free_at = 0.0
        for request, (_, timing), probes_s in zip(
                self.requests, self.runs, self._local_probes()):
            handling = at_reference(
                request.latency_s - request.queue_s - timing.probes_s,
                probes_s)
            free_at = max(request.due_s, free_at) + handling
            latencies.append((free_at - request.due_s) * 1000.0)
        return latencies


def _until(seconds: float, step) -> None:
    """Call ``step()`` at least once, and again while the median step
    so far still fits in ``seconds``."""
    start = time.perf_counter()
    steps: List[float] = []
    while True:
        began = time.perf_counter()
        step()
        steps.append(time.perf_counter() - began)
        if time.perf_counter() - start + median(steps) > seconds:
            return


class Scenario:
    """What every workload shares: back-to-back passes by default, and
    no references or resources of its own."""

    #: What per-layer figures are divided by: ``"pass"`` or ``"request"``.
    unit = "pass"

    def references(self) -> None:
        pass

    def close(self) -> None:
        pass


class TableScenario(Scenario):
    """``table1`` or ``table2``: full cold-VM table passes, each render
    compared byte for byte with its golden under ``results/``."""

    def __init__(self, name: str, root: Path):
        self.name = name
        if name == "table1":
            self.build, self.render = build_table1, render_table1
        else:
            self.build, self.render = build_table2, render_table2
        self.golden = (root / "results" / f"{name}.txt").read_bytes()
        self.suite = None

    def setup(self) -> None:
        runtime = runtime_archive()
        suite = full_suite()
        for workload in suite:
            IPA().instrument_archives([runtime, workload.archive])
        self.suite = suite

    def measure(self, seconds: float, tally: Tally,
                tracer: Optional[Tracer] = None) -> None:
        cells: List[tuple] = []
        clock = Patches()
        clock.function(execute, lambda fn: _cell_clock(fn, cells, tracer))
        try:
            _until(seconds, lambda: self._pass(tally, cells))
        finally:
            clock.restore()

    def _pass(self, tally: Tally, cells: List[tuple]) -> None:
        cells.clear()
        try:
            table = self.build(self.suite)
        except ReproError as exc:
            tally.check(False, f"{self.name} pass: {exc}")
            return
        rendered = self.render(table)
        tally.passes += 1
        for key, timing in cells:
            tally.record(key, timing)
        for cell in table.raw.values():
            for result in cell.values():
                tally.check(not result.thread_deaths,
                            f"{result.workload}/{result.agent_label}: "
                            f"thread died")
        tally.check((rendered + "\n").encode("utf-8") == self.golden,
                    f"{self.name} render differs from results/"
                    f"{self.name}.txt")


def _cell_clock(fn, cells: List[tuple], tracer: Optional[Tracer]):
    """``harness.execute`` timed per call, the only code a table pass
    runs wrapped when untraced (one call per cell).  A traced run also
    names the cell as the owner of every span it opens."""

    def execute(workload, config=None):
        agent = config.agent.label if config is not None else "original"
        key = f"{workload.name}/{agent}"
        if tracer is not None:
            tracer.owner = f"pass:{key}"
        result, timing = timed(lambda: fn(workload, config))
        cells.append((key, timing))
        return result

    return execute


class Cores4Scenario(Scenario):
    """The threaded and I/O programs at ``--cores 4``, no agent, in a
    seeded order each pass; every run must validate, lose no thread and
    repeat its first pass's simulated cycles exactly."""

    def __init__(self, seed: int):
        self.rng = Random(seed)
        self.workloads: Dict[str, object] = {}
        self.reference: Dict[str, tuple] = {}

    def setup(self) -> None:
        runtime_archive()
        workloads = {name: get_workload(name) for name in CORES4_PROGRAMS}
        for workload in workloads.values():
            workload.archive
        self.workloads = workloads

    def measure(self, seconds: float, tally: Tally,
                tracer: Optional[Tracer] = None) -> None:
        _until(seconds, lambda: self._pass(tally, tracer))

    def _pass(self, tally: Tally, tracer: Optional[Tracer]) -> None:
        order = list(CORES4_PROGRAMS)
        self.rng.shuffle(order)
        config = RunConfig(vm_config=VMConfig(cores=4))
        for name in order:
            if tracer is not None:
                tracer.owner = f"pass:{name}"
            try:
                result, timing = timed(
                    lambda: execute(self.workloads[name], config))
            except ReproError as exc:
                tally.check(False, f"{name}: {exc}")
                continue
            tally.record(name, timing)
            witness = (result.cycles, result.wall_cycles,
                       tuple(result.core_clocks or ()))
            expected = self.reference.setdefault(name, witness)
            tally.check(result.validation_ok and not result.thread_deaths
                        and witness == expected,
                        f"{name}: ok={result.validation_ok} "
                        f"deaths={len(result.thread_deaths)} "
                        f"cycles={witness} expected={expected}")
        tally.passes += 1


class ServeWarmScenario(Scenario):
    """An in-process one-worker ``VMPool`` preheated for the eight
    suite programs, driven by a seeded open-loop schedule.  Latency
    runs from each request's due time; every reply must be a warm 200
    whose console checksum equals a cold run of the same program.

    The probes of a request run on the worker thread around
    ``WarmVM.run``; see :meth:`Tally.latency_ms`."""

    unit = "request"

    def __init__(self, seed: int):
        self.seed = seed
        self.programs = [w.name for w in full_suite()]
        self.loop = asyncio.new_event_loop()
        self.pool: Optional[VMPool] = None
        self.cold: Dict[str, str] = {}

    def setup(self) -> None:
        self.loop.run_until_complete(self._restart())

    async def _restart(self) -> None:
        if self.pool is not None:
            await self.pool.stop()
            # the warm VMs are cyclic garbage; free them before the next
            # pool is built so peak RSS holds one pool, not two
            self.pool = None
            gc.collect()
        self.pool = VMPool(ServiceConfig(workers=1, queue_limit=0))
        await self.pool.start()
        await self.pool.preheat(self.programs)

    def references(self) -> None:
        self.cold = {name: run_cold(name)["checksum"]
                     for name in self.programs}
        gc.collect()

    def measure(self, seconds: float, tally: Tally,
                tracer: Optional[Tracer] = None) -> None:
        if tracer is not None:
            tracer.owner = "request"
        schedule = open_loop_schedule(self.seed, self.programs,
                                      SERVE_RATE, seconds)
        # one worker serves in queue order, so runs finish in the order
        # their requests do
        runs: deque = deque()

        def clock(fn):
            def run(vm, *args, **kwargs):
                result, timing = timed(lambda: fn(vm, *args, **kwargs))
                runs.append((vm.name, timing))
                return result
            return run

        patch = Patches()
        patch.method(WarmVM, "run", clock)
        try:
            self.loop.run_until_complete(
                self._drive(schedule, tally, runs))
        finally:
            patch.restore()
        tally.passes += len(schedule) // len(self.programs)

    async def _drive(self, schedule: List[Dict], tally: Tally,
                     runs: deque) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        pool = self.pool

        async def one(entry: Dict):
            due = t0 + entry["due"]
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            tally.late_ms.append((loop.time() - due) * 1000.0)
            outcome = await pool.submit(WorkloadRequest(
                entry["program"], request_id=entry["id"]))
            latency_s = loop.time() - due
            ran, timing = runs.popleft() if runs else (None, None)
            if ran != entry["program"]:
                tally.check(False, f"request {entry['id']} "
                                   f"({entry['program']}): the run "
                                   f"timed for it was {ran}")
                return
            tally.requests.append(Request(entry["due"], latency_s,
                                          outcome.queue_seconds))
            tally.record(entry["program"], timing)
            tally.queue_ms.append(outcome.queue_seconds * 1000.0)
            tally.check(outcome.ok and outcome.status == 200
                        and outcome.warm
                        and outcome.checksum == self.cold[entry["program"]],
                        f"request {entry['id']} ({entry['program']}): "
                        f"status={outcome.status} warm={outcome.warm} "
                        f"checksum={outcome.checksum} "
                        f"cold={self.cold[entry['program']]} "
                        f"{outcome.error}")

        await asyncio.gather(*(one(entry) for entry in schedule))

    def close(self) -> None:
        if self.pool is not None:
            self.loop.run_until_complete(self.pool.stop())
            self.pool = None
        self.loop.close()


def make(name: str, root: Path, seed: int) -> Scenario:
    if name in ("table1", "table2"):
        return TableScenario(name, root)
    if name == "cores4":
        return Cores4Scenario(seed)
    return ServeWarmScenario(seed)

