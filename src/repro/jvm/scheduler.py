"""Preemptive N-core simulated scheduler (``--cores N``, N > 1).

The sequential model (cores=1, the default) runs each thread to
completion on one virtual CPU; this module replaces it with a
deterministic preemptive scheduler over N *simulated* cores:

* **One host thread per simulated thread, but never two running at
  once.**  A suspended simulated thread's state lives on its host
  Python stack (interpreter frames, template-tier locals, nested
  native->Java re-entries), so suspension/resumption needs a real host
  stack per thread.  Execution is strictly serialized by handoff: the
  yielding thread picks the successor under the scheduler lock, sets
  the successor's event, and parks on its own event *after releasing
  the lock*.  There is no scheduler thread and no host parallelism —
  wall-clock is irrelevant to the simulation, so determinism costs
  nothing.

* **Per-core cycle clocks.**  ``core_clock[c]`` accumulates the cycles
  of every slice executed on core *c*.  Dispatch always picks the core
  with the lowest clock (lowest index breaking ties), i.e. the core
  that is free earliest on the virtual timeline — a classic list
  scheduler.  ``max(core_clock)`` is the simulated wall clock;
  ``sum(core_clock)`` stays equal to total CPU cycles.

* **Quantum preemption at safepoints.**  A dispatched thread runs
  until ``cycles_total >= preempt_at`` (quantum from the cost model),
  checked at the interpreter/template safepoints: loop backedges and
  call boundaries — exactly the points where the template tier can
  already reconstruct frame state.  If nothing else is ready the
  quantum is simply extended (no slice end, no context-switch charge),
  so a single-threaded program costs the same at any core count.

* **Blocking monitors and joins.**  Contended MONITORENTER parks the
  acquirer on the object's FIFO waiter queue (charging the contention
  cost, VM tag); MONITOREXIT hands the monitor directly to the first
  waiter.  ``Thread.join`` parks the joiner until the target
  terminates.  The main thread parks in a drain barrier until every
  started thread has terminated.

* **Deadlock detection.**  When nothing is ready and no dispatch can
  ever make progress, the scheduler walks the wait-for graph
  (monitor waiter -> owner, joiner -> target) and raises a structured
  :class:`~repro.errors.DeadlockError` naming the cycle.

Determinism: the successor choice is a pure function of the FIFO ready
queue, per-core clocks, and thread ids — all of which are functions of
the (deterministic) simulated execution.  Host thread scheduling never
influences any simulated outcome.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.errors import DeadlockError, VMError
from repro.jvm.costmodel import ChargeTag
from repro.jvm.threads import SimThread, ThreadState


class SchedulerAbort(BaseException):
    """Unwinds a parked simulated thread when the run is torn down.

    Deliberately a ``BaseException``: workload ``except``-all handlers
    (simulated or host-side) must not swallow it.
    """


class CoreScheduler:
    """Deterministic preemptive scheduler over N simulated cores."""

    def __init__(self, vm, cores: int):
        if cores < 2:
            raise VMError(f"CoreScheduler needs cores >= 2, got {cores}")
        self.vm = vm
        self.cores = cores
        #: Race sanitizer (constructed before the scheduler by the VM),
        #: or None; slice boundaries publish happens-before edges to it.
        self.san = vm.sanitizer
        #: Cycles executed so far on each simulated core.
        self.core_clock: List[int] = [0] * cores
        #: Runnable threads, FIFO.
        self.ready: Deque[SimThread] = deque()
        #: ``target.thread_id -> [joiners]`` parked in ``join``.
        self._join_waiters: Dict[int, List[SimThread]] = {}
        self._lock = threading.Lock()
        self._events: Dict[int, threading.Event] = {}
        self._host_threads: Dict[int, threading.Thread] = {}
        #: Cycle counter value when the running slice was dispatched.
        self._slice_start = 0
        self._running: Optional[SimThread] = None
        self._main: Optional[SimThread] = None
        #: Error that tears the run down (DeadlockError or a host error
        #: escaping a worker); checked by every thread on wake-up.
        self._abort: Optional[BaseException] = None
        # observability counters (surfaced via repro metrics)
        self.context_switches = 0
        self.monitor_contentions = 0
        self.deadlocks_detected = 0
        self.io_blocks = 0

    # ------------------------------------------------------------------
    # lifecycle

    def attach_main(self, main: SimThread) -> None:
        """Adopt the launching thread as the simulated main thread."""
        self._main = main
        self._running = main
        self._events[main.thread_id] = threading.Event()
        cost = self.vm.config.cost_model
        main.core = 0
        main.preempt_at = main.cycles_total + cost.scheduler_quantum
        self._slice_start = main.cycles_total
        self.vm.threads.current = main

    def start_thread(self, thread: SimThread) -> None:
        """``Thread.start``: make ``thread`` READY with its own host
        thread parked until first dispatch."""
        if thread.state is not ThreadState.NEW:
            raise VMError(
                f"thread {thread.name!r} started twice "
                f"(state {thread.state.value})")
        with self._lock:
            event = threading.Event()
            self._events[thread.thread_id] = event
            host = threading.Thread(
                target=self._worker_main, args=(thread,),
                name=f"sim-{thread.name}", daemon=True)
            self._host_threads[thread.thread_id] = host
            thread.state = ThreadState.READY
            self.ready.append(thread)
            self._state_instant(thread, "RUNNABLE")
        host.start()

    def shutdown(self) -> None:
        """Join every worker host thread (all have exited or will exit
        on their SchedulerAbort wake-up)."""
        with self._lock:
            if self._abort is None:
                self._abort = SchedulerAbort("vm shutdown")
            for tid, event in self._events.items():
                if self._main is not None and tid == self._main.thread_id:
                    continue
                event.set()
        for host in self._host_threads.values():
            host.join(timeout=10.0)

    def _worker_main(self, thread: SimThread) -> None:
        """Host-thread body of one simulated worker thread."""
        try:
            self._park(thread)  # until first dispatch
            self.vm.scheduled_thread_body(thread)
            self.finish(thread)
        except SchedulerAbort:
            pass
        except BaseException as exc:  # host-side failure: abort the run
            self._abort_run(exc)

    # ------------------------------------------------------------------
    # scheduling core

    def preempt(self, thread: SimThread) -> None:
        """Safepoint hit with ``cycles_total >= preempt_at``.

        With an empty ready queue the quantum is extended in place —
        no slice end, no charge — so lone threads are undisturbed.
        """
        cost = self.vm.config.cost_model
        with self._lock:
            if not self.ready:
                thread.preempt_at = thread.cycles_total + \
                    cost.scheduler_quantum
                return
            thread.charge(cost.context_switch_cycles, ChargeTag.VM)
            self.context_switches += 1
            self._end_slice(thread)
            thread.state = ThreadState.READY
            self.ready.append(thread)
            self._state_instant(thread, "RUNNABLE")
            successor = self._dispatch_next()
        self._handoff(thread, successor)

    def block_io(self, thread: SimThread, device: str, cycles: int,
                 label: Optional[str] = None) -> int:
        """Blocking native: elapse ``cycles`` on ``device``'s timeline
        with ``thread`` off-CPU, handing the core to the next runnable
        thread for the gap.  Returns the blocked cycles.

        With an empty ready queue there is nobody to run in the gap:
        the thread keeps its core (quantum extended in place, no slice
        end, no context-switch charge — mirroring :meth:`preempt`'s
        lone-thread fast path), so a single-threaded I/O program costs
        the same CPU cycles at any core count.
        """
        if cycles <= 0:
            return 0
        cost = self.vm.config.cost_model
        with self._lock:
            blocked = self.vm.block_on_device(thread, device, cycles,
                                              label=label)
            self.io_blocks += 1
            self._state_instant(thread, "BLOCKED")
            if not self.ready:
                thread.preempt_at = thread.cycles_total + \
                    cost.scheduler_quantum
                self._state_instant(thread, "RUNNING")
                return blocked
            thread.charge(cost.context_switch_cycles, ChargeTag.VM)
            self.context_switches += 1
            self._end_slice(thread)
            thread.state = ThreadState.READY
            self.ready.append(thread)
            self._state_instant(thread, "RUNNABLE")
            successor = self._dispatch_next()
        self._handoff(thread, successor)
        return blocked

    def acquire_contended(self, thread: SimThread, obj) -> None:
        """Block ``thread`` until it owns ``obj``'s monitor.

        Called from the interpreter/template MONITORENTER with the
        monitor observed held by another thread; on return the monitor
        belongs to ``thread`` (ownership is transferred directly by the
        releasing thread).
        """
        cost = self.vm.config.cost_model
        with self._lock:
            owner = obj.monitor_owner
            if owner is None or owner is thread:
                # released between the opcode's check and here — only
                # possible for re-dispatched waiters, not reachable in
                # the serialized protocol, but harmless to handle
                obj.monitor_owner = thread
                obj.monitor_count += 1
                if self.san is not None:
                    self.san.on_acquire(thread, obj)
                return
            thread.charge(cost.monitor_contention_cycles, ChargeTag.VM)
            self.monitor_contentions += 1
            if obj.monitor_waiters is None:
                obj.monitor_waiters = deque()
            obj.monitor_waiters.append(thread)
            self._end_slice(thread)
            thread.state = ThreadState.BLOCKED
            thread.waiting_on = ("monitor", obj)
            self._state_instant(thread, "BLOCKED")
            successor = self._dispatch_next()
        self._handoff(thread, successor)
        # woken as monitor owner (transfer done by the releaser)

    def release_monitor(self, thread: SimThread, obj) -> None:
        """MONITOREXIT dropped the count to zero with waiters queued:
        hand the monitor to the first waiter and make it READY."""
        with self._lock:
            if not obj.monitor_waiters:
                return
            waiter = obj.monitor_waiters.popleft()
            obj.monitor_owner = waiter
            obj.monitor_count = 1
            if self.san is not None:
                # direct transfer: the waiter acquires without
                # re-running the MONITORENTER hook
                self.san.on_acquire(waiter, obj)
            waiter.state = ThreadState.READY
            waiter.waiting_on = None
            self.ready.append(waiter)
            self._state_instant(waiter, "RUNNABLE")

    def join(self, thread: SimThread, target: SimThread) -> None:
        """``Thread.join``: park ``thread`` until ``target`` terminates."""
        if target is thread:
            raise DeadlockError(
                f"{thread.name} joins itself: "
                + DeadlockError.render_cycle(
                    [(thread.name, "join", thread.name)]),
                cycle=[(thread.name, "join", thread.name)])
        with self._lock:
            if target.state in (ThreadState.TERMINATED, ThreadState.NEW):
                return
            self._join_waiters.setdefault(target.thread_id, []).append(
                thread)
            self._end_slice(thread)
            thread.state = ThreadState.WAITING
            thread.waiting_on = ("join", target)
            self._state_instant(thread, "PARKED")
            successor = self._dispatch_next()
        self._handoff(thread, successor)

    def drain(self, main: SimThread) -> None:
        """Park main until every started thread has terminated."""
        while True:
            with self._lock:
                if not self._live_workers():
                    return
                self._end_slice(main)
                main.state = ThreadState.WAITING
                main.waiting_on = ("drain", None)
                self._state_instant(main, "PARKED")
                successor = self._dispatch_next()
            self._handoff(main, successor)

    def finish(self, thread: SimThread) -> None:
        """Terminating thread: wake joiners (and a draining main),
        dispatch a successor, and let the host thread exit."""
        with self._lock:
            self._end_slice(thread)
            thread.state = ThreadState.TERMINATED
            self._state_instant(thread, "TERMINATED")
            for joiner in self._join_waiters.pop(thread.thread_id, ()):
                joiner.state = ThreadState.READY
                joiner.waiting_on = None
                self.ready.append(joiner)
                self._state_instant(joiner, "RUNNABLE")
            main = self._main
            if (main is not None and main.waiting_on == ("drain", None)
                    and not self._live_workers()):
                main.state = ThreadState.READY
                main.waiting_on = None
                self.ready.append(main)
                self._state_instant(main, "RUNNABLE")
            successor = self._dispatch_next()
        if successor is not None:
            self._events[successor.thread_id].set()
        # no park: the host thread returns and exits

    # ------------------------------------------------------------------
    # internals

    def _live_workers(self) -> List[SimThread]:
        """Non-main threads that have been started but not terminated."""
        main_id = self._main.thread_id if self._main else -1
        return [t for t in self.vm.threads.all_threads
                if t.thread_id != main_id
                and t.state not in (ThreadState.NEW,
                                    ThreadState.TERMINATED)]

    def _end_slice(self, thread: SimThread) -> None:
        """Account the finished slice to the thread's core clock."""
        if self.san is not None:
            # core handoff is a real synchronization point: the
            # scheduler serializes execution, so the outgoing thread
            # publishes into the global scheduler-token clock
            self.san.token_release(thread)
        core = thread.core if thread.core is not None else 0
        start = self._slice_start
        end = thread.cycles_total
        if end > start:
            self.core_clock[core] += end - start
            obs = self.vm.obs
            if obs.tracer.enabled:
                clock = self.core_clock[core]
                obs.tracer.complete(
                    f"slice:{thread.name}", "core", -(core + 1),
                    clock - (end - start), clock)
        self._running = None

    def _dispatch_next(self) -> Optional[SimThread]:
        """Pick the next thread and core (lock held).  Returns the
        successor, or None when the ready queue is empty (after
        checking for deadlock)."""
        if not self.ready:
            self._check_deadlock()
            return None
        thread = self.ready.popleft()
        if self.san is not None:
            self.san.token_acquire(thread)
        core = min(range(self.cores), key=lambda c: self.core_clock[c])
        cost = self.vm.config.cost_model
        thread.core = core
        thread.state = ThreadState.RUNNING
        thread.preempt_at = thread.cycles_total + cost.scheduler_quantum
        self._slice_start = thread.cycles_total
        self._running = thread
        self.vm.threads.current = thread
        self._state_instant(thread, "RUNNING")
        return thread

    def _handoff(self, thread: SimThread, successor: Optional[SimThread]
                 ) -> None:
        """Wake ``successor`` (if any) and park ``thread`` until its
        next dispatch.  Must be called WITHOUT the lock held: parking
        inside the lock would deadlock the handoff."""
        event = self._events[thread.thread_id]
        event.clear()
        if successor is not None and successor is not thread:
            self._events[successor.thread_id].set()
        if successor is thread:
            return
        self._park(thread)

    def _park(self, thread: SimThread) -> None:
        event = self._events[thread.thread_id]
        # abort may have set (and _handoff cleared) the event already;
        # checking the flag first avoids parking through a teardown
        if self._abort is None:
            event.wait()
        event.clear()
        if self._abort is not None:
            raise SchedulerAbort(str(self._abort))
        self.vm.threads.current = thread

    def _abort_run(self, exc: BaseException) -> None:
        """Tear the run down: every parked thread wakes into
        SchedulerAbort; main re-raises ``exc`` out of ``launch``."""
        with self._lock:
            if self._abort is None:
                self._abort = exc
            for event in self._events.values():
                event.set()

    @property
    def abort_error(self) -> Optional[BaseException]:
        return self._abort

    # ------------------------------------------------------------------
    # deadlock detection

    def _check_deadlock(self) -> None:
        """Ready queue is empty: decide whether any dispatch can ever
        happen again (lock held).  Raises via abort if not."""
        workers = self._live_workers()
        blocked = [t for t in workers
                   if t.state in (ThreadState.BLOCKED, ThreadState.WAITING)]
        main = self._main
        # a main blocked on a monitor or a join counts even with no live
        # worker left: the owner may have terminated still holding it
        if main is not None and \
                main.waiting_on not in (None, ("drain", None)):
            blocked.append(main)
        if not blocked:
            return  # workers still running down finish(); progress possible
        if (main is not None and main.waiting_on == ("drain", None)
                and len(blocked) < len(workers)):
            return
        # every live thread is blocked/waiting and none can be woken:
        # find and report a wait-for cycle
        cycle = self._find_cycle(blocked)
        self.deadlocks_detected += 1
        names = DeadlockError.render_cycle(cycle) if cycle else ", ".join(
            t.name for t in blocked)
        error = DeadlockError(
            f"deadlock: no runnable thread; wait-for cycle: {names}",
            cycle=cycle)
        self._abort = error
        for event in self._events.values():
            event.set()
        raise SchedulerAbort(str(error))

    def _find_cycle(self, threads: List[SimThread]
                    ) -> List[Tuple[str, str, str]]:
        """Walk waiting_on edges from each blocked thread; return the
        first cycle found as (waiter, resource, holder) name triples."""
        def edge(t: SimThread):
            if t.waiting_on is None:
                return None, None
            kind, what = t.waiting_on
            if kind == "monitor":
                owner = what.monitor_owner
                return owner, f"monitor of {what!r}"
            if kind == "join":
                return what, f"join {what.name}"
            return None, None

        for start in threads:
            seen: Dict[int, int] = {}
            path: List[Tuple[SimThread, str, SimThread]] = []
            node = start
            while node is not None:
                if node.thread_id in seen:
                    idx = seen[node.thread_id]
                    return [(w.name, res, h.name)
                            for w, res, h in path[idx:]]
                seen[node.thread_id] = len(path)
                nxt, resource = edge(node)
                if nxt is None:
                    break
                path.append((node, resource, nxt))
                node = nxt
        # no proper cycle (e.g. blocked on a monitor whose owner
        # terminated without releasing — impossible in valid bytecode,
        # or joining a never-started thread): report the wait edges
        out = []
        for t in threads:
            nxt, resource = edge(t)
            if nxt is not None:
                out.append((t.name, resource, nxt.name))
        return out

    # ------------------------------------------------------------------
    # observability

    def _state_instant(self, thread: SimThread, state: str) -> None:
        """Thread-state transition mark on the thread's trace lane
        (host-side; zero simulated cycles)."""
        tracer = self.vm.obs.tracer
        if tracer.enabled:
            tracer.instant("thread-state", "sched", thread.thread_id,
                           thread.cycles_total, {"state": state})

    def register_trace_lanes(self) -> None:
        """Name the per-core trace lanes (negative tids, stable)."""
        tracer = self.vm.obs.tracer
        if not tracer.enabled:
            return
        for core in range(self.cores):
            tracer.register_thread(-(core + 1), f"core-{core}")
