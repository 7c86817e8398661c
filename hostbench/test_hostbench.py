"""Tests of the benchmark's own arithmetic and probes.

Run from the root of a checkout: ``python3 -m pytest hostbench -q``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sampling import (  # noqa: E402
    beyond,
    open_loop_schedule,
    percentile,
    tail_percentile,
)
from hostspeed import (  # noqa: E402
    REFERENCE_S,
    WINDOW,
    Timing,
    at_reference,
    local_probes,
    timed,
)
from spans import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _layer_totals(tracer: Tracer, owner: str = "setup") -> dict:
    return {layer: round(total[0], 9)
            for (who, layer), total in tracer.spans.items()
            if who == owner}


def test_template_calling_template_keeps_only_its_own_body():
    clock = FakeClock()
    tracer = Tracer(clock)
    charge = tracer.wrap("threads", lambda: clock.advance(1.0))

    def callee():
        clock.advance(1.0)
        charge()
        clock.advance(3.0)

    callee = tracer.wrap("template", callee)

    def caller():
        clock.advance(2.0)
        callee()
        clock.advance(3.0)

    tracer.wrap("template", caller)()
    # caller 10 s wall: 5 own + callee 5 (4 own + 1 charge)
    assert _layer_totals(tracer) == {"template": 9.0, "threads": 1.0}
    assert tracer.span_count("template", ["setup"]) == 2
    assert tracer.open_spans() == 0


def test_class_load_running_clinit_through_the_interpreter():
    clock = FakeClock()
    tracer = Tracer(clock)
    decode = tracer.wrap("classfile", lambda: clock.advance(0.5))

    def load_nested():
        decode()
        clock.advance(1.5)

    load_nested = tracer.wrap("classloader", load_nested)

    def clinit():                       # <clinit> run by the interpreter
        clock.advance(1.0)
        load_nested()                   # it touches a class not loaded yet
        clock.advance(4.0)

    clinit = tracer.wrap("interpreter", clinit)

    def load():
        decode()
        clock.advance(1.0)
        clinit()
        clock.advance(0.5)

    tracer.wrap("classloader", load)()
    assert _layer_totals(tracer) == {
        "classfile": 1.0,               # both decodes
        "classloader": 1.5 + 1.5,       # outer own + nested own
        "interpreter": 5.0,             # clinit minus the nested load
    }


def test_spans_on_other_threads_are_not_children():
    tracer = Tracer()
    parked = threading.Event()
    release = threading.Event()

    def waiter():
        parked.set()
        release.wait(timeout=10)

    other = threading.Thread(target=tracer.wrap("scheduler", waiter))
    outer = tracer.open("interpreter")
    other.start()
    assert parked.wait(timeout=10)
    inner = tracer.open("threads")
    tracer.close(inner)
    release.set()
    other.join(timeout=10)
    assert not other.is_alive()
    tracer.close(outer)
    interpreter = tracer.spans[("setup", "interpreter")]
    threads = tracer.spans[("setup", "threads")]
    scheduler = tracer.spans[("setup", "scheduler")]
    assert interpreter[1] == threads[1] == scheduler[1] == 1
    # the other thread's span overlaps the outer one but is not its
    # child, so the outer self time is its duration minus `inner` only
    assert interpreter[0] > 0.0


def test_owner_is_stamped_when_the_span_opens():
    clock = FakeClock()
    tracer = Tracer(clock)
    span = tracer.open("service")
    tracer.owner = "request"
    clock.advance(2.0)
    tracer.close(span)
    tracer.count("classes_loaded", 3)
    assert tracer.self_seconds("service", ["setup"]) == 2.0
    assert tracer.self_seconds("service", ["request"]) == 0.0
    assert tracer.counted("classes_loaded", ["request"]) == 3


def test_closing_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


@pytest.mark.parametrize("n, expected", [
    (1, 50.0),
    (19, 50.0),
    (20, 50.0),
    (99, 50.0),        # p90 would leave 9 beyond it
    (100, 90.0),       # exactly 10 beyond p90
    (120, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    chosen = tail_percentile(n)
    assert chosen == expected
    if chosen > 50.0:
        assert beyond(chosen, n) >= 10


def test_timing_reads_at_the_reference_speed():
    # probes twice their reference time: the host ran at half speed
    slow = Timing(raw_s=0.5, probes_s=4 * REFERENCE_S)
    assert slow.seconds == pytest.approx(0.25)
    assert at_reference(0.1, slow.probes_s) == pytest.approx(0.05)
    result, timing = timed(lambda: 42)
    assert result == 42
    assert timing.raw_s >= 0.0 and timing.probes_s > 0.0


def test_each_run_is_judged_by_the_probes_around_it():
    probes = [2.0, 2.0, 2.0, 2.0, 12.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0]
    local = local_probes([Timing(1.0, p) for p in probes])
    half = WINDOW // 2
    assert len(local) == len(probes)
    assert local[0] == pytest.approx(
        sum(probes[:half + 1]) / (half + 1))
    assert local[4] == pytest.approx(sum(probes[:WINDOW]) / WINDOW)
    assert local[-1] == pytest.approx(2.0)


def test_operation_times_read_at_speed_per_run():
    from scenarios import Tally

    tally = Tally()
    for key in ("a", "b") * WINDOW:
        # the host at half speed throughout
        tally.record(key, Timing(0.1 if key == "a" else 0.3,
                                 4 * REFERENCE_S))
    assert tally.op_seconds() == pytest.approx({"a": 0.05, "b": 0.15})
    assert tally.pass_seconds() == pytest.approx(0.2)
    assert sorted(tally.pass_latencies_ms()) == pytest.approx(
        [50.0] * WINDOW + [150.0] * WINDOW)


def test_request_latency_replays_the_queue_at_speed():
    from scenarios import Request, Tally

    tally = Tally()
    half_speed = Timing(0.05, 4 * REFERENCE_S)
    # every request handled in 0.1 s of host time at half speed, so
    # 0.05 s at the reference speed; they are due 0.04 s apart, and the
    # measured queue waits, from the slow host, are left out
    for i in range(WINDOW):
        tally.record("compress", half_speed)
        tally.requests.append(Request(
            due_s=0.04 * i, latency_s=0.1 + 0.2 + half_speed.probes_s,
            queue_s=0.2))
    expected = [(0.05 + 0.01 * i) * 1000.0 for i in range(WINDOW)]
    assert tally.latency_ms() == pytest.approx(expected)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50.0) == 50
    assert percentile(values, 90.0) == 90
    assert percentile([3.0], 90.0) == 3.0


PROGRAMS = ["compress", "jess", "db", "javac", "mpegaudio", "mtrt",
            "jack", "jbb2005"]


def test_schedule_is_a_pure_function_of_the_seed():
    first = open_loop_schedule(7, PROGRAMS, 4.0, 25.0)
    assert first == open_loop_schedule(7, PROGRAMS, 4.0, 25.0)
    other = open_loop_schedule(8, PROGRAMS, 4.0, 25.0)
    assert [e["due"] for e in first] != [e["due"] for e in other]
    assert [e["program"] for e in first] != [e["program"] for e in other]


def test_schedule_offers_the_rate_and_an_even_mix():
    schedule = open_loop_schedule(3, PROGRAMS, 4.0, 25.0)
    assert len(schedule) == 100
    for entry in schedule:
        slot = entry["id"] / 4.0
        assert slot <= entry["due"] < slot + 0.25
    for start in range(0, 96, 8):
        block = [e["program"] for e in schedule[start:start + 8]]
        assert sorted(block) == sorted(PROGRAMS)


def test_probes_reconcile_and_restore_every_wrapper():
    from probes import LayerProbes
    from repro.classfile import serializer
    from repro.harness import AgentSpec, RunConfig, execute
    from repro.jvm import classloader
    from repro.jvm.threads import SimThread
    from repro.workloads import get_workload

    charge = SimThread.__dict__["charge"]
    load_class = serializer.load_class
    tracer = Tracer()
    probes = LayerProbes(tracer)
    probes.install()
    try:
        assert SimThread.__dict__["charge"] is not charge
        assert classloader.load_class is not load_class
        tracer.owner = "cell"
        result = execute(get_workload("db"),
                         RunConfig(agent=AgentSpec.spa()))
    finally:
        probes.restore()
    assert result.validation_ok
    assert probes.launches == 1
    assert probes.mismatches == []
    assert tracer.counted("classes_loaded", ["cell"]) > 0
    assert tracer.counted("jvmti_events", ["cell"]) > 0
    assert tracer.self_seconds("jvmti", ["cell"]) > 0.0
    assert SimThread.__dict__["charge"] is charge
    assert classloader.load_class is load_class
    assert serializer.load_class is load_class
