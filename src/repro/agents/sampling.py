"""Sampling profiler — the paper's *system-specific* related work.

Section VI contrasts IPA with sampling profilers like IBM tprof, which
"periodically sample the PC and compare this value to a map of active
code modules" — efficient, but (a) inherently system-dependent (they
need the OS timer interrupt and the process memory map, not JVMTI) and
(b) unable to count JNI calls or expose mixed call chains.

This agent models that approach honestly inside the simulator: it is
**not** a JVMTI agent.  It registers a host-side sampler that fires
every ``interval`` simulated cycles and classifies the sample by what
the CPU was executing (bytecode vs. native — what a PC-to-module map
yields).  Per-sample cost is tiny (a timer interrupt), so overhead is
near zero; accuracy is limited by sampling error; and there is nothing
it can say about transition counts.

Used by benchmark E10 to quantify the accuracy/portability trade-off
against IPA.
"""

from __future__ import annotations

from typing import Dict

from repro.jvm.costmodel import ChargeTag

#: Simulated cycles per timer interrupt + sample classification.
SAMPLE_COST = 90


class SamplingProfiler:
    """Host-side PC sampler (attach with :meth:`install`)."""

    name = "sampling"

    def __init__(self, interval: int = 50_000):
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.interval = interval
        self.samples_bytecode = 0
        self.samples_native = 0
        self.samples_other = 0

    # -- installation ------------------------------------------------------

    def install(self, vm) -> None:
        """Hook every thread's charge path (the OS timer, in effect)."""
        vm.threads.add_sampler(self)

    def on_charge(self, thread, cycles: int, tag: ChargeTag) -> int:
        """Called by the thread accounting path; returns extra cycles
        consumed by sampling interrupts that fired in this span."""
        before = thread.cycles_total - cycles
        fired = ((thread.cycles_total // self.interval)
                 - (before // self.interval))
        if not fired:
            return 0
        if tag is ChargeTag.BYTECODE:
            self.samples_bytecode += fired
        elif tag is ChargeTag.NATIVE:
            self.samples_native += fired
        else:
            self.samples_other += fired
        return SAMPLE_COST * fired

    # -- results --------------------------------------------------------------

    @property
    def total_samples(self) -> int:
        return (self.samples_bytecode + self.samples_native
                + self.samples_other)

    @property
    def percent_native(self) -> float:
        """Estimated native fraction of *application* time (samples
        landing in VM/agent work are excluded, as a module map would
        attribute them to the JVM binary)."""
        app = self.samples_bytecode + self.samples_native
        if app == 0:
            return 0.0
        return 100.0 * self.samples_native / app

    def report(self) -> Dict:
        return {
            "agent": self.name,
            "interval": self.interval,
            "samples": self.total_samples,
            "samples_native": self.samples_native,
            "samples_bytecode": self.samples_bytecode,
            "percent_native": self.percent_native,
            # the paper's criticism: no transition counts available
            "jni_calls": None,
            "native_method_calls": None,
        }
