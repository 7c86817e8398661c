"""Accounting invariance, pinned.

DESIGN.md "Host-performance engineering" admits a host-speed change
only if the *sequence* of ``SimThread.charge(cycles, tag)`` calls stays
bit-identical, not just the totals.  These tests spy on
``SimThread.charge`` at class level (the way host-side profilers wrap
it), hash every ``(thread_id, cycles, tag)`` in call order into a
SHA-256, and compare with digests recorded before the JVMTI event path
and the sampler hook were optimized.  A change that reorders, merges,
splits or hides a single charge changes a digest or a count.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.agents.sampling import SamplingProfiler
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jvm.threads import SimThread
from repro.workloads import get_workload

#: (agent, workload) -> (charge calls, SHA-256 of the charge sequence)
GOLDEN = {
    ("spa", "jess"): (
        70_171, "5981ae4b438344441e1182f81a9cd48d"
        "5df617cb2bac29ca56cdcf738f5c7a2b"),
    ("spa", "mtrt"): (
        495_716, "d5c6054f4bbd6514fe8e51bf2b7f3abc"
        "e2e73ef47a5026a6d64750841a7b21be"),
    ("ipa", "jess"): (
        19_029, "7dcbb5d4a8a7d35a2ff5743f9d4ccf13"
        "525de45ad88d3a04bb3cbe3f8ef7f5f5"),
    ("ipa", "mtrt"): (
        127_008, "ce45b68dc062fc5afebd1e663cfb6927"
        "4a0469c634a3ed328cec012c421836d7"),
    ("callchain", "jess"): (
        69_762, "34b7aa61befd1a525ddb10fa44ef1c0a"
        "7e65c70bfe8fd03ea185299f42408ace"),
    ("callchain", "mtrt"): (
        495_449, "0e5ec319e4ce7ad6ae17e41c8265a7b7"
        "0618faaf647fde8cbfe2a34f562d284b"),
}

#: SPA + ``SamplingProfiler(interval=4_000)`` on jess.  Interrupt
#: cycles are applied beside ``charge``, never through it, so the
#: sampled run's charge sequence is the unsampled run's.
SAMPLED_GOLDEN = GOLDEN[("spa", "jess")]
SAMPLED_CYCLES = 45_178_931
SAMPLED_REPORT = {
    "agent": "sampling", "interval": 4_000, "samples": 11_293,
    "samples_native": 7, "samples_bytecode": 510,
    "percent_native": 1.3539651837524178,
    "jni_calls": None, "native_method_calls": None,
}

_AGENTS = {"spa": AgentSpec.spa, "ipa": AgentSpec.ipa,
           "callchain": AgentSpec.callchain}


def _charge_digest(monkeypatch, workload: str, config: RunConfig):
    """Run ``workload`` and return (charge calls, digest, result)."""
    digest = hashlib.sha256()
    update = digest.update
    calls = [0]
    original = SimThread.charge

    def spy(thread, cycles, tag):
        calls[0] += 1
        update(b"%d %d %s\n" % (thread.thread_id, cycles,
                                tag.name.encode()))
        original(thread, cycles, tag)

    monkeypatch.setattr(SimThread, "charge", spy)
    result = execute(get_workload(workload), config)
    monkeypatch.undo()
    return calls[0], digest.hexdigest(), result


@pytest.mark.parametrize("agent,workload", sorted(GOLDEN))
def test_charge_sequence_is_pinned(monkeypatch, agent, workload):
    calls, digest, result = _charge_digest(
        monkeypatch, workload, RunConfig(agent=_AGENTS[agent]()))
    assert result.validation_ok, result.validation_detail
    assert (calls, digest) == GOLDEN[(agent, workload)]


def test_sampled_charge_sequence_is_pinned(monkeypatch):
    """Sampled threads still route every charge through the class-level
    ``SimThread.charge``: a sampler hook that bypassed it would hide
    charges from the spy while the sample counts still matched."""
    calls, digest, result = _charge_digest(
        monkeypatch, "jess", RunConfig(
            agent=AgentSpec.spa(),
            sampler=lambda: SamplingProfiler(interval=4_000)))
    assert (calls, digest) == SAMPLED_GOLDEN
    assert result.cycles == SAMPLED_CYCLES
    assert result.sampler_report == SAMPLED_REPORT
