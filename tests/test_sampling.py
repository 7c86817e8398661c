"""The sampling-profiler baseline (related work, paper Section VI)."""

import pytest

from repro.agents.sampling import SAMPLE_COST, SamplingProfiler
from repro.harness.config import AgentSpec, RunConfig
from repro.harness.runner import execute
from repro.jvm.costmodel import ChargeTag
from repro.jvm.threads import SimThread
from repro.launcher import create_vm
from repro.workloads import get_workload

from test_agents import MixedWorkload


@pytest.fixture(scope="module")
def sampled():
    workload = MixedWorkload()
    base = execute(workload, RunConfig(agent=AgentSpec.none()))
    run = execute(workload, RunConfig(
        agent=AgentSpec.none(),
        sampler=lambda: SamplingProfiler(interval=5_000)))
    return base, run


class TestSamplingProfiler:
    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            SamplingProfiler(interval=0)

    def test_low_overhead(self, sampled):
        base, run = sampled
        overhead = run.cycles / base.cycles - 1
        assert overhead < 0.05  # a few percent at most

    def test_estimates_native_fraction(self, sampled):
        base, run = sampled
        truth = base.ground_truth_native_fraction * 100
        estimate = run.sampler_report["percent_native"]
        # sampling error: looser bound than IPA's
        assert estimate == pytest.approx(truth, abs=4.0)

    def test_sample_counts_scale_with_interval(self):
        workload = MixedWorkload()
        coarse = execute(workload, RunConfig(
            agent=AgentSpec.none(),
            sampler=lambda: SamplingProfiler(interval=50_000)))
        fine = execute(workload, RunConfig(
            agent=AgentSpec.none(),
            sampler=lambda: SamplingProfiler(interval=5_000)))
        assert fine.sampler_report["samples"] > \
            5 * coarse.sampler_report["samples"]

    def test_cannot_count_transitions(self, sampled):
        _, run = sampled
        assert run.sampler_report["jni_calls"] is None
        assert run.sampler_report["native_method_calls"] is None

    def test_no_sampler_no_report(self, sampled):
        base, _ = sampled
        assert base.sampler_report is None

    def test_sampling_cost_lands_in_vm_bucket(self, sampled):
        base, run = sampled
        assert run.ground_truth["vm"] > base.ground_truth["vm"]

    def test_works_on_a_real_workload(self):
        workload = get_workload("jess")
        base = execute(workload, RunConfig(agent=AgentSpec.none()))
        run = execute(workload, RunConfig(
            agent=AgentSpec.none(),
            sampler=lambda: SamplingProfiler(interval=4_000)))
        truth = base.ground_truth_native_fraction * 100
        assert run.sampler_report["percent_native"] == \
            pytest.approx(truth, abs=4.0)


class TestSampledThreads:
    def test_unsampled_threads_are_plain(self):
        vm = create_vm()
        assert type(vm.threads.create("t")) is SimThread

    def test_sampler_samples_threads_created_before_install(self):
        vm = create_vm()
        early = vm.threads.create("early")
        sampler = SamplingProfiler(interval=100)
        sampler.install(vm)
        late = vm.threads.create("late")
        for thread in (early, late):
            thread.charge(250, ChargeTag.BYTECODE)
            assert thread.cycles_total == 250 + 2 * SAMPLE_COST
            assert thread.cycles_by_tag[ChargeTag.VM] == 2 * SAMPLE_COST
        assert sampler.samples_bytecode == 4

    def test_class_level_charge_wrapper_sees_sampled_charges(
            self, monkeypatch):
        seen = []
        original = SimThread.charge

        def spy(thread, cycles, tag):
            seen.append((thread.name, cycles, tag))
            original(thread, cycles, tag)

        monkeypatch.setattr(SimThread, "charge", spy)
        vm = create_vm()
        SamplingProfiler(interval=100).install(vm)
        thread = vm.threads.create("t")
        thread.charge(250, ChargeTag.NATIVE)
        # the interrupt cost is applied beside charge, not through it
        assert seen == [("t", 250, ChargeTag.NATIVE)]
        assert thread.cycles_total == 250 + 2 * SAMPLE_COST
