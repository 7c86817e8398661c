"""JVMTI layer: capabilities, events, TLS, raw monitors, interception,
prefixing, version gating."""

import pytest

from repro.errors import JVMTIError
from repro.jvm.machine import VMConfig
from repro.jvmti.agent import AgentBase
from repro.jvmti.capabilities import Capabilities
from repro.jvmti.events import JvmtiEvent
from repro.jvmti.host import JVMTI_VERSION_1_0, JVMTI_VERSION_1_1
from repro.jvmti.raw_monitor import RawMonitor
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main


class RecordingAgent(AgentBase):
    """Collects every event it subscribes to."""

    name = "recorder"

    def __init__(self, events=None, caps=None):
        super().__init__()
        self.received = []
        self._events = events or [JvmtiEvent.VM_INIT,
                                  JvmtiEvent.VM_DEATH,
                                  JvmtiEvent.THREAD_START,
                                  JvmtiEvent.THREAD_END]
        self._caps = caps or Capabilities()

    def on_load(self, env):
        super().on_load(env)
        env.add_capabilities(self._caps)
        callbacks = {
            JvmtiEvent.VM_INIT:
                lambda env_: self.received.append(("vm_init",)),
            JvmtiEvent.VM_DEATH:
                lambda env_: self.received.append(("vm_death",)),
            JvmtiEvent.THREAD_START:
                lambda env_, t: self.received.append(
                    ("thread_start", t.name)),
            JvmtiEvent.THREAD_END:
                lambda env_, t: self.received.append(
                    ("thread_end", t.name)),
            JvmtiEvent.METHOD_ENTRY:
                lambda env_, t, meth: self.received.append(
                    ("entry", meth.qualified_name)),
            JvmtiEvent.METHOD_EXIT:
                lambda env_, t, meth, exc: self.received.append(
                    ("exit", meth.qualified_name, exc)),
        }
        env.set_event_callbacks(callbacks)
        for event in self._events:
            env.enable_event(event)


def _simple_app(name="ev.Main"):
    return build_app(expr_main(name, lambda m: m.iconst(1)))


class TestCapabilities:
    def test_merge(self):
        merged = Capabilities(
            can_generate_method_entry_events=True).merged_with(
            Capabilities(can_set_native_method_prefix=True))
        assert merged.can_generate_method_entry_events
        assert merged.can_set_native_method_prefix

    def test_disables_jit_property(self):
        assert Capabilities(
            can_generate_method_entry_events=True).disables_jit
        assert Capabilities(
            can_generate_method_exit_events=True).disables_jit
        assert not Capabilities(
            can_set_native_method_prefix=True).disables_jit

    def test_method_entry_event_requires_capability(self):
        vm = create_vm()
        agent = AgentBase()
        env = vm.jvmti.attach(agent)
        env.set_event_callbacks(
            {JvmtiEvent.METHOD_ENTRY: lambda *a: None})
        with pytest.raises(JVMTIError, match="can_generate"):
            env.enable_event(JvmtiEvent.METHOD_ENTRY)

    def test_callback_required_before_enable(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        with pytest.raises(JVMTIError, match="callback"):
            env.enable_event(JvmtiEvent.VM_DEATH)


class TestVersionGating:
    def test_prefix_capability_rejected_on_1_0(self):
        vm = create_vm(VMConfig(jvmti_version=JVMTI_VERSION_1_0))
        env = vm.jvmti.attach(AgentBase())
        with pytest.raises(JVMTIError, match="1.1"):
            env.add_capabilities(
                Capabilities(can_set_native_method_prefix=True))

    def test_prefix_capability_allowed_on_1_1(self):
        vm = create_vm(VMConfig(jvmti_version=JVMTI_VERSION_1_1))
        env = vm.jvmti.attach(AgentBase())
        env.add_capabilities(
            Capabilities(can_set_native_method_prefix=True))
        env.set_native_method_prefix("_x_")
        assert vm.jvmti.native_method_prefixes == ["_x_"]

    def test_prefix_requires_capability(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        with pytest.raises(JVMTIError):
            env.set_native_method_prefix("_x_")

    def test_spa_runs_on_jvmti_1_0(self):
        # the paper notes SPA only needs JVMTI 1.0 (even JVMPI)
        from repro.agents.spa import SPA

        vm = run_main(_simple_app("v10.Main"), "v10.Main",
                      agents=[SPA()],
                      config=VMConfig(jvmti_version=JVMTI_VERSION_1_0))
        assert vm.agents[0].report()["vm_death_seen"]

    def test_ipa_needs_jvmti_1_1(self):
        from repro.agents.ipa import IPA

        vm = create_vm(VMConfig(jvmti_version=JVMTI_VERSION_1_0))
        with pytest.raises(JVMTIError):
            vm.attach_agent(IPA())


class TestEventDelivery:
    def test_lifecycle_events(self):
        agent = RecordingAgent()
        vm = run_main(_simple_app(), "ev.Main", agents=[agent])
        kinds = [item[0] for item in agent.received]
        assert kinds[0] == "vm_init"
        assert kinds[-1] == "vm_death"
        # bootstrapping (main) thread gets NO ThreadStart (the paper's
        # Section III point), but does get ThreadEnd
        assert ("thread_start", "main") not in agent.received
        assert ("thread_end", "main") in agent.received

    def test_worker_threads_get_thread_start(self):
        from repro.bytecode.assembler import ClassAssembler

        worker = ClassAssembler("evt.W", super_name="java.lang.Thread")
        with worker.method("run", "()V") as m:
            m.return_()
        main = ClassAssembler("evt.Main")
        with main.method("main", "()V", static=True) as m:
            m.new("evt.W").dup()
            m.invokespecial("evt.W", "<init>", "()V").astore(0)
            m.aload(0).invokevirtual("evt.W", "start", "()V")
            m.aload(0).invokevirtual("evt.W", "join", "()V")
            m.return_()
        agent = RecordingAgent()
        vm = run_main(build_app(worker, main), "evt.Main",
                      agents=[agent])
        starts = [item for item in agent.received
                  if item[0] == "thread_start"]
        assert len(starts) == 1

    def test_method_events_include_native_and_exceptional_exit(self):
        from repro.bytecode.assembler import ClassAssembler

        c = ClassAssembler("me.C")
        with c.method("boom", "()V", static=True) as m:
            m.aconst_null().arraylength().pop()
            m.return_()
        main = ClassAssembler("me.Main")
        with main.method("main", "()V", static=True) as m:
            m.label("try")
            m.invokestatic("me.C", "boom", "()V")
            m.label("try_end")
            m.return_()
            m.label("h")
            m.pop().return_()
            m.try_catch("try", "try_end", "h", None)
        caps = Capabilities(can_generate_method_entry_events=True,
                            can_generate_method_exit_events=True)
        agent = RecordingAgent(
            events=[JvmtiEvent.METHOD_ENTRY, JvmtiEvent.METHOD_EXIT],
            caps=caps)
        run_main(build_app(c, main), "me.Main", agents=[agent])
        exits = {item[1]: item[2] for item in agent.received
                 if item[0] == "exit"}
        assert exits["me.C.boom()V"] is True      # popped by exception
        assert exits["me.Main.main()V"] is False
        natives = [item for item in agent.received
                   if item[0] == "entry" and "arraycopy" in item[1]]
        # (no arraycopy here, but native entries exist for println etc)
        entries = [item[1] for item in agent.received
                   if item[0] == "entry"]
        assert any(".main()V" in name for name in entries)

    def test_event_dispatch_charges_agent_cycles(self):
        agent = RecordingAgent()
        vm = run_main(_simple_app("ch.Main"), "ch.Main",
                      agents=[agent])
        assert vm.ground_truth()["agent"] > 0

    def test_two_agents_both_receive(self):
        first, second = RecordingAgent(), RecordingAgent()
        run_main(_simple_app("two.Main"), "two.Main",
                 agents=[first, second])
        assert ("vm_death",) in first.received
        assert ("vm_death",) in second.received


class TestTlsAndMonitors:
    def test_tls_round_trip(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        thread = vm.threads.create("t")
        vm.threads.current = thread
        assert env.tls_get(thread) is None
        env.tls_put(thread, {"x": 1})
        assert env.tls_get(thread) == {"x": 1}

    def test_tls_null_means_current_thread(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        thread = vm.threads.create("t")
        vm.threads.current = thread
        env.tls_put(None, "payload")
        assert env.tls_get(None) == "payload"

    def test_tls_without_current_thread_fails(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        with pytest.raises(JVMTIError):
            env.tls_get(None)

    def test_tls_is_per_agent(self):
        vm = create_vm()
        env1 = vm.jvmti.attach(AgentBase())
        env2 = vm.jvmti.attach(AgentBase())
        thread = vm.threads.create("t")
        vm.threads.current = thread
        env1.tls_put(thread, "one")
        assert env2.tls_get(thread) is None

    def test_raw_monitor_reentrant(self):
        monitor = RawMonitor("m")
        thread = object.__new__(type("T", (), {"name": "t"}))
        monitor.enter(thread)
        monitor.enter(thread)
        monitor.exit(thread)
        assert monitor.held
        monitor.exit(thread)
        assert not monitor.held

    def test_raw_monitor_wrong_owner(self):
        monitor = RawMonitor("m")
        t1 = type("T", (), {"name": "a"})()
        t2 = type("T", (), {"name": "b"})()
        monitor.enter(t1)
        with pytest.raises(JVMTIError):
            monitor.exit(t2)


class TestInterception:
    def test_wrapping_call_table_sees_invocations(self):
        vm = create_vm()
        env = vm.jvmti.attach(AgentBase())
        seen = []
        table = env.get_jni_function_table()

        def wrap(name, original):
            def wrapper(jni_env, *args):
                seen.append(name)
                return original(jni_env, *args)

            return wrapper

        env.set_jni_function_table({
            name: wrap(name, table[name]) for name in table})
        vm.loader.add_classpath_archive(_simple_app("ic.Main"))
        vm.launch("ic.Main")
        # the launcher enters main through CallStaticVoidMethod
        assert "CallStaticVoidMethod" in seen


_METHOD_CAPS = Capabilities(can_generate_method_entry_events=True,
                            can_generate_method_exit_events=True)


class TestDispatchTargets:
    """Delivery iterates per-event (env, callback) tuples built when an
    agent changes its callbacks or enabled events; these pin the JVMTI
    semantics that prebuilding must keep."""

    def test_callbacks_set_after_enable_are_delivered(self):
        class Swapper(AgentBase):
            def on_load(self, env):
                super().on_load(env)
                self.old, self.new = [], []
                env.set_event_callbacks(
                    {JvmtiEvent.VM_DEATH: lambda e: self.old.append(1)})
                env.enable_event(JvmtiEvent.VM_DEATH)
                env.set_event_callbacks(
                    {JvmtiEvent.VM_DEATH: lambda e: self.new.append(1)})

        agent = Swapper()
        run_main(_simple_app("sw.Main"), "sw.Main", agents=[agent])
        assert (agent.old, agent.new) == ([], [1])

    def test_disable_method_entry_mid_run(self):
        class StopsAfterThree(AgentBase):
            def on_load(self, env):
                super().on_load(env)
                self.entries = 0
                self.exits = 0
                env.add_capabilities(_METHOD_CAPS)
                env.set_event_callbacks({
                    JvmtiEvent.METHOD_ENTRY: self.entry,
                    JvmtiEvent.METHOD_EXIT: self.exit,
                })
                env.enable_event(JvmtiEvent.METHOD_ENTRY)
                env.enable_event(JvmtiEvent.METHOD_EXIT)

            def entry(self, env, thread, method):
                self.entries += 1
                if self.entries == 3:
                    env.disable_event(JvmtiEvent.METHOD_ENTRY)

            def exit(self, env, thread, method, by_exception):
                self.exits += 1

        agent = StopsAfterThree()
        vm = run_main(_simple_app("dis.Main"), "dis.Main",
                      agents=[agent])
        assert agent.entries == 3
        assert agent.exits > 3
        assert vm.jvmti.method_entry_enabled is False
        assert vm.jvmti.method_exit_enabled is True
        assert vm.jvmti.dispatch_counts["METHOD_ENTRY"] == 3
        assert vm.jvmti.dispatch_counts["METHOD_EXIT"] == agent.exits

    def test_agents_receive_in_attach_order_each_charged(
            self, monkeypatch):
        from repro.jvm.costmodel import ChargeTag
        from repro.jvm.threads import SimThread

        log = []
        original = SimThread.charge

        def spy(thread, cycles, tag):
            if tag is ChargeTag.AGENT:
                log.append(("charge", cycles))
            original(thread, cycles, tag)

        class Logger(AgentBase):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def on_load(self, env):
                super().on_load(env)
                env.add_capabilities(_METHOD_CAPS)
                env.set_event_callbacks({
                    JvmtiEvent.METHOD_ENTRY:
                        lambda e, t, m: log.append((self.name, "entry")),
                    JvmtiEvent.METHOD_EXIT:
                        lambda e, t, m, x: log.append((self.name, "exit")),
                })
                env.enable_event(JvmtiEvent.METHOD_ENTRY)
                env.enable_event(JvmtiEvent.METHOD_EXIT)

        monkeypatch.setattr(SimThread, "charge", spy)
        vm = create_vm()
        cost = vm.cost_model.jvmti_event_dispatch
        run_main(_simple_app("ord.Main"), "ord.Main", vm=vm,
                 agents=[Logger("first"), Logger("second")])
        # the loggers charge nothing themselves, so every AGENT charge
        # is a delivery's dispatch cost
        events = vm.jvmti.dispatch_counts
        deliveries = events["METHOD_ENTRY"] + events["METHOD_EXIT"]
        assert deliveries > 0 and deliveries % 2 == 0
        assert len(log) == 2 * deliveries
        for i in range(0, len(log), 4):
            charge_a, (first, kind), charge_b, (second, kind_b) = \
                log[i:i + 4]
            assert charge_a == charge_b == ("charge", cost)
            assert (first, second) == ("first", "second")
            assert kind == kind_b

    def test_events_dispatched_is_sum_of_counts(self):
        agent = RecordingAgent(
            events=[JvmtiEvent.VM_INIT, JvmtiEvent.VM_DEATH,
                    JvmtiEvent.THREAD_END, JvmtiEvent.METHOD_ENTRY,
                    JvmtiEvent.METHOD_EXIT], caps=_METHOD_CAPS)
        vm = run_main(_simple_app("sum.Main"), "sum.Main",
                      agents=[agent])
        counts = vm.jvmti.dispatch_counts
        assert vm.jvmti.events_dispatched == sum(counts.values())
        assert vm.jvmti.events_dispatched == len(agent.received)
        assert set(counts) == {"VM_INIT", "VM_DEATH", "THREAD_END",
                               "METHOD_ENTRY", "METHOD_EXIT"}
        # a view: writing to it cannot change the host's counts
        counts["METHOD_ENTRY"] = 0
        assert vm.jvmti.dispatch_counts["METHOD_ENTRY"] > 0

    def test_spa_method_entries_match_dispatch_count(self):
        from repro.agents.spa import SPA

        spa = SPA()
        vm = run_main(_simple_app("spa.Main"), "spa.Main",
                      agents=[spa])
        report = spa.report()
        invocations = (report["java_method_invocations"]
                       + report["native_method_invocations"])
        assert report["native_method_invocations"] > 0
        assert vm.jvmti.dispatch_counts["METHOD_ENTRY"] == invocations
