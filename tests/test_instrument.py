"""Bytecode instrumentation: the Figure-2 wrapper, static and dynamic
drivers."""

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import Op
from repro.bytecode.verifier import verify_class
from repro.classfile.members import ACC_NATIVE
from repro.classfile.serializer import dump_class, load_class
from repro.errors import InstrumentationError
from repro.instrument.static_instr import (
    StaticInstrumenter,
    instrument_archives_cached,
)
from repro.instrument.wrapper_gen import (
    InstrumentationConfig,
    instrument_classfile,
)

from helpers import build_app


def _native_class():
    c = ClassAssembler("nat.C")
    c.native_method("compute", "(I[B)I", static=True)
    c.native_method("touch", "()V")  # instance
    with c.method("plain", "()V", static=True) as m:
        m.return_()
    return c.build()


class TestWrapperGeneration:
    def test_native_renamed_and_wrapper_added(self):
        cf = _native_class()
        config = InstrumentationConfig()
        wrapped = instrument_classfile(cf, config)
        assert wrapped == 2
        renamed = cf.find_method(config.prefix + "compute", "(I[B)I")
        assert renamed is not None and renamed.is_native
        wrapper = cf.find_method("compute", "(I[B)I")
        assert wrapper is not None and not wrapper.is_native

    def test_wrapper_structure_matches_figure_2(self):
        cf = _native_class()
        config = InstrumentationConfig()
        instrument_classfile(cf, config)
        wrapper = cf.find_method("compute", "(I[B)I")
        ops = [ins.op for ins in wrapper.code]
        # Begin, load args, invoke prefixed, End, return, End, athrow
        assert ops == [Op.INVOKESTATIC, Op.ILOAD, Op.ALOAD,
                       Op.INVOKESTATIC, Op.INVOKESTATIC, Op.IRETURN,
                       Op.INVOKESTATIC, Op.ATHROW]
        entry = wrapper.exception_table[0]
        assert entry.catch_type is None  # finally semantics
        assert entry.start == 1
        assert entry.end == 4

    def test_instance_wrapper_uses_invokespecial(self):
        cf = _native_class()
        instrument_classfile(cf, InstrumentationConfig())
        wrapper = cf.find_method("touch", "()V")
        ops = [ins.op for ins in wrapper.code]
        assert Op.INVOKESPECIAL in ops

    def test_instrumented_class_verifies(self):
        cf = _native_class()
        instrument_classfile(cf, InstrumentationConfig())
        verify_class(cf)

    def test_excluded_class_untouched(self):
        config = InstrumentationConfig()
        runtime = ClassAssembler(config.runtime_class)
        runtime.native_method("J2N_Begin", "()V", static=True)
        cf = runtime.build()
        assert instrument_classfile(cf, config) == 0

    def test_custom_exclusions(self):
        config = InstrumentationConfig(
            excluded_classes=("nat.C",))
        cf = _native_class()
        assert instrument_classfile(cf, config) == 0

    def test_double_instrumentation_detected(self):
        cf = _native_class()
        config = InstrumentationConfig()
        instrument_classfile(cf, config)
        with pytest.raises(InstrumentationError, match="double"):
            instrument_classfile(cf, config)

    def test_class_without_natives_untouched(self):
        c = ClassAssembler("pl.C")
        with c.method("f", "()V", static=True) as m:
            m.return_()
        assert instrument_classfile(c.build(),
                                    InstrumentationConfig()) == 0


class TestStaticInstrumenter:
    def test_archive_pass_preserves_unrelated_bytes(self):
        plain = ClassAssembler("pl.D")
        with plain.method("f", "()V", static=True) as m:
            m.return_()
        archive = build_app(plain)
        original_bytes = archive.get_bytes("pl.D")
        instrumenter = StaticInstrumenter()
        out = instrumenter.instrument_archive(archive)
        assert out.get_bytes("pl.D") == original_bytes

    def test_archive_pass_rewrites_native_classes(self):
        archive = build_app()
        archive.put_class(_native_class())
        instrumenter = StaticInstrumenter()
        out = instrumenter.instrument_archive(archive)
        cf = out.get_class("nat.C")
        assert cf.find_method("compute", "(I[B)I").is_native is False
        assert instrumenter.stats.classes_instrumented == 1
        assert instrumenter.stats.methods_wrapped == 2
        # the input archive is untouched
        assert archive.get_class("nat.C").find_method(
            "compute", "(I[B)I").is_native

    def test_runtime_library_instruments_cleanly(self):
        from repro.launcher import runtime_archive

        instrumenter = StaticInstrumenter()
        out = instrumenter.instrument_archive(runtime_archive())
        assert instrumenter.stats.methods_wrapped > 30
        for cf in out.classes():
            verify_class(cf)

    def test_memo_hits_on_rebuilt_archives(self):
        # every IPA cell rebuilds its workload: equal content must hit
        # the memo even though the archive objects differ
        from repro.launcher import runtime_archive
        from repro.workloads import get_workload

        first = [runtime_archive(), get_workload("db").archive]
        second = [runtime_archive(), get_workload("db").archive]
        assert first[1] is not second[1]
        out1, stats1 = instrument_archives_cached(first)
        out2, stats2 = instrument_archives_cached(second)
        assert stats1 is stats2
        assert all(a is b for a, b in zip(out1, out2))

    def test_serialized_roundtrip_of_instrumented_class(self):
        instrumenter = StaticInstrumenter()
        data = dump_class(_native_class())
        out = instrumenter.instrument_class_bytes(data)
        cf = load_class(out)
        prefix = instrumenter.config.prefix
        assert cf.find_method(prefix + "compute", "(I[B)I") is not None


class TestDynamicInstrumenter:
    def test_hook_transforms_and_charges(self):
        from repro.instrument.dynamic_instr import DynamicInstrumenter
        from repro.launcher import create_vm

        vm = create_vm()
        thread = vm.threads.create("t")
        vm.threads.current = thread
        env = vm.jvmti.attach(type("A", (), {"name": "a"})())
        instrumenter = DynamicInstrumenter()
        data = dump_class(_native_class())
        before = thread.cycles_total
        out = instrumenter.hook(env, "nat.C", data)
        assert out is not None
        assert thread.cycles_total > before
        cf = load_class(out)
        assert not cf.find_method("compute", "(I[B)I").is_native

    def test_hook_skips_plain_classes(self):
        from repro.instrument.dynamic_instr import DynamicInstrumenter
        from repro.launcher import create_vm

        vm = create_vm()
        thread = vm.threads.create("t")
        vm.threads.current = thread
        env = vm.jvmti.attach(type("A", (), {"name": "a"})())
        instrumenter = DynamicInstrumenter()
        c = ClassAssembler("pl.E")
        with c.method("f", "()V", static=True) as m:
            m.return_()
        assert instrumenter.hook(env, "pl.E",
                                 dump_class(c.build())) is None
