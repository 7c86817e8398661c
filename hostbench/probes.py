"""Layer probes: time the simulator's layers from outside.

:class:`Patches` swaps a function or method for a wrapper and puts the
original back; a module-level function is replaced under every name a
``repro`` module imported it by, since ``from x import f`` copies the
binding.  :class:`LayerProbes` uses it to wrap each layer's public
entry points with :class:`~spans.Tracer` spans and boundary counts:

=================  =====================================================
layer              wrapped entry points
=================  =====================================================
``classfile``      ``serializer.load_class``
``bytecode``       ``verifier.verify_class`` (counts methods verified)
``classloader``    ``ClassLoader.load`` when the class is not yet loaded
``instrument``     ``StaticInstrumenter.instrument_archives``
``jit``            ``JitCompiler.compile``, ``template.translate``
``template``       every function ``TemplateCodeCache.install`` installs
``interpreter``    ``Interpreter.call_method`` and its dispatch loop
``jvmti``          ``JVMTIHost.dispatch_*``; agent callbacks are counted
``jni``            every callable ``NativeRegistry.resolve`` returns
``threads``        ``SimThread.charge``
``scheduler``      ``CoreScheduler.preempt/block_io/acquire_contended/join``
``service``        ``WarmVM.run``
``vm``             ``JavaVM.launch`` (boundary only; keeps ``service``
                   self time free of the run it wraps)
=================  =====================================================

Around every ``JavaVM.launch`` the probes also read the VM's own
counters and reconcile them with the wrapper counts taken over the same
window; a disagreement is recorded in :attr:`LayerProbes.mismatches`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, Tuple

from repro.bytecode import verifier
from repro.classfile import serializer
from repro.instrument.static_instr import StaticInstrumenter
from repro.jit import template as template_module
from repro.jit.codecache import TemplateCodeCache
from repro.jit.compiler import JitCompiler
from repro.jni.library import NativeRegistry
from repro.jvm.classloader import ClassLoader
from repro.jvm.interpreter import Interpreter
from repro.jvm.machine import JavaVM
from repro.jvm.scheduler import CoreScheduler
from repro.jvm.threads import SimThread
from repro.jvmti.host import JVMTIAgentEnv, JVMTIHost
from repro.service.warm import WarmVM

from spans import Tracer

#: Wrapper count -> the VM counter it must equal over a launch.
RECONCILED = (
    ("classes_loaded", lambda vm: vm.loader.classes_loaded),
    ("methods_verified", lambda vm: vm.methods_verified),
    ("templates_translated", lambda vm: vm.jit.templates_translated),
    ("jvmti_events", lambda vm: vm.jvmti.events_dispatched),
)

#: VM counters recorded per launch (read, not reconciled: no wrapper
#: boundary sees these events).
RECORDED = (
    ("instructions", lambda vm: vm.instructions_retired),
    ("call_cache_hits", lambda vm: vm.ic_hits + vm.pic_hits),
    ("call_cache_misses", lambda vm: vm.ic_misses),
    ("jni_calls", lambda vm: vm.jni_invocations),
    ("context_switches",
     lambda vm: vm.scheduler.context_switches if vm.scheduler else 0),
    ("monitor_contentions",
     lambda vm: vm.scheduler.monitor_contentions if vm.scheduler else 0),
    ("io_blocks",
     lambda vm: vm.scheduler.io_blocks if vm.scheduler else 0),
)

_DISPATCHERS = ("dispatch_vm_init", "dispatch_vm_death",
                "dispatch_thread_start", "dispatch_thread_end",
                "dispatch_method_entry", "dispatch_method_exit",
                "dispatch_class_file_load_hook")

_SCHEDULER_WAITS = ("preempt", "block_io", "acquire_contended", "join")


class Patches:
    """Attribute replacements that can all be put back."""

    def __init__(self):
        self._applied: List[Tuple[object, str, object, object]] = []

    def method(self, cls: type, name: str,
               make: Callable[[Callable], Callable]) -> None:
        """Replace ``cls.name`` with ``make(original)``."""
        original = cls.__dict__[name]
        replacement = make(original)
        setattr(cls, name, replacement)
        self._applied.append((cls, name, original, replacement))

    def function(self, fn: Callable,
                 make: Callable[[Callable], Callable]) -> None:
        """Replace module function ``fn`` under every ``repro`` module
        name bound to it with one ``make(fn)`` wrapper."""
        replacement = make(fn)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or
                                      module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, replacement)
                    self._applied.append(
                        (module, attr, fn, replacement))

    def restore(self) -> None:
        """Put every original back, newest first, and check it took."""
        for target, name, original, _ in reversed(self._applied):
            setattr(target, name, original)
        for target, name, original, _ in self._applied:
            current = (target.__dict__[name] if isinstance(target, type)
                       else getattr(target, name))
            if current is not original:
                raise RuntimeError(f"{target!r}.{name} was not restored")
        self._applied.clear()


class LayerProbes:
    """Every layer wrapper of the table above, installed together."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches = Patches()
        self.launches = 0
        #: One line per launch whose wrapper and VM counts disagreed.
        self.mismatches: List[str] = []

    def install(self) -> None:
        tracer = self.tracer
        wrap = tracer.wrap
        patch = self.patches
        patch.function(serializer.load_class,
                       lambda fn: wrap("classfile", fn))
        patch.function(verifier.verify_class, self._verify)
        patch.method(ClassLoader, "load", self._load)
        patch.method(StaticInstrumenter, "instrument_archives",
                     self._instrument)
        patch.method(JitCompiler, "compile", lambda fn: wrap("jit", fn))
        patch.function(template_module.translate,
                       lambda fn: wrap("jit", fn))
        patch.method(TemplateCodeCache, "install", self._install)
        patch.method(TemplateCodeCache, "invalidate", self._invalidate)
        patch.method(JitCompiler, "note_deopt",
                     lambda fn: self._counting("deopts", fn))
        patch.method(Interpreter, "call_method",
                     lambda fn: wrap("interpreter", fn))
        patch.method(Interpreter, "_run",
                     lambda fn: wrap("interpreter", fn))
        for name in _DISPATCHERS:
            patch.method(JVMTIHost, name, lambda fn: wrap("jvmti", fn))
        patch.method(JVMTIAgentEnv, "set_event_callbacks",
                     self._callbacks)
        patch.method(NativeRegistry, "resolve", self._resolve)
        patch.method(SimThread, "charge", lambda fn: wrap("threads", fn))
        for name in _SCHEDULER_WAITS:
            patch.method(CoreScheduler, name,
                         lambda fn: wrap("scheduler", fn))
        patch.method(WarmVM, "run", lambda fn: wrap("service", fn))
        patch.method(JavaVM, "launch", self._launch)

    def restore(self) -> None:
        self.patches.restore()
        if self.tracer.open_spans():
            raise RuntimeError(
                f"{self.tracer.open_spans()} spans still open after "
                f"the traced run")

    # -- wrappers ---------------------------------------------------------------

    def _counting(self, name: str, fn: Callable) -> Callable:
        count = self.tracer.count

        def counted(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return counted

    def _verify(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def verify_class(cf):
            span = tracer.open("bytecode")
            try:
                methods = fn(cf)
            finally:
                tracer.close(span)
            tracer.count("methods_verified", methods)
            return methods

        return verify_class

    def _load(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def load(loader, name):
            # a loaded (or initializing) class is a dictionary hit, not
            # a load: it opens no span and leaves the counts alone
            if loader.loaded_class(name) is not None:
                return fn(loader, name)
            span = tracer.open("classloader")
            try:
                loaded = fn(loader, name)
            finally:
                tracer.close(span)
            tracer.count("classes_loaded")
            return loaded

        return load

    def _instrument(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def instrument_archives(instrumenter, archives):
            span = tracer.open("instrument")
            try:
                result = fn(instrumenter, archives)
            finally:
                tracer.close(span)
            tracer.count("archives_instrumented", len(result))
            return result

        return instrument_archives

    def _install(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def install(cache, method, func, source):
            tracer.count("templates_translated")
            return fn(cache, method, self._template(func), source)

        return install

    def _template(self, func: Callable) -> Callable:
        tracer = self.tracer
        count = tracer.count

        def template(*args):
            # (interp, thread, frame) for a call; a fourth argument is
            # the loop pc of an on-stack replacement entry
            if len(args) == 4:
                count("osr_entries")
            span = tracer.open("template")
            try:
                return func(*args)
            finally:
                tracer.close(span)

        template.__dict__.update(func.__dict__)
        return template

    def _invalidate(self, fn: Callable) -> Callable:
        tracer = self.tracer

        def invalidate(cache, method, reason):
            if method.template is not None:
                tracer.count("templates_invalidated")
            return fn(cache, method, reason)

        return invalidate

    def _callbacks(self, fn: Callable) -> Callable:
        probes = self

        def set_event_callbacks(env, callbacks):
            return fn(env, {event: probes._counting("jvmti_events", cb)
                            for event, cb in callbacks.items()})

        return set_event_callbacks

    def _resolve(self, fn: Callable) -> Callable:
        wrap = self.tracer.wrap

        def resolve(registry, method):
            impl = fn(registry, method)
            return None if impl is None else wrap("jni", impl)

        return resolve

    def _launch(self, fn: Callable) -> Callable:
        probes = self
        tracer = self.tracer

        def launch(vm, main_class):
            owner = tracer.owner
            before = probes._read(vm, owner)
            span = tracer.open("vm")
            try:
                result = fn(vm, main_class)
            finally:
                tracer.close(span)
            probes._settle(vm, owner, before)
            return result

        return launch

    def _read(self, vm, owner: str) -> Dict[str, Tuple[int, int]]:
        counts = self.tracer.counts
        readings = {name: (counts.get((owner, name), 0), read(vm))
                    for name, read in RECONCILED}
        readings.update((name, (0, read(vm))) for name, read in RECORDED)
        return readings

    def _settle(self, vm, owner: str,
                before: Dict[str, Tuple[int, int]]) -> None:
        self.launches += 1
        after = self._read(vm, owner)
        wrong = []
        for name, _ in RECONCILED:
            wrapped = after[name][0] - before[name][0]
            native = after[name][1] - before[name][1]
            if wrapped != native:
                wrong.append(f"{name} wrappers={wrapped} vm={native}")
        if wrong:
            self.mismatches.append(f"{owner}: " + ", ".join(wrong))
        for name, _ in RECORDED:
            self.tracer.count(name, after[name][1] - before[name][1])
