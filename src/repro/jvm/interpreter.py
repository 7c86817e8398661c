"""The bytecode interpreter.

Execution model
---------------

Each thread owns an explicit frame stack; :meth:`Interpreter.call_method`
pushes a frame and drives the inner loop until the stack returns to its
entry depth, so Java-to-Java calls never consume Python stack.  The loop
re-enters Python recursion only at native boundaries: a ``native`` method
runs as a host callable, and if that callable invokes Java code through a
JNI ``Call*Method*`` function, a nested :meth:`call_method` runs on the
same thread's frame stack.

Host-speed engineering (accounting-invariant)
---------------------------------------------

The dispatch loop is written for host throughput, under one hard rule:
**wall-clock optimizations must leave simulated cycle accounting
bit-identical.**  Concretely:

* The loop (``Interpreter._run``) is generated at import from the
  opcode fragments of :mod:`repro.jit.opdefs`, which the template tier
  renders too.  It dispatches over pre-decoded per-method opcode/operand
  tuples (:class:`~repro.jvm.classloader.LoadedMethod` ``ops``/
  ``operands``) with plain-int comparisons ordered by measured dynamic
  frequency, and keeps all loop state in function locals.
* Constant-pool operands are **quickened**: a site's first execution
  resolves through the constant pool, class loader, and method tables
  and parks the result on the instruction (``Instruction.quick``);
  ``INVOKEVIRTUAL`` also keeps a polymorphic inline cache (see
  :meth:`Interpreter._pic_miss`).  Classes are immutable after link, so
  no invalidation is ever needed.  Resolution charges **zero**
  simulated cycles, and every ``FLUSH`` happens on cache hits too, so
  the *sequence* of ``thread.charge`` calls (observable by host-side
  samplers) is unchanged, not just the totals.

Cycle accounting
----------------

Per-instruction costs come from the executing method's *active* cost
array (interpreted or compiled — the JIT swaps it).  Costs accumulate in
a loop-local counter and are flushed to the thread — tagged
``BYTECODE`` — at every boundary where simulated time becomes
observable: method entry/exit, native calls, JVMTI event dispatch, and
exception dispatch.  This guarantees that any PCL timestamp read inside
an agent callback or native function sees an up-to-date counter.

Exceptions
----------

Java exceptions unwind frame by frame, honouring exception tables and
firing ``MethodExit`` events for every popped frame (the JVMTI contract
the paper's SPA depends on).  An exception that unwinds past the entry
depth of a :meth:`call_method` activation is surfaced to the host caller
as an :class:`Unwind`; at the thread's top level the machine records it
as the thread's uncaught exception.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from repro.bytecode.opcodes import Op
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.errors import (
    DeadlockError,
    NoSuchFieldError,
    NoSuchMethodError,
    StackOverflowSimError,
    VMError,
)
from repro.jvm.costmodel import ChargeTag
from repro.jvm.frame import Frame
from repro.jvm.values import JObject

class Unwind(Exception):
    """A Java exception crossing a host (native/JNI) boundary."""

    def __init__(self, jobject):
        super().__init__(getattr(jobject, "class_name", "<exception>"))
        self.jobject = jobject


class _Throw(Exception):
    """Internal signal: a handler raised a Java exception.

    ``exc_obj`` carries an existing throwable (ATHROW, native Unwind);
    when it is None the dispatcher synthesizes ``class_name`` with
    ``message`` — exactly what ``throw_vm`` did in the closure-based
    loop, but without forcing the hot path's locals into cells.
    """

    __slots__ = ("exc_obj", "class_name", "message")

    def __init__(self, exc_obj, class_name=None, message=""):
        self.exc_obj = exc_obj
        self.class_name = class_name
        self.message = message


class Interpreter:
    """Executes bytecode for one :class:`~repro.jvm.machine.JavaVM`."""

    def __init__(self, vm):
        self._vm = vm

    # -- public entry points -----------------------------------------------------

    def call_method(self, thread, method, args: List):
        """Invoke ``method`` with ``args`` on ``thread``; return its result.

        Fires the same events a bytecode-level invocation would.  Raises
        :class:`Unwind` if a Java exception escapes the call.
        """
        if method.is_native:
            return self._invoke_native(thread, method, args)
        self._enter_bytecode_method(thread, method, args)
        return self._run(thread, len(thread.frames) - 1)

    def synthesize_exception(self, thread, class_name: str,
                             message: str = "") -> JObject:
        """Allocate a VM-synthesized exception object (no constructor)."""
        vm = self._vm
        cls = vm.loader.load(class_name)
        obj = vm.heap.alloc_object(cls)
        if message:
            obj.fields["message"] = vm.intern_string(message)
        return obj

    def throw(self, thread, class_name: str, message: str = ""):
        """Raise a Java exception from host code (native implementations)."""
        raise Unwind(self.synthesize_exception(thread, class_name, message))

    # -- method entry/exit helpers ----------------------------------------------

    def _enter_bytecode_method(self, thread, method, args: List) -> None:
        vm = self._vm
        if len(thread.frames) >= vm.cost_model.max_frames:
            raise StackOverflowSimError(
                f"simulated stack overflow in {method.qualified_name}")
        method.invocation_count += 1
        jit = vm.jit
        # cheapest test first: hot methods are compiled
        if (not method.compiled
                and method.invocation_count >= jit.policy.invoke_threshold
                and jit.enabled):
            jit.compile(thread, method)
        jvmti = vm.jvmti
        if jvmti.method_entry_enabled:
            jvmti.dispatch_method_entry(thread, method)
        thread.frames.append(Frame(method, args))
        vm.method_invocations += 1

    def _exit_method_event(self, thread, method,
                           by_exception: bool) -> None:
        vm = self._vm
        if vm.jvmti.method_exit_enabled:
            vm.jvmti.dispatch_method_exit(thread, method, by_exception)

    def _invoke_native(self, thread, method, args: List):
        """Run a native method to completion on the host."""
        vm = self._vm
        if vm.jvmti.method_entry_enabled:
            vm.jvmti.dispatch_method_entry(thread, method)
        impl = method.native_impl
        if not method.native_resolved:
            impl = vm.native_registry.resolve(method)
            if impl is None:
                exc = self.synthesize_exception(
                    thread, "java.lang.UnsatisfiedLinkError",
                    method.qualified_name)
                self._exit_method_event(thread, method, by_exception=True)
                raise Unwind(exc)
            method.native_impl = impl
            method.native_resolved = True
            vm.native_methods_invoked.add(method.qualified_name)
        thread.charge(vm.cost_model.native_invoke_base, ChargeTag.NATIVE)
        vm.native_invocations += 1
        env = vm.jni_env(thread)
        # attribution key for blocked-time and causal rescaling; envs
        # are per-call, so nested natives each carry their own name
        env.native_name = method.qualified_name
        obs = vm.obs
        entered = thread.cycles_total if obs.enabled else 0
        try:
            result = impl(env, *args)
        except Unwind:
            if obs.enabled:
                self._observe_j2n(obs, thread, method, entered)
            self._exit_method_event(thread, method, by_exception=True)
            raise
        if obs.enabled:
            self._observe_j2n(obs, thread, method, entered)
        self._exit_method_event(thread, method, by_exception=False)
        return result

    @staticmethod
    def _observe_j2n(obs, thread, method, entered: int) -> None:
        """Record one J2N (bytecode -> native) span; observes the
        per-thread cycle counter without charging it."""
        now = thread.cycles_total
        obs.tracer.complete(method.qualified_name, "j2n",
                            thread.thread_id, entered, now)
        obs.metrics.observe("j2n_span_cycles", now - entered)

    # -- template-tier throw helpers ---------------------------------------------

    def _template_throw(self, thread, frame, pc: int, class_name: str,
                        message: str, pending: int, icount: int):
        """Raise a VM-synthesized exception from template code.

        Mirrors the ``_Throw`` handler of :meth:`_run` exactly: sync the
        pc, synthesize (which may load classes and charge VM cycles)
        *before* flushing pending bytecode cycles, then hand the object
        back for dispatch."""
        frame.pc = pc
        exc_obj = self.synthesize_exception(thread, class_name, message)
        if pending:
            thread.charge(pending, ChargeTag.BYTECODE)
        if icount:
            self._vm.instructions_retired += icount
        return (2, exc_obj)

    def _template_raise(self, thread, frame, pc: int, exc_obj,
                        pending: int, icount: int):
        """ATHROW of an existing throwable from template code."""
        frame.pc = pc
        if pending:
            thread.charge(pending, ChargeTag.BYTECODE)
        if icount:
            self._vm.instructions_retired += icount
        return (2, exc_obj)

    def _template_call_finish(self, thread, outcome, base: int):
        """Finish a template-to-template direct call that did not
        return normally.

        ``base`` is the callee frame's index.  Deopt (``outcome[0] ==
        1``): the reconstructed frame reinterprets under :meth:`_run`.
        Exception (``outcome[0] == 2``): dispatch from the callee — a
        handler inside it resumes interpreting there; an escaping
        exception raises :class:`Unwind` for the calling template's
        handler arm.  Either way :meth:`_run` carries the activation to
        its return, exactly as if the call had gone through it from the
        start."""
        if outcome[0] == 2:
            self._dispatch_exception(thread, thread.frames, base,
                                     outcome[1])
        return self._run(thread, base)

    # -- invokevirtual polymorphic inline cache -----------------------------------

    def _pic_miss(self, q, receiver_class):
        """Slow path of the invokevirtual PIC (both tiers share it).

        The caller already failed the first-entry identity test
        (``receiver_class is q[4]``) — the monomorphic fast path stays a
        single comparison.  ``q[6]``/``q[7]`` extend the cache to
        :attr:`~repro.jit.policy.JitPolicy.pic_depth` entries:

        * ``q[6] is None`` — monomorphic (or unseeded): only ``q[4]``/
          ``q[5]`` are populated;
        * ``q[6]`` is a list — polymorphic: up to ``pic_depth - 1``
          overflow (class, method) pairs in ``q[6]``/``q[7]``;
        * ``q[6] is False`` — megamorphic: the cache gave up and every
          dispatch walks the receiver class's (memoized) method table.

        All resolution here is host-only work charging zero simulated
        cycles, exactly like the monomorphic miss path it replaces, so
        cycle accounting is bit-identical across cache states.
        """
        vm = self._vm
        rest = q[6]
        if rest:
            methods = q[7]
            for i, cls in enumerate(rest):
                if cls is receiver_class:
                    vm.pic_hits += 1
                    return methods[i]
        vm.ic_misses += 1
        dispatched = receiver_class.resolve_method(q[2], q[3])
        resolved = dispatched if dispatched is not None else q[0]
        if rest is False:  # megamorphic: caching abandoned for good
            vm.pic_megamorphic += 1
            return resolved
        if q[4] is None:  # first execution: seed the monomorphic entry
            q[4] = receiver_class
            q[5] = resolved
            return resolved
        extra = vm.jit.policy.pic_depth - 1
        if rest is None:
            if extra > 0:
                q[6] = [receiver_class]
                q[7] = [resolved]
                vm.pic_mono_to_poly += 1
            else:  # pic_depth == 1: the old monomorphic cache, which
                # goes straight to megamorphic on a second class
                q[6] = False
                vm.pic_poly_to_mega += 1
        elif len(rest) < extra:
            rest.append(receiver_class)
            q[7].append(resolved)
        else:  # all pic_depth entries taken: go megamorphic
            q[6] = False
            q[7] = None
            vm.pic_poly_to_mega += 1
        return resolved

    # -- monitor support --------------------------------------------------------------

    def _sequential_monitor_deadlock(self, thread, obj) -> DeadlockError:
        """Contended MONITORENTER under the sequential model: the owner
        is suspended below us on the host stack and can only release
        after we return — a guaranteed wait-for cycle."""
        owner = obj.monitor_owner
        cycle = [(thread.name, f"monitor of {obj!r}", owner.name),
                 (owner.name, "host-stack resumption", thread.name)]
        return DeadlockError(
            f"deadlock: monitor of {obj!r} held by {owner.name} while "
            f"{thread.name} runs (sequential model): "
            + DeadlockError.render_cycle(cycle), cycle=cycle)

    # -- exception dispatch -----------------------------------------------------------

    def _dispatch_exception(self, thread, frames, base: int,
                            exc_obj) -> None:
        """Unwind until a handler is found; leaves the handler frame on
        top with its pc at the handler.  Raises :class:`Unwind` when the
        exception escapes this activation."""
        while True:
            current = frames[-1]
            m = current.method
            handler_pc = self._find_handler(m, current.pc, exc_obj)
            if handler_pc is not None:
                current.stack.clear()
                current.stack.append(exc_obj)
                current.pc = handler_pc
                return
            self._exit_method_event(thread, m, by_exception=True)
            frames.pop()
            if len(frames) == base:
                raise Unwind(exc_obj)

    # -- exception-table search -------------------------------------------------------

    def _find_handler(self, method, pc: int, exc_obj) -> Optional[int]:
        for entry in method.info.exception_table:
            if entry.start <= pc < entry.end:
                if entry.catch_type is None:
                    return entry.handler
                jclass = getattr(exc_obj, "jclass", None)
                if jclass is not None and \
                        jclass.is_subclass_of(entry.catch_type):
                    return entry.handler
        return None


# -- the generated dispatch loop ---------------------------------------------
#
# ``Interpreter._run`` is generated once, here, from the opcode fragments
# of repro.jit.opdefs.  Imported late: importing the jit package imports
# this module (for Unwind) first.

from repro.jit.opdefs import FRAGMENT_GLOBALS, OPDEFS, render  # noqa: E402

#: If-chain order: measured dynamic frequency, hottest first.  A tuple
#: is a family of contiguous opcodes tested by range, whose members share
#: a control-transfer skeleton (branch, return, invoke).
_ORDER = (
    Op.ILOAD, Op.ALOAD, Op.ICONST, Op.ISTORE, Op.ASTORE,
    (Op.GOTO, Op.IF_ICMPGE, Op.IF_ICMPNE, Op.IFNE, Op.IF_ICMPLT,
     Op.IF_ICMPLE, Op.IFEQ, Op.IFGE, Op.IFLT, Op.IFLE, Op.IFGT,
     Op.IF_ICMPEQ, Op.IF_ICMPGT, Op.IFNULL, Op.IFNONNULL, Op.IF_ACMPEQ,
     Op.IF_ACMPNE),
    Op.GETFIELD, Op.IALOAD, Op.AALOAD, Op.IAND, Op.IADD, Op.IINC,
    (Op.RETURN, Op.IRETURN, Op.ARETURN),
    (Op.INVOKESTATIC, Op.INVOKEVIRTUAL, Op.INVOKESPECIAL),
    Op.IMUL, Op.ISHR, Op.ISHL, Op.IXOR, Op.IASTORE, Op.AASTORE, Op.ISUB,
    Op.LDC, Op.PUTFIELD, Op.GETSTATIC, Op.PUTSTATIC, Op.IDIV, Op.IREM,
    Op.FDIV, Op.INEG, Op.IUSHR, Op.IOR, Op.I2F, Op.F2I, Op.FCMP, Op.POP,
    Op.DUP, Op.DUP_X1, Op.SWAP, Op.ACONST_NULL, Op.NEW, Op.NEWARRAY,
    Op.ARRAYLENGTH, Op.INSTANCEOF, Op.CHECKCAST, Op.ATHROW,
    Op.MONITORENTER, Op.MONITOREXIT, Op.NOP,
)

_RUN = """\
def _run(self, thread, base):
    interp = self
    vm = self._vm
    loader = vm.loader
    heap = vm.heap
    jit = vm.jit
    jvmti = vm.jvmti
    frames = thread.frames
    charge = thread.charge
    CT = ChargeTag.BYTECODE
    # preemptive scheduler, or None under the sequential model;
    # hoisted so safepoint checks are one local load
    SP = vm.scheduler
    # race sanitizer (host-side shadow state), or None when off
    SAN = vm.sanitizer
    # on-stack replacement gate, hoisted for the backedge hot path
    osr_on = jit.enabled and jit.policy.osr
    # opcode constants as fast locals
#CONSTANTS
    while True:
        # (re)load per-frame state; one outer iteration per
        # call/return/exception boundary
        frame = frames[-1]
        method = frame.method
        # tier dispatch: a fresh activation of a method with an
        # installed template runs specialized Python instead of the
        # dispatch loop.  Mid-method frames (handler resumption,
        # deopt restarts, returns into a caller) always interpret.
        tfunc = method.template
        if tfunc is not None and frame.pc == 0 and not frame.stack \\
                and not frame.deopted:
            jit.template_entries += 1
            outcome = tfunc(self, thread, frame)
            k = outcome[0]
            if k == 1:
                continue  # deopt: reinterpret this activation
            if k == 0:  # return: accounting flushed, MethodExit fired
                _, _has, _res = outcome
                #RETURN_TO_CALLER
                continue
            # k == 2: thrown -- frame.pc synced and accounting
            # flushed by the template; unwind like the except arm
            self._dispatch_exception(thread, frames, base, outcome[1])
            continue
        code = method.info.code
        ops = method.ops
        operands = method.operands
        costs = method.active_costs
        stack = frame.stack
        l = frame.locals
        push = stack.append
        pop = stack.pop
        pc = frame.pc
        p = 0
        n = 0
        try:
            while True:
                op = ops[pc]
                p += costs[pc]
                n += 1
#ARMS
                else:  # pragma: no cover - exhaustive over the ISA
                    raise VMError(f"unhandled opcode {Op(op)!r}")
        except _Throw as signal:
            frame.pc = pc
            exc_obj = signal.exc_obj
            if exc_obj is None:
                exc_obj = self.synthesize_exception(
                    thread, signal.class_name, signal.message)
            if p:
                charge(p, CT)
            if n:
                vm.instructions_retired += n
            self._dispatch_exception(thread, frames, base, exc_obj)
            # fall through to the outer loop, which reloads the
            # handler frame's state (pc set by the dispatcher)
"""

#: Pending cycles and instructions made observable (``FLUSH``).
_FLUSH = """\
if p:
    charge(p, CT)
    p = 0
if n:
    vm.instructions_retired += n
    n = 0
"""

_TAKEN = """\
if taken:
    target = operands[pc]
    if target <= pc:  # backedge: JIT + safepoint
        if not method.compiled:
            method.backedge_count += 1
            if (jit.enabled and method.backedge_count >=
                    jit.policy.backedge_threshold):
                #FLUSH
                jit.compile(thread, method)
                costs = method.active_costs
        if SP is not None and \\
                thread.cycles_total + p >= thread.preempt_at:
            frame.pc = target
            #FLUSH
            SP.preempt(thread)
        # on-stack replacement: a template with an entry stub for this
        # loop header takes over the live frame mid-method.  Splitting
        # the pending charge leaves totals and safepoint decisions
        # unchanged.  Re-entry after a deopt is bounded: the site heals
        # or the template is invalidated (DESIGN.md section 11).
        osr_map = method.osr_map
        if osr_map is not None and osr_on \\
                and osr_map.get(target) == len(stack):
            frame.pc = target
            #FLUSH
            method.osr_entry_count += 1
            jit.osr_entries += 1
            outcome = method.template(self, thread, frame, target)
            k = outcome[0]
            if k == 0:
                # templated activation returned (accounting flushed,
                # MethodExit fired)
                _, _has, _res = outcome
                #RETURN_TO_CALLER
            elif k == 2:
                self._dispatch_exception(thread, frames, base,
                                         outcome[1])
            # k == 1 (deopt): the frame was reconstructed and marked
            # deopted; the outer loop reinterprets it
            break
    pc = target
else:
    pc += 1
"""

_RETURN = """\
#FLUSH
if jvmti.method_exit_enabled:
    jvmti.dispatch_method_exit(thread, method, False)
#RETURN_TO_CALLER
break
"""

#: Pop the returning frame; leave the activation or resume the caller
#: after its invoke instruction.
_RETURN_TO_CALLER = """\
frames.pop()
if len(frames) == base:
    return _res
caller = frames[-1]
caller.pc += 1
if _has:
    caller.stack.append(_res)
"""

# the frame stays at the invoke pc so exception-table ranges cover
# in-flight calls; RETURN advances past it
_INVOKE_HEAD = """\
_ins = code[pc]
_q = _ins.quick
frame.pc = pc
#FLUSH
if SP is not None and thread.cycles_total >= thread.preempt_at:
    SP.preempt(thread)
"""

_INVOKE_ARGS = """\
_n = _q[1]
if _n:
    _args = stack[-_n:]
    del stack[-_n:]
else:
    _args = []
"""

_INVOKE_CALL = """\
if _m.is_native:
    try:
        _res = interp._invoke_native(thread, _m, _args)
    except Unwind as _u:
        raise _Throw(_u.jobject) from None
    if _m.info.returns_value:
        push(_res)
    pc += 1
else:
    interp._enter_bytecode_method(thread, _m, _args)
    break
"""

Rendered = List[Tuple[int, str]]


def _text(source: str) -> Rendered:
    """Skeleton text to rendered lines, splicing ``#FLUSH`` and
    ``#RETURN_TO_CALLER``."""
    out: Rendered = []
    for line in source.splitlines():
        text = line.strip()
        level = (len(line) - len(line.lstrip())) // 4
        if text in ("#FLUSH", "#RETURN_TO_CALLER"):
            splice = _FLUSH if text == "#FLUSH" else _RETURN_TO_CALLER
            out.extend((level + rel, t) for rel, t in _text(splice))
        elif text:
            out.append((level, text))
    return out


def _directive(key, kind: str, *args) -> Rendered:
    if kind == "FLUSH":
        return [(0, "frame.pc = pc")] + _text(_FLUSH)
    if kind == "RAISE":
        return [(0, f"raise _Throw({args[0]})")]
    return [(0, f"raise _Throw(None, {args[0]!r}, {args[1]})")]


_IDENTITY_BIND = re.compile(r"_(\w+) = \$(\w+)$")


def _fragment(entry, source: List[str], extra=(),
              stack: bool = True) -> Rendered:
    """Render fragment lines onto the interpreter's list stack.

    Upper inputs pop into ``_x`` locals; the bottom one is peeked when
    the opcode pushes (the first output overwrites it in place) and
    popped otherwise -- straight into the single expression that uses
    it when that is safe.  Further outputs are pushed.  ``stack=False``
    renders a fragment that does not touch the stack."""
    inputs, outputs = (entry.inputs, entry.outputs) if stack else ((), ())
    bound = set()
    lines = []
    for line in source:
        m = _IDENTITY_BIND.match(line)
        if m and m.group(1) == m.group(2) and m.group(2) in inputs:
            bound.add(m.group(2))
        else:
            lines.append(line)

    def uses(name, line):
        return len(re.findall(r"\$%s\b" % name, line))

    names = {x: "_" + x for x in inputs}
    out: Rendered = [(0, f"_{x} = pop()" if x in bound or any(
        uses(x, line) for line in lines) else "pop()")
        for x in reversed(inputs[1:])]
    if len(entry.operands) > 1:
        out.append((0, ", ".join("_" + o for o in entry.operands)
                    + " = operands[pc]"))
    if inputs:
        bottom = inputs[0]
        take = "stack[-1]" if outputs else "pop()"
        refs = [i for i, line in enumerate(lines) if uses(bottom, line)]
        if bottom not in bound and len(refs) == 1 and _inlinable(
                lines, refs[0], bottom, outputs):
            names[bottom] = take
        elif bottom in bound or refs:
            out.append((0, f"_{bottom} = {take}"))
        elif not outputs:
            out.append((0, "pop()"))
    pushes = []
    for j, o in enumerate(outputs):
        if j == 0 and inputs:
            names[o] = "stack[-1]"
            continue
        writes = [i for i, line in enumerate(lines) if uses(o, line)]
        prefix = f"${o} = "
        if len(writes) == 1 and lines[writes[0]].startswith(prefix):
            lines[writes[0]] = f"push({lines[writes[0]][len(prefix):]})"
        else:
            names[o] = "_" + o
            pushes.append((0, f"push(_{o})"))

    names.update(extra, pc="pc", SAN="SAN is not None",
                 SP="SP is not None")

    def value(name):
        if name in names:
            return names[name]
        if name in entry.operands:
            return "operands[pc]" if len(entry.operands) == 1 \
                else "_" + name
        return entry.quick.cold_view(name, "_q")

    return [*out, *render(lines, value, _directive)[0], *pushes]


def _inlinable(lines: List[str], at: int, name: str, outputs) -> bool:
    """May the bottom input's one use at ``lines[at]`` read the stack
    directly?  Only unconditionally, before any output is written, and
    on the right of an assignment."""
    for line in lines[:at + 1]:
        if line[0].isspace() or line.endswith(":"):
            return False
    for line in lines[:at]:
        if any(re.search(r"\$%s\b" % o, line) for o in outputs):
            return False
    target, eq, _ = lines[at].partition(" = ")
    return not eq or f"${name}" not in target


def _resolve(entry) -> Rendered:
    """First execution of a constant-pool site: resolve and quicken."""
    return [(0, "_ins = code[pc]"), (0, "_q = _ins.quick"),
            (0, "if _q is None:")] + [
        (1 + level, text)
        for level, text in _fragment(entry, entry.quick.resolve,
                                     stack=False)] + [
        (1, "_ins.quick = _q")]


def _arm(entry) -> Rendered:
    """One opcode's dispatch arm outside the families."""
    body = entry.body
    out: Rendered = []
    if body[:1] == ("FLUSH",):
        out.extend(_directive((), "FLUSH"))
        body = body[1:]
    if entry.quickened:
        out.extend(_resolve(entry))
    out.extend(_fragment(entry, body))
    if not entry.spec.ends_block:
        out.append((0, "pc += 1"))
    return out


def _branch(entry) -> Rendered:
    # goto has no condition: always taken
    return _fragment(entry, [f"taken = {entry.cond or True}"])


def _return(entry) -> Rendered:
    return [(0, f"_has = {bool(entry.inputs)}"),
            (0, "_res = pop()" if entry.inputs else "_res = None")]


def _invoke(entry) -> Rendered:
    # _INVOKE_HEAD reads the quickened site before the safepoint, as
    # _resolve would; the rest of _resolve follows it
    return _text(_INVOKE_HEAD) + _resolve(entry)[2:] \
        + _text(_INVOKE_ARGS) + _fragment(
            entry, entry.body, {"recv": "_args[0]", "mname": "_q[2]"}) \
        + _text(_INVOKE_CALL)


def _chain(ops, arm, keyword="if", last_else=False) -> Rendered:
    """An if-chain over ``ops``; neighbours with equal arms share one
    test.  ``last_else`` makes the final test a bare ``else``."""
    groups: List[Tuple[List[Op], Rendered]] = []
    for op in ops:
        body = arm(OPDEFS[op])
        if groups and groups[-1][1] == body:
            groups[-1][0].append(op)
        else:
            groups.append(([op], body))
    out: Rendered = []
    for i, (members, body) in enumerate(groups):
        if last_else and i == len(groups) - 1:
            out.append((0, "else:"))
        else:
            test = " or ".join(f"op == {op.name}" for op in members)
            out.append((0, f"{keyword if i == 0 else 'elif'} {test}:"))
        out.extend((level + 1, text) for level, text in body)
    return out


def _family(ops) -> Rendered:
    """A range-tested family: per-opcode arms, then the shared
    control-transfer skeleton."""
    values = sorted(int(op) for op in ops)
    first = OPDEFS[ops[0]].spec
    if first.is_branch:
        inner, tail = _chain(ops, _branch, last_else=True), _text(_TAKEN)
    elif first.cost_class == "return":
        inner, tail = _chain(ops, _return, last_else=True), _text(_RETURN)
    else:
        inner, tail = _chain(ops, _invoke, last_else=True), []
    return [(0, f"elif 0x{values[0]:02x} <= op <= 0x{values[-1]:02x}:")] \
        + [(level + 1, text) for level, text in inner + tail]


def _generate_run() -> str:
    listed = {op for item in _ORDER
              for op in (item if isinstance(item, tuple) else (item,))}
    order = list(_ORDER) + [Op(v) for v in sorted(OPDEFS)
                            if Op(v) not in listed]
    arms: Rendered = []
    singles: List[Op] = []
    for item in order + [None]:
        if isinstance(item, Op):
            singles.append(item)
            continue
        if singles:
            arms.extend(_chain(singles, _arm,
                               keyword="elif" if arms else "if"))
            singles = []
        if item is not None:
            arms.extend(_family(item))
    tested = sorted({name for _, text in arms
                     for name in re.findall(r"op == (\w+)", text)})
    consts = "\n".join(f"    {name} = {int(Op[name])}" for name in tested)
    body = "\n".join("    " * (4 + level) + text for level, text in arms)
    source = _RUN.replace("#CONSTANTS", consts).replace("#ARMS", body)
    return "\n".join("    " * level + text
                     for level, text in _text(source)) + "\n"


#: The generated source of ``Interpreter._run`` (kept for debugging).
RUN_SOURCE = _generate_run()
_namespace = dict(FRAGMENT_GLOBALS, ChargeTag=ChargeTag, Op=Op,
                  Unwind=Unwind, _Throw=_Throw, VMError=VMError,
                  NoSuchMethodError=NoSuchMethodError, CpClass=CpClass,
                  CpFieldRef=CpFieldRef, CpFloat=CpFloat, CpInt=CpInt,
                  CpMethodRef=CpMethodRef, CpString=CpString)
exec(compile(RUN_SOURCE, "<generated Interpreter._run>", "exec"),
     _namespace)
Interpreter._run = _namespace["_run"]
