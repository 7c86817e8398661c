"""The template translator: bytecode -> specialized Python source.

This is the VM's second execution tier.  When :meth:`JitCompiler.compile`
fires for a hot method, :func:`translate` turns the method's pre-decoded
``ops``/``operands`` streams into one specialized Python function
(source generation + ``exec``): straight-line bytecode becomes
straight-line Python, operand-stack slots become named Python locals
(``s0``, ``s1``, ... — the depth at every pc is statically known for
verifiable code), and basic blocks become arms of a ``while 1`` dispatch
over a block index ``b``.

Accounting contract (the hard rule)
-----------------------------------

Simulated cycle accounting must be **bit-identical** to the dispatch
loop.  Per-instruction costs are summed at translation time into
per-segment constants (``p += C``/``n += K``) and flushed with exactly
the interpreter's boundaries: INVOKE*, GETSTATIC/PUTSTATIC, NEW,
LDC-of-string, RETURN*, and exception dispatch all ``charge`` pending
cycles / retire the instruction count at the same points, in the same
order (for exceptions: synthesize first, then flush — matching the
interpreter's ``_Throw`` handler).  Resolution work charges zero cycles
in the cost model, so binding quickened constants at translation time
cannot change any simulated number.

Deoptimization
--------------

A site the template cannot execute — an opcode in ``exclude_ops``, or a
constant-pool site not yet quickened when the method was translated —
deoptimizes: the template reconstructs ``frame.pc``/``frame.stack``,
flushes pending accounting, marks the frame ``deopted``, reports the
reason to :meth:`JitCompiler.note_deopt`, and returns to the dispatch
loop, which resumes interpreting the same activation at the same
instruction (its cost not yet accounted, so nothing is double-charged).
Cold constant-pool sites self-heal: the interpreter quickens the site
while finishing the activation, and later activations read the
quickened value at run time.  Exceptions raised *by* supported opcodes
never deoptimize — the template replicates the interpreter's throw
sequence inline and hands the exception object back to the dispatch
loop for unwinding, so JVMTI MethodExit events and handler resumption
are identical.

The template function protocol is
``template(interp, thread, frame) -> outcome`` where outcome is
``(0, has_result, result)`` for a return (accounting flushed, MethodExit
fired), ``(1,)`` for a deopt (frame reconstructed), or ``(2, exc)`` for
a thrown exception (``frame.pc`` synced, accounting flushed; the caller
runs exception dispatch).
"""

from __future__ import annotations

import functools
from typing import Optional, Tuple

from repro.analysis.cfg import solve_forward
from repro.bytecode.opcodes import INVOKE_OPS
from repro.bytecode.verifier import _stack_effect
from repro.classfile.constant_pool import CpMethodRef
from repro.jit.fusion import plan_fusion
from repro.jit.opdefs import FRAGMENT_GLOBALS, OPDEFS, Literal, render
from repro.jvm.costmodel import ChargeTag
from repro.jvm.interpreter import Unwind


#: Stands for the pc in memoized renders, so that they are shared by
#: every instruction with the same fragment and values.
_PC = "\x00pc\x00"


def _directive(key, kind, *args):
    """``FLUSH``, ``THROW`` and ``RAISE`` in template code; ``key`` is
    the instruction's pc and whether pending cycles were flushed."""
    pc, flushed = key
    if kind == "FLUSH":
        return _flush(pc)
    if kind == "RAISE":
        return [(0, f"return interp._template_raise(thread, frame, {pc}, "
                    f"{args[0]}, p, n)")]
    pn = "0, 0" if flushed else "p, n"
    return [(0, f"return interp._template_throw(thread, frame, {pc}, "
                f"{args[0]!r}, {args[1]}, {pn})")]


def _flush(pc, set_pc=True):
    # matches the interpreter: pending includes this op's cost (>= 1),
    # so the charge/retire are unconditional
    return ([(0, f"frame.pc = {pc}")] if set_pc else []) + [
        (0, "charge(p, CT)"), (0, "p = 0"),
        (0, "vm.instructions_retired += n"), (0, "n = 0")]


@functools.lru_cache(maxsize=512)
def _compile(source: str, filename: str):
    """The code object of one template source, shared by every VM in
    the process.  Sound because a code object is immutable and holds no
    VM state: the VM, heap, method and quickened views reach a template
    only through the globals it is ``exec``-ed into, and every literal
    is in ``source``.  ``filename`` names the method, so two methods
    with equal source keep their own name in tracebacks."""
    return compile(source, filename, "exec")


class _Bail(Exception):
    """Translation abandoned; ``reason`` is the metrics key."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def translate(method, vm, policy=None, exclude_ops=frozenset()
              ) -> Tuple[Optional[object], Optional[str], Optional[str]]:
    """Translate ``method`` into a template function.

    Returns ``(func, source, None)`` on success or ``(None, None,
    reason)`` on bail-out.  ``exclude_ops`` (ints) forces deopt sites
    for those opcodes — used by tests to exercise the deopt machinery.
    """
    try:
        func, source = _translate(method, vm, policy,
                                  frozenset(int(o) for o in exclude_ops))
        return func, source, None
    except _Bail as bail:
        return None, None, bail.reason
    except Exception as exc:  # never let translation break execution
        return None, None, f"error:{type(exc).__name__}"


def _translate(method, vm, policy, exclude_ops):
    info = method.info
    code = info.code
    if not code:
        raise _Bail("no_code")
    limit = policy.template_code_limit if policy is not None else 2000
    n_ins = len(code)
    if n_ins > limit:
        raise _Bail("too_long")
    ops = method.ops
    operands = method.operands
    costs = method.compiled_cost_list
    cp = method.owner.constant_pool

    # -- dataflow: operand-stack depth at every pc reachable from entry.
    # Handler-reachable-only code is *not* translated: a frame resuming
    # at a handler has a non-empty stack and pc != 0, so the tier
    # dispatch never hands it to the template.
    deopt_only = [False] * n_ins

    def transfer(pc, d):
        if pc < 0 or pc >= n_ins:
            raise _Bail("fall_off_end")
        op = ops[pc]
        if op in exclude_ops or op not in OPDEFS:
            deopt_only[pc] = True
            return  # terminal in the template: no successors
        spec = OPDEFS[op].spec
        pops, pushes = _stack_effect(code[pc], info, cp)
        if d < pops:
            raise _Bail("stack_inconsistent")
        nd = d - pops + pushes
        if spec.is_branch:
            yield operands[pc], nd
        if not spec.ends_block:
            yield pc + 1, nd

    def join(pc, known, d, src):
        if known != d:
            raise _Bail("stack_inconsistent")
        return known

    depth_at = [-1] * n_ins
    for pc, d in solve_forward({0: 0}, transfer, join).items():
        depth_at[pc] = d  # in range: an out-of-range pc bails when popped

    # -- block structure: targets of reachable branches start blocks
    targets = set()
    back_targets = set()  # loop headers: targets of backward branches
    for pc in range(n_ins):
        if depth_at[pc] >= 0 and not deopt_only[pc] \
                and OPDEFS[ops[pc]].spec.is_branch:
            target = operands[pc]
            targets.add(target)
            if target <= pc:
                back_targets.add(target)
    leaders = sorted({0} | targets)
    bid = {pc: i for i, pc in enumerate(leaders)}
    # any branch target forces the dispatch-loop form — including a
    # lone target at pc 0 (a single-block loop), which the straight-line
    # form cannot express (`continue` needs the loop)
    multi = len(leaders) > 1 or bool(targets)

    # -- OSR entry points: every loop header gets an entry stub that
    # rebuilds the flattened stack slots from the live interpreter
    # frame and starts execution at the header's block (deopt frame
    # reconstruction run in reverse).  {header pc: stack depth} — the
    # interpreter matches the live frame's depth against this map
    # before entering.
    osr_map = {t: depth_at[t] for t in back_targets if depth_at[t] >= 0} \
        if (policy is None or policy.osr) else {}

    # -- superinstruction fusion: pick hot adjacent windows to emit as
    # combined handlers (selection lives in repro.jit.fusion; emit_fused
    # below joins the window's opcode fragments)
    fusion_plan = plan_fusion(
        ops, operands, code, depth_at, deopt_only, targets,
        policy.fusion_pairs if policy is not None and policy.fusion
        else (8 if policy is None else 0))

    # -- source emission
    bindings = {
        "CT": ChargeTag.BYTECODE,
        "vm": vm,
        "heap": vm.heap,
        "loader": vm.loader,
        "jit": vm.jit,
        "jvmti": vm.jvmti,
        "method": method,
        "Unwind": Unwind,
        "DEOPT": (1,),
        "RET_VOID": (0, False, None),
        **FRAGMENT_GLOBALS,
    }

    def bind(name, value):
        bindings[name] = value

    lines = [
        "def template(interp, thread, frame, osr_pc=-1):",
        "    charge = thread.charge",
        "    l = frame.locals",
        "    frames = thread.frames",
        "    p = 0",
        "    n = 0",
    ]
    if multi:
        lines.append("    b = 0")
        if osr_map:
            # OSR entry stubs: rebuild s0..s{d-1} from the live frame's
            # operand stack and jump to the loop header's block.  Entry
            # is free on the simulated clock, exactly like a normal
            # template entry (the interpreter flushed at the backedge).
            lines.append("    if osr_pc != -1:")
            lines.append("        _st = frame.stack")
            kw = "if"
            for t in sorted(osr_map):
                lines.append(f"        {kw} osr_pc == {t}:")
                for i in range(depth_at[t]):
                    lines.append(f"            s{i} = _st[{i}]")
                lines.append(f"            b = {bid[t]}")
                kw = "elif"
            lines.append("        frame.stack = []")
        lines.append("    while 1:")
    op_indent = "            " if multi else "    "

    def out(rel, text):
        lines.append(op_indent + "    " * rel + text)

    seg = [0, 0]  # translation-time constant (cycles, instructions)

    def acc(pc):
        seg[0] += costs[pc]
        seg[1] += 1

    def spill():
        if seg[1]:
            out(0, f"p += {seg[0]}")
            out(0, f"n += {seg[1]}")
            seg[0] = seg[1] = 0

    def emit(rendered, rel=0):
        lines.extend(op_indent + "    " * (rel + level) + text
                     for level, text in rendered)

    def deopt(pc, d, reason, rel=0):
        slots = ", ".join(f"s{i}" for i in range(d))
        out(rel, f"frame.pc = {pc}")
        out(rel, f"frame.stack = [{slots}]")
        out(rel, "frame.deopted = True")
        out(rel, "if p:")
        out(rel + 1, "charge(p, CT)")
        out(rel, "if n:")
        out(rel + 1, "vm.instructions_retired += n")
        out(rel, f"jit.note_deopt(method, {reason!r})")
        out(rel, "return DEOPT")

    def cold_guard(pc, d, cost):
        """Cold constant-pool site: deopt until the interpreter has
        quickened it, then read the quickened value at run time."""
        spill()
        bind(f"I{pc}", code[pc])
        out(0, f"_q = I{pc}.quick")
        out(0, "if _q is None:")
        deopt(pc, d, "cold_site", rel=1)
        out(0, f"p += {cost}")
        out(0, "n += 1")

    # preemptive scheduler (cores > 1): emit safepoint checks at
    # backedges and call boundaries.  Gated at translation time — at
    # cores=1 the emitted source carries no scheduler code at all.
    sched_on = vm.scheduler is not None
    if sched_on:
        bind("SP", vm.scheduler)

    # race sanitizer: emit the same shadow hooks the interpreter runs,
    # at the same points.  Gated at translation time — with --sanitize
    # off the emitted source is byte-identical to today's, and the
    # hooks are host-side only (no charge, no retire), so simulated
    # cycle accounting is untouched either way.
    san_on = vm.sanitizer is not None
    if san_on:
        bind("SAN", vm.sanitizer)
    flags = (Literal(san_on), Literal(sched_on))

    def safepoint_backedge(target, rel):
        """Quantum check at a taken backward branch (pending charges
        still in ``p``, exactly the interpreter's check)."""
        out(rel, "if thread.cycles_total + p >= thread.preempt_at:")
        emit(_flush(target), rel + 1)
        out(rel + 1, "SP.preempt(thread)")

    def fragment(pc, entry, d, source, loads=(), extra=(),
                 flushed=False):
        """Render ``source`` (lines of ``entry``'s fragments) at ``pc``
        with stack depth ``d``; ``loads`` stand in for the topmost inputs
        (a fused window), ``extra`` supplies renderer placeholders.
        Returns ``(rendered lines, cold site, reads p/n)``."""
        q = code[pc].quick
        cold = entry.quickened and q is None
        names = {name: f"s{d + offset}" for name, offset in entry.slots}
        if loads:
            names.update(zip(entry.inputs[-len(loads):], loads))
        names.update(extra, SAN=flags[0], SP=flags[1])
        operand = operands[pc]

        def value(name):
            if name in names:
                return names[name]
            if name == "pc":
                return _PC
            if name in entry.operands:
                if entry.bind_operand is not None:
                    bind(f"{entry.bind_operand}{pc}", operand)
                    return f"{entry.bind_operand}{_PC}"
                if len(entry.operands) > 1:
                    return Literal(operand[entry.operands.index(name)])
                return Literal(operand)
            if cold:
                return entry.quick.cold_view(name, "_q")
            evaluate, _, letter = entry.quick.views[name]
            view = evaluate(q)
            if letter is None:
                return Literal(view)
            if callable(letter):
                letter = letter(q)
            bind(f"{letter}{pc}", view)
            return f"{letter}{_PC}"

        rendered, observed = render(source, value, _directive,
                                    (_PC, flushed))
        spc = str(pc)
        return [(level, text.replace(_PC, spc))
                for level, text in rendered], cold, observed

    def emit_branch(pc, entry, d, loads=()):
        """A branch at ``pc``: its condition fragment guards the jump
        to the target block.  A fused window (``loads``) has already
        accumulated its instructions."""
        if not loads:
            acc(pc)
        spill()
        target = operands[pc]
        backedge = sched_on and target <= pc
        if entry.cond is None:  # goto
            if backedge:
                safepoint_backedge(target, rel=0)
            out(0, f"b = {bid[target]}")
            out(0, "continue")
            return False
        emit(fragment(pc, entry, d, (f"if {entry.cond}:",), loads)[0])
        if backedge:
            safepoint_backedge(target, rel=1)
        out(1, f"b = {bid[target]}")
        out(1, "continue")
        return True

    def emit_op(pc, op, d):
        """Emit one instruction; returns True when it falls through."""
        cost = costs[pc]
        ins = code[pc]

        if deopt_only[pc]:
            spill()
            name = OPDEFS[op].spec.mnemonic if op in OPDEFS else f"0x{op:02x}"
            deopt(pc, d, f"unsupported_op:{name}")
            return False

        entry = OPDEFS[op]
        spec = entry.spec
        if spec.is_branch:
            return emit_branch(pc, entry, d)
        if spec.cost_class == "return":
            acc(pc)
            spill()
            emit(_flush(pc, set_pc=False))
            # the flag is re-checked at run time (agents can toggle
            # events mid-run); inlining it just skips a call when off
            out(0, "if jvmti.method_exit_enabled:")
            out(1, "interp._exit_method_event(thread, method, False)")
            if entry.inputs:
                out(0, f"return (0, True, s{d - 1})")
            else:
                out(0, "return RET_VOID")
            return False
        if op in INVOKE_OPS:
            np, pushes = _stack_effect(ins, info, cp)
            ref = cp.get_typed(operands[pc], CpMethodRef)
            select, cold, _ = fragment(
                pc, entry, d, entry.body, flushed=True,
                extra={"recv": f"s{d - np}",
                       "mname": Literal(ref.method_name)})
            if cold:
                cold_guard(pc, d, cost)
            else:
                acc(pc)
                spill()
            emit(_flush(pc))
            if sched_on:
                out(0, "if thread.cycles_total >= thread.preempt_at:")
                out(1, "SP.preempt(thread)")
            args = ", ".join(f"s{i}" for i in range(d - np, d))
            out(0, f"_a = [{args}]")
            emit(select)
            out(0, "if _m.is_native:")
            out(1, "try:")
            out(2, "_res = interp._invoke_native(thread, _m, _a)")
            out(1, "except Unwind as _u:")
            out(2, "return (2, _u.jobject)")
            out(0, "else:")
            out(1, "interp._enter_bytecode_method(thread, _m, _a)")
            # template-to-template direct call: a fresh frame always
            # satisfies the tier-dispatch guard (pc 0, empty stack, not
            # deopted), so when the callee has a template we call it
            # here and skip _run's dispatch prologue entirely — the
            # dominant host cost of hot leaf calls.  Deopt and thrown
            # outcomes fall back to the interpreter via
            # _template_call_finish, which replays _run's own handling.
            out(1, "_t = _m.template")
            out(1, "if _t is not None:")
            out(2, "jit.template_entries += 1")
            out(2, "_out = _t(interp, thread, frames[-1])")
            out(2, "if _out[0] == 0:")
            out(3, "frames.pop()")
            out(3, "_res = _out[2]")
            out(2, "else:")
            out(3, "try:")
            out(4, "_res = interp._template_call_finish("
                   "thread, _out, len(frames) - 1)")
            out(3, "except Unwind as _u:")
            out(4, "return (2, _u.jobject)")
            out(1, "else:")
            out(2, "try:")
            out(3, "_res = interp._run(thread, len(frames) - 1)")
            out(2, "except Unwind as _u:")
            out(3, "return (2, _u.jobject)")
            if pushes:
                out(0, f"s{d - np} = _res")
            return True
        body, cold, observed = fragment(pc, entry, d, entry.body)
        if cold:
            cold_guard(pc, d, cost)
        else:
            acc(pc)
            if observed:
                spill()
        emit(body)
        return not spec.ends_block

    def load_expr(pc):
        """The value a fusible load pushes, as a plain expression."""
        entry = OPDEFS[ops[pc]]
        return fragment(pc, entry, 0, (entry.push_expr,))[0][0][1]

    def emit_fused(site, d):
        """Emit one fused superinstruction window: the consumer's
        fragment (the window's last instruction) with the loads'
        expressions in place of its topmost inputs.

        Accounting: every instruction in the window is ``acc``-ed, so
        the segment constant carries the sum of their cycle costs — the
        window is one indivisible charge, identical in total to the
        unfused emission.  Throws and branches report the pc of the
        *consuming* instruction (the window's last), exactly where the
        interpreter would be when that instruction executes.  Always
        falls through (a fused branch falls through when not taken).
        """
        pc = site.pc
        last = pc + site.length - 1
        for k in range(pc, last + 1):
            acc(k)
        loads = [load_expr(k) for k in range(pc, last)]
        entry = OPDEFS[ops[last]]
        d += len(loads)
        if entry.spec.is_branch:
            emit_branch(last, entry, d, loads)
            return True
        body, _, observed = fragment(last, entry, d, entry.body, loads)
        if observed:
            spill()
        emit(body)
        return True

    fallthrough = False
    first_arm = True
    skip_until = 0
    for pc in range(n_ins):
        if pc < skip_until:
            continue  # consumed by a fused window
        if depth_at[pc] < 0:
            continue  # unreachable from entry: never emitted
        if multi and pc in bid:
            if fallthrough:
                spill()
                out(0, f"b = {bid[pc]}")
                out(0, "continue")
            kw = "if" if first_arm else "elif"
            lines.append(f"        {kw} b == {bid[pc]}:")
            first_arm = False
        elif pc != 0 and not fallthrough:
            raise _Bail("emit_inconsistent")
        site = fusion_plan.get(pc)
        if site is not None:
            fallthrough = emit_fused(site, depth_at[pc])
            skip_until = pc + site.length
        else:
            fallthrough = emit_op(pc, ops[pc], depth_at[pc])
    if fallthrough:
        raise _Bail("fall_off_end")

    source = "\n".join(lines) + "\n"
    namespace = dict(bindings)
    exec(_compile(source, f"<template:{method.qualified_name}>"),
         namespace)
    func = namespace["template"]
    # published for the code cache (OSR eligibility) and the compiler's
    # fusion statistics; translate()'s return shape is unchanged so
    # monkeypatching tests keep working
    func.osr_map = osr_map
    func.fused_patterns = tuple(fusion_plan[pc].pattern
                                for pc in sorted(fusion_plan))
    return func, source
