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

import math
from typing import Optional, Tuple

from repro.analysis.cfg import solve_forward
from repro.bytecode.opcodes import ArrayKind, Op, SPECS
from repro.bytecode.verifier import _stack_effect
from repro.classfile.constant_pool import CpMethodRef
from repro.errors import DeadlockError, NoSuchFieldError
from repro.jit.fusion import plan_fusion
from repro.jvm.costmodel import ChargeTag
from repro.jvm.interpreter import Unwind
from repro.jvm.values import JArray, wrap_int32

_NPE = "java.lang.NullPointerException"
_AIOOBE = "java.lang.ArrayIndexOutOfBoundsException"
_ARITH = "java.lang.ArithmeticException"
_CCE = "java.lang.ClassCastException"
_NASE = "java.lang.NegativeArraySizeException"
_IMSE = "java.lang.IllegalMonitorStateException"

_NOP = int(Op.NOP)
_ICONST = int(Op.ICONST)
_LDC = int(Op.LDC)
_ACONST_NULL = int(Op.ACONST_NULL)
_ILOAD = int(Op.ILOAD)
_ISTORE = int(Op.ISTORE)
_ALOAD = int(Op.ALOAD)
_ASTORE = int(Op.ASTORE)
_IINC = int(Op.IINC)
_POP = int(Op.POP)
_DUP = int(Op.DUP)
_DUP_X1 = int(Op.DUP_X1)
_SWAP = int(Op.SWAP)
_IADD = int(Op.IADD)
_ISUB = int(Op.ISUB)
_IMUL = int(Op.IMUL)
_IDIV = int(Op.IDIV)
_IREM = int(Op.IREM)
_INEG = int(Op.INEG)
_ISHL = int(Op.ISHL)
_ISHR = int(Op.ISHR)
_IUSHR = int(Op.IUSHR)
_IAND = int(Op.IAND)
_IOR = int(Op.IOR)
_IXOR = int(Op.IXOR)
_FDIV = int(Op.FDIV)
_I2F = int(Op.I2F)
_F2I = int(Op.F2I)
_FCMP = int(Op.FCMP)
_GOTO = int(Op.GOTO)
_NEW = int(Op.NEW)
_GETFIELD = int(Op.GETFIELD)
_PUTFIELD = int(Op.PUTFIELD)
_GETSTATIC = int(Op.GETSTATIC)
_PUTSTATIC = int(Op.PUTSTATIC)
_INSTANCEOF = int(Op.INSTANCEOF)
_CHECKCAST = int(Op.CHECKCAST)
_NEWARRAY = int(Op.NEWARRAY)
_IALOAD = int(Op.IALOAD)
_IASTORE = int(Op.IASTORE)
_AALOAD = int(Op.AALOAD)
_AASTORE = int(Op.AASTORE)
_ARRAYLENGTH = int(Op.ARRAYLENGTH)
_INVOKESTATIC = int(Op.INVOKESTATIC)
_INVOKEVIRTUAL = int(Op.INVOKEVIRTUAL)
_INVOKESPECIAL = int(Op.INVOKESPECIAL)
_RETURN = int(Op.RETURN)
_IRETURN = int(Op.IRETURN)
_ARETURN = int(Op.ARETURN)
_ATHROW = int(Op.ATHROW)
_MONITORENTER = int(Op.MONITORENTER)
_MONITOREXIT = int(Op.MONITOREXIT)

#: The full ISA — every opcode has an emitter below.  Anything outside
#: this set (a future opcode) becomes a deopt site, never a wrong result.
_SUPPORTED = frozenset(int(op) for op in Op)

# conditional branches: condition template + pops
_COND = {
    int(Op.IFEQ): ("{a} == 0", 1),
    int(Op.IFNE): ("{a} != 0", 1),
    int(Op.IFLT): ("{a} < 0", 1),
    int(Op.IFLE): ("{a} <= 0", 1),
    int(Op.IFGT): ("{a} > 0", 1),
    int(Op.IFGE): ("{a} >= 0", 1),
    int(Op.IF_ICMPEQ): ("{a} == {b}", 2),
    int(Op.IF_ICMPNE): ("{a} != {b}", 2),
    int(Op.IF_ICMPLT): ("{a} < {b}", 2),
    int(Op.IF_ICMPLE): ("{a} <= {b}", 2),
    int(Op.IF_ICMPGT): ("{a} > {b}", 2),
    int(Op.IF_ICMPGE): ("{a} >= {b}", 2),
    int(Op.IFNULL): ("{a} is None", 1),
    int(Op.IFNONNULL): ("{a} is not None", 1),
    int(Op.IF_ACMPEQ): ("{a} is {b}", 2),
    int(Op.IF_ACMPNE): ("{a} is not {b}", 2),
}

# int32 overflow check + wrap of the temp ``_r`` (the interpreter's
# inlined fast path, verbatim)
_WRAP = ("if _r > 2147483647 or _r < -2147483648:",
         "    _r = (_r + 2147483648 & 4294967295) - 2147483648")

# binary ALU ops that wrap unconditionally (no int-type fast-path test)
_BIN_WRAP = {
    _IAND: "s{x} & s{y}",
    _IOR: "s{x} | s{y}",
    _IXOR: "s{x} ^ s{y}",
    _ISHL: "s{x} << (s{y} & 31)",
    _ISHR: "s{x} >> (s{y} & 31)",
}

# type-polymorphic arithmetic (int fast path with wrap, else host op)
_BIN_POLY = {_IADD: "+", _ISUB: "-", _IMUL: "*"}


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
        if op in exclude_ops or op not in _SUPPORTED:
            deopt_only[pc] = True
            return  # terminal in the template: no successors
        pops, pushes = _stack_effect(code[pc], info, cp)
        if d < pops:
            raise _Bail("stack_inconsistent")
        nd = d - pops + pushes
        if op == _GOTO:
            yield operands[pc], nd
        elif 0x50 <= op <= 0x60:
            yield operands[pc], nd
            yield pc + 1, nd
        elif not (0x93 <= op <= 0x95 or op == _ATHROW):
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
                and 0x50 <= ops[pc] <= 0x60:
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
    # combined handlers (selection lives in repro.jit.fusion; the
    # emitters are in emit_fused below)
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
        "JArray": JArray,
        "wrap_int32": wrap_int32,
        "NoSuchFieldError": NoSuchFieldError,
        "DeadlockError": DeadlockError,
        "Unwind": Unwind,
        "AK_INT": ArrayKind.INT,
        "DEOPT": (1,),
        "RET_VOID": (0, False, None),
        "_nan": math.nan,
        "_inf": math.inf,
        "_ninf": -math.inf,
        "_cs": math.copysign,
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

    def spill(rel=0):
        if seg[1]:
            out(rel, f"p += {seg[0]}")
            out(rel, f"n += {seg[1]}")
            seg[0] = seg[1] = 0

    def flush(pc, rel=0, set_pc=True):
        # matches the interpreter: pending includes this op's cost
        # (>= 1), so the charge/retire are unconditional
        if set_pc:
            out(rel, f"frame.pc = {pc}")
        out(rel, "charge(p, CT)")
        out(rel, "p = 0")
        out(rel, "vm.instructions_retired += n")
        out(rel, "n = 0")

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

    def throw(pc, cls, msg_expr, rel=0, flushed=False):
        pn = "0, 0" if flushed else "p, n"
        out(rel, f"return interp._template_throw(thread, frame, {pc}, "
                 f"{cls!r}, {msg_expr}, {pn})")

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

    def safepoint_backedge(target, rel):
        """Quantum check at a taken backward branch (pending charges
        still in ``p``, exactly the interpreter's check)."""
        out(rel, "if thread.cycles_total + p >= thread.preempt_at:")
        out(rel + 1, f"frame.pc = {target}")
        out(rel + 1, "charge(p, CT)")
        out(rel + 1, "p = 0")
        out(rel + 1, "vm.instructions_retired += n")
        out(rel + 1, "n = 0")
        out(rel + 1, "SP.preempt(thread)")

    def emit_op(pc, op, d):
        """Emit one instruction; returns True when it falls through."""
        cost = costs[pc]
        ins = code[pc]

        if deopt_only[pc]:
            spill()
            name = SPECS[Op(op)].mnemonic if op in _SUPPORTED \
                else f"0x{op:02x}"
            deopt(pc, d, f"unsupported_op:{name}")
            return False

        if op == _ICONST:
            acc(pc)
            out(0, f"s{d} = {operands[pc]!r}")
        elif op == _ILOAD or op == _ALOAD:
            acc(pc)
            out(0, f"s{d} = l[{operands[pc]}]")
        elif op == _ISTORE or op == _ASTORE:
            acc(pc)
            out(0, f"l[{operands[pc]}] = s{d - 1}")
        elif op == _ACONST_NULL:
            acc(pc)
            out(0, f"s{d} = None")
        elif op == _NOP:
            acc(pc)
        elif op == _IINC:
            acc(pc)
            idx, delta = operands[pc]
            out(0, f"_r = l[{idx}] + {delta}")
            out(0, "if type(_r) is int:")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"l[{idx}] = _r")
            out(0, "else:")
            out(1, f"l[{idx}] = wrap_int32(_r)")
        elif op == _POP:
            acc(pc)
        elif op == _DUP:
            acc(pc)
            out(0, f"s{d} = s{d - 1}")
        elif op == _DUP_X1:
            acc(pc)
            out(0, f"s{d - 2}, s{d - 1}, s{d} = "
                   f"s{d - 1}, s{d - 2}, s{d - 1}")
        elif op == _SWAP:
            acc(pc)
            out(0, f"s{d - 2}, s{d - 1} = s{d - 1}, s{d - 2}")
        elif op in _BIN_POLY:
            acc(pc)
            pyop = _BIN_POLY[op]
            out(0, f"_a = s{d - 2}")
            out(0, f"_b = s{d - 1}")
            out(0, "if type(_b) is int and type(_a) is int:")
            out(1, f"_r = _a {pyop} _b")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"s{d - 2} = _r")
            out(0, "else:")
            out(1, f"s{d - 2} = _a {pyop} _b")
        elif op in _BIN_WRAP:
            acc(pc)
            out(0, "_r = " + _BIN_WRAP[op].format(x=d - 2, y=d - 1))
            out(0, _WRAP[0])
            out(0, _WRAP[1])
            out(0, f"s{d - 2} = _r")
        elif op == _IUSHR:
            acc(pc)
            out(0, f"_r = (s{d - 2} & 4294967295) >> (s{d - 1} & 31)")
            out(0, "if _r > 2147483647:")
            out(1, "_r -= 4294967296")
            out(0, f"s{d - 2} = _r")
        elif op == _INEG:
            acc(pc)
            out(0, f"_v = s{d - 1}")
            out(0, "if type(_v) is int:")
            out(1, "_r = -_v")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"s{d - 1} = _r")
            out(0, "else:")
            out(1, f"s{d - 1} = -_v")
        elif op == _I2F:
            acc(pc)
            out(0, f"s{d - 1} = float(s{d - 1})")
        elif op == _F2I:
            acc(pc)
            out(0, f"_r = int(s{d - 1})")
            out(0, _WRAP[0])
            out(0, _WRAP[1])
            out(0, f"s{d - 1} = _r")
        elif op == _FCMP:
            acc(pc)
            out(0, f"_a = s{d - 2}")
            out(0, f"_b = s{d - 1}")
            out(0, f"s{d - 2} = -1 if _a < _b else (1 if _a > _b else 0)")
        elif op == _FDIV:
            acc(pc)
            out(0, f"_a = s{d - 2}")
            out(0, f"_b = s{d - 1}")
            out(0, "if _b == 0:")
            out(1, "if _a == 0:")
            out(2, f"s{d - 2} = _nan")
            out(1, "else:")
            out(2, "_r = _cs(1.0, float(_a)) * _cs(1.0, float(_b))")
            out(2, f"s{d - 2} = _inf if _r > 0 else _ninf")
            out(0, "else:")
            out(1, f"s{d - 2} = _a / _b")
        elif op == _IDIV or op == _IREM:
            acc(pc)
            spill()
            out(0, f"_b = s{d - 1}")
            out(0, f"_a = s{d - 2}")
            out(0, "if type(_a) is int and type(_b) is int:")
            out(1, "if _b == 0:")
            throw(pc, _ARITH, "'/ by zero'", rel=2)
            out(1, "_t = abs(_a) // abs(_b)")
            out(1, "if (_a < 0) != (_b < 0):")
            out(2, "_t = -_t")
            if op == _IDIV:
                out(1, "_r = _t")
            else:
                out(1, "_r = _a - _t * _b")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"s{d - 2} = _r")
            out(0, "else:")
            out(1, "if _b == 0:")
            throw(pc, _ARITH, "'/ by zero'", rel=2)
            if op == _IDIV:
                out(1, f"s{d - 2} = _a / _b")
            else:
                out(1, f"s{d - 2} = _a % _b")
        elif op == _GOTO:
            acc(pc)
            spill()
            if sched_on and operands[pc] <= pc:
                safepoint_backedge(operands[pc], rel=0)
            out(0, f"b = {bid[operands[pc]]}")
            out(0, "continue")
            return False
        elif op in _COND:
            acc(pc)
            spill()
            tmpl, pops = _COND[op]
            if pops == 1:
                cond = tmpl.format(a=f"s{d - 1}")
            else:
                cond = tmpl.format(a=f"s{d - 2}", b=f"s{d - 1}")
            out(0, f"if {cond}:")
            if sched_on and operands[pc] <= pc:
                safepoint_backedge(operands[pc], rel=1)
            out(1, f"b = {bid[operands[pc]]}")
            out(1, "continue")
        elif op == _GETFIELD:
            q = ins.quick
            if q is not None:
                acc(pc)
                spill()
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is None:")
                throw(pc, _NPE, repr(f"getfield {q}"), rel=1)
                out(0, "try:")
                out(1, f"s{d - 1} = _o.fields[{q!r}]")
                out(0, "except (KeyError, AttributeError):")
                out(1, 'raise NoSuchFieldError(f"{_o!r} has no field '
                       f'{q}")')
                if san_on:
                    out(0, f"frame.pc = {pc}")
                    out(0, f"SAN.read_field(thread, _o, {q!r})")
            else:
                cold_guard(pc, d, cost)
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is None:")
                throw(pc, _NPE, "'getfield ' + _q", rel=1)
                out(0, "try:")
                out(1, f"s{d - 1} = _o.fields[_q]")
                out(0, "except (KeyError, AttributeError):")
                out(1, 'raise NoSuchFieldError(f"{_o!r} has no field '
                       '{_q}")')
                if san_on:
                    out(0, f"frame.pc = {pc}")
                    out(0, "SAN.read_field(thread, _o, _q)")
        elif op == _PUTFIELD:
            q = ins.quick
            if q is not None:
                acc(pc)
                spill()
                out(0, f"_v = s{d - 1}")
                out(0, f"_o = s{d - 2}")
                out(0, "if _o is None:")
                throw(pc, _NPE, repr(f"putfield {q}"), rel=1)
                out(0, f"if {q!r} not in _o.fields:")
                out(1, 'raise NoSuchFieldError(f"{_o!r} has no field '
                       f'{q}")')
                out(0, f"_o.fields[{q!r}] = _v")
                if san_on:
                    out(0, f"frame.pc = {pc}")
                    out(0, f"SAN.write_field(thread, _o, {q!r})")
            else:
                cold_guard(pc, d, cost)
                out(0, f"_v = s{d - 1}")
                out(0, f"_o = s{d - 2}")
                out(0, "if _o is None:")
                throw(pc, _NPE, "'putfield ' + _q", rel=1)
                out(0, "if _q not in _o.fields:")
                out(1, 'raise NoSuchFieldError(f"{_o!r} has no field '
                       '{_q}")')
                out(0, "_o.fields[_q] = _v")
                if san_on:
                    out(0, f"frame.pc = {pc}")
                    out(0, "SAN.write_field(thread, _o, _q)")
        elif op == _GETSTATIC or op == _PUTSTATIC:
            q = ins.quick
            if q is not None:
                bind(f"D{pc}", q[0].statics)
                bind(f"N{pc}", q[1])
                if san_on:
                    bind(f"H{pc}", q[0])
                acc(pc)
                spill()
                flush(pc)
                if op == _GETSTATIC:
                    out(0, f"s{d} = D{pc}[N{pc}]")
                    if san_on:
                        out(0, f"SAN.read_static(thread, H{pc}, N{pc})")
                else:
                    out(0, f"D{pc}[N{pc}] = s{d - 1}")
                    if san_on:
                        out(0, f"SAN.write_static(thread, H{pc}, N{pc})")
            else:
                cold_guard(pc, d, cost)
                flush(pc)
                if op == _GETSTATIC:
                    out(0, f"s{d} = _q[0].statics[_q[1]]")
                    if san_on:
                        out(0, "SAN.read_static(thread, _q[0], _q[1])")
                else:
                    out(0, f"_q[0].statics[_q[1]] = s{d - 1}")
                    if san_on:
                        out(0, "SAN.write_static(thread, _q[0], _q[1])")
        elif op == _NEW:
            q = ins.quick
            if q is not None:
                bind(f"C{pc}", q)
                acc(pc)
                spill()
                flush(pc)
                out(0, f"s{d} = heap.alloc_object(C{pc})")
            else:
                cold_guard(pc, d, cost)
                flush(pc)
                out(0, f"s{d} = heap.alloc_object(_q)")
        elif op == _LDC:
            q = ins.quick
            if q is not None:
                if q[0]:  # string: interning was a VM boundary
                    bind(f"S{pc}", q[1])
                    acc(pc)
                    spill()
                    flush(pc)
                    out(0, f"s{d} = S{pc}")
                else:
                    bind(f"F{pc}", q[1])
                    acc(pc)
                    out(0, f"s{d} = F{pc}")
            else:
                cold_guard(pc, d, cost)
                out(0, "if _q[0]:")
                flush(pc, rel=1)
                out(0, f"s{d} = _q[1]")
        elif op == _INSTANCEOF:
            q = ins.quick
            if q is not None:
                acc(pc)
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is None:")
                out(1, f"s{d - 1} = 0")
                out(0, "elif isinstance(_o, JArray):")
                out(1, f"s{d - 1} = {1 if q == 'java.lang.Object' else 0}")
                out(0, "else:")
                out(1, f"s{d - 1} = 1 if _o.jclass.is_subclass_of({q!r}) "
                       "else 0")
            else:
                cold_guard(pc, d, cost)
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is None:")
                out(1, f"s{d - 1} = 0")
                out(0, "elif isinstance(_o, JArray):")
                out(1, f"s{d - 1} = 1 if _q == 'java.lang.Object' else 0")
                out(0, "else:")
                out(1, f"s{d - 1} = 1 if _o.jclass.is_subclass_of(_q) "
                       "else 0")
        elif op == _CHECKCAST:
            q = ins.quick
            if q is not None:
                acc(pc)
                spill()
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is not None and not isinstance(_o, JArray) "
                       f"and not _o.jclass.is_subclass_of({q!r}):")
                throw(pc, _CCE, f"_o.class_name + {' -> ' + q!r}", rel=1)
            else:
                cold_guard(pc, d, cost)
                out(0, f"_o = s{d - 1}")
                out(0, "if _o is not None and not isinstance(_o, JArray) "
                       "and not _o.jclass.is_subclass_of(_q):")
                throw(pc, _CCE, "_o.class_name + ' -> ' + _q", rel=1)
        elif op == _NEWARRAY:
            acc(pc)
            spill()
            bind(f"A{pc}", operands[pc])
            out(0, f"_v = s{d - 1}")
            out(0, "if _v < 0:")
            throw(pc, _NASE, "str(_v)", rel=1)
            out(0, f"s{d - 1} = heap.alloc_array(A{pc}, _v)")
        elif op == _IALOAD or op == _AALOAD:
            acc(pc)
            spill()
            out(0, f"_i = s{d - 1}")
            out(0, f"_arr = s{d - 2}")
            out(0, "if _arr is None:")
            throw(pc, _NPE, "'array load'", rel=1)
            out(0, "_dt = _arr.data")
            out(0, "if _i < 0 or _i >= len(_dt):")
            throw(pc, _AIOOBE, "str(_i)", rel=1)
            out(0, f"s{d - 2} = _dt[_i]")
        elif op == _IASTORE or op == _AASTORE:
            acc(pc)
            spill()
            out(0, f"_v = s{d - 1}")
            out(0, f"_i = s{d - 2}")
            out(0, f"_arr = s{d - 3}")
            out(0, "if _arr is None:")
            throw(pc, _NPE, "'array store'", rel=1)
            out(0, "_dt = _arr.data")
            out(0, "if _i < 0 or _i >= len(_dt):")
            throw(pc, _AIOOBE, "str(_i)", rel=1)
            out(0, "if _arr.kind is AK_INT and type(_v) is int "
                   "and -2147483648 <= _v <= 2147483647:")
            out(1, "_dt[_i] = _v")
            out(0, "else:")
            out(1, "_dt[_i] = _arr.normalize(_v)")
        elif op == _ARRAYLENGTH:
            acc(pc)
            spill()
            out(0, f"_arr = s{d - 1}")
            out(0, "if _arr is None:")
            throw(pc, _NPE, "'arraylength'", rel=1)
            out(0, f"s{d - 1} = len(_arr.data)")
        elif op == _MONITORENTER:
            acc(pc)
            spill()
            out(0, f"_o = s{d - 1}")
            out(0, "if _o is None:")
            throw(pc, _NPE, "'monitorenter'", rel=1)
            out(0, "if _o.monitor_owner is None or "
                   "_o.monitor_owner is thread:")
            out(1, "_o.monitor_owner = thread")
            out(1, "_o.monitor_count += 1")
            if san_on:
                out(1, "SAN.on_acquire(thread, _o)")
            out(0, "else:")
            if sched_on:
                # contended: flush (the thread parks mid-opcode) and
                # block until ownership is handed over
                flush(pc, rel=1)
                out(1, "SP.acquire_contended(thread, _o)")
            else:
                out(1, "raise interp._sequential_monitor_deadlock("
                       "thread, _o)")
        elif op == _MONITOREXIT:
            acc(pc)
            spill()
            out(0, f"_o = s{d - 1}")
            out(0, "if _o is None:")
            throw(pc, _NPE, "'monitorexit'", rel=1)
            out(0, "if _o.monitor_owner is not thread or "
                   "_o.monitor_count <= 0:")
            throw(pc, _IMSE, "'not monitor owner'", rel=1)
            out(0, "_o.monitor_count -= 1")
            out(0, "if _o.monitor_count == 0:")
            out(1, "_o.monitor_owner = None")
            if san_on:
                out(1, "SAN.on_release(thread, _o)")
            if sched_on:
                out(1, "if _o.monitor_waiters:")
                out(2, "SP.release_monitor(thread, _o)")
        elif 0x93 <= op <= 0x95:  # RETURN / IRETURN / ARETURN
            acc(pc)
            spill()
            flush(pc, set_pc=False)
            # the flag is re-checked at run time (agents can toggle
            # events mid-run); inlining it just skips a call when off
            out(0, "if jvmti.method_exit_enabled:")
            out(1, "interp._exit_method_event(thread, method, False)")
            if op == _RETURN:
                out(0, "return RET_VOID")
            else:
                out(0, f"return (0, True, s{d - 1})")
            return False
        elif op == _ATHROW:
            acc(pc)
            spill()
            out(0, f"_e = s{d - 1}")
            out(0, "if _e is None:")
            throw(pc, _NPE, "'throw null'", rel=1)
            out(0, f"return interp._template_raise(thread, frame, {pc}, "
                   "_e, p, n)")
            return False
        elif 0x90 <= op <= 0x92:  # INVOKE family
            np, pushes = _stack_effect(ins, info, cp)
            ref = cp.get_typed(operands[pc], CpMethodRef)
            q = ins.quick
            if q is None:
                cold_guard(pc, d, cost)
                qref = "_q"
            else:
                bind(f"Q{pc}", q)
                qref = f"Q{pc}"
                acc(pc)
                spill()
            flush(pc)
            if sched_on:
                out(0, "if thread.cycles_total >= thread.preempt_at:")
                out(1, "SP.preempt(thread)")
            args = ", ".join(f"s{i}" for i in range(d - np, d))
            out(0, f"_a = [{args}]")
            if op != _INVOKESTATIC:
                out(0, f"if s{d - np} is None:")
                throw(pc, _NPE, repr(f"invoke {ref.method_name} on null"),
                      rel=1, flushed=True)
            if op == _INVOKEVIRTUAL:
                out(0, f"_rc = getattr(s{d - np}, 'jclass', None)")
                out(0, "if _rc is None:")
                out(1, "_rc = loader.load('java.lang.Object')")
                out(0, f"if _rc is {qref}[4]:")
                out(1, f"_m = {qref}[5]")
                out(1, "vm.ic_hits += 1")
                out(0, "else:")
                # PIC slow path: shared with the interpreter so cache
                # state and counters evolve identically across tiers
                out(1, f"_m = interp._pic_miss({qref}, _rc)")
            else:
                out(0, f"_m = {qref}[0]")
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
        else:  # pragma: no cover - _SUPPORTED is exhaustive over Op
            raise _Bail(f"unsupported_op:0x{op:02x}")
        return True

    def _load_expr(pc):
        """The value a fusible load pushes, as a plain expression."""
        op = ops[pc]
        if op == _ILOAD or op == _ALOAD:
            return f"l[{operands[pc]}]"
        if op == _ICONST:
            return repr(operands[pc])
        return "None"  # ACONST_NULL

    def emit_fused(site, d):
        """Emit one fused superinstruction window.

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
        pattern = site.pattern
        if pattern == "load_load_arith":
            pyop = _BIN_POLY[ops[last]]
            out(0, f"_a = {_load_expr(pc)}")
            out(0, f"_b = {_load_expr(pc + 1)}")
            out(0, "if type(_b) is int and type(_a) is int:")
            out(1, f"_r = _a {pyop} _b")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"s{d} = _r")
            out(0, "else:")
            out(1, f"s{d} = _a {pyop} _b")
        elif pattern == "load_arith":
            pyop = _BIN_POLY[ops[last]]
            out(0, f"_a = s{d - 1}")
            out(0, f"_b = {_load_expr(pc)}")
            out(0, "if type(_b) is int and type(_a) is int:")
            out(1, f"_r = _a {pyop} _b")
            out(1, _WRAP[0])
            out(1, _WRAP[1])
            out(1, f"s{d - 1} = _r")
            out(0, "else:")
            out(1, f"s{d - 1} = _a {pyop} _b")
        elif pattern == "load_store":
            out(0, f"l[{operands[last]}] = {_load_expr(pc)}")
        elif pattern == "aload_getfield":
            q = code[last].quick
            spill()
            out(0, f"_o = l[{operands[pc]}]")
            out(0, "if _o is None:")
            throw(last, _NPE, repr(f"getfield {q}"), rel=1)
            out(0, "try:")
            out(1, f"s{d} = _o.fields[{q!r}]")
            out(0, "except (KeyError, AttributeError):")
            out(1, 'raise NoSuchFieldError(f"{_o!r} has no field '
                   f'{q}")')
            if san_on:
                out(0, f"frame.pc = {last}")
                out(0, f"SAN.read_field(thread, _o, {q!r})")
        else:  # load_branch
            spill()
            tmpl, pops = _COND[ops[last]]
            if pops == 1:
                cond = tmpl.format(a=_load_expr(pc))
            else:
                cond = tmpl.format(a=f"s{d - 1}", b=_load_expr(pc))
            target = operands[last]
            out(0, f"if {cond}:")
            if sched_on and target <= last:
                safepoint_backedge(target, rel=1)
            out(1, f"b = {bid[target]}")
            out(1, "continue")
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
    code_obj = compile(source, f"<template:{method.qualified_name}>",
                       "exec")
    namespace = dict(bindings)
    exec(code_obj, namespace)
    func = namespace["template"]
    # published for the code cache (OSR eligibility) and the compiler's
    # fusion statistics; translate()'s return shape is unchanged so
    # monkeypatching tests keep working
    func.osr_map = osr_map
    func.fused_patterns = tuple(fusion_plan[pc].pattern
                                for pc in sorted(fusion_plan))
    return func, source
