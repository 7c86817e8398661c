"""Structural bytecode verifier.

Checks, per method:

* branch targets and exception-table ranges are valid instruction indices;
* control flow cannot fall off the end of the code;
* operand-stack depth is consistent: a dataflow pass over the code proves
  every instruction has enough operands and that all paths reaching an
  instruction agree on stack depth (exception handlers start at depth 1 —
  the thrown object);
* return opcodes match the method descriptor (value vs ``void``);
* local indices stay below ``max_locals``.

Types are not tracked here (the typed abstract-interpretation pass lives
in :mod:`repro.analysis.typed_verifier`); this is a stack-discipline
verifier in the spirit of the JVM's, scaled to the ISA.  Every failure
raises a structured :class:`~repro.errors.VerifyError` naming the owning
class, method, instruction index, and mnemonic where known.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.bytecode.instructions import Instruction
from repro.bytecode.opcodes import INVOKE_OPS, Op, OperandKind, VARIABLE
from repro.classfile.constant_pool import CpMethodRef
from repro.classfile.members import arg_slot_count, returns_value
from repro.errors import VerifyError


def _stack_effect(ins: Instruction, method, constant_pool,
                  pc: Optional[int] = None,
                  class_name: Optional[str] = None):
    """Return (pops, pushes) for ``ins``, resolving variable effects."""
    spec = ins.spec
    if spec.pops != VARIABLE:
        return spec.pops, spec.pushes
    if ins.op in INVOKE_OPS:
        entry = constant_pool.get_typed(ins.operand, CpMethodRef)
        pops = arg_slot_count(entry.descriptor)
        if ins.op in (Op.INVOKEVIRTUAL, Op.INVOKESPECIAL):
            pops += 1
        pushes = 1 if returns_value(entry.descriptor) else 0
        return pops, pushes
    raise VerifyError(
        "cannot compute stack effect",
        class_name=class_name,
        method=f"{method.name}{method.descriptor}",
        pc=pc,
        mnemonic=spec.mnemonic)


def verify_method(method, constant_pool,
                  class_name: Optional[str] = None) -> int:
    """Verify one method; returns the maximum operand-stack depth.

    ``method`` is a :class:`~repro.classfile.members.MethodInfo` whose
    branch operands are already resolved; ``constant_pool`` is the owning
    class's pool and ``class_name`` the owning class (named in
    diagnostics when given).  Raises :class:`~repro.errors.VerifyError`
    on failure.
    """
    where = f"{method.name}{method.descriptor}"

    def fail(reason, pc=None, mnemonic=None):
        raise VerifyError(reason, class_name=class_name, method=where,
                          pc=pc, mnemonic=mnemonic)

    if method.is_native:
        return 0
    code = method.code
    if not code:
        fail("method has empty code")
    n = len(code)

    def check_target(index, what, pc=None):
        if not isinstance(index, int) or index < 0 or index >= n:
            fail(f"{what} {index!r} out of range", pc=pc)

    # structural checks -----------------------------------------------------
    for pc, ins in enumerate(code):
        mnemonic = ins.spec.mnemonic
        if ins.spec.operand is OperandKind.LABEL:
            if isinstance(ins.operand, str):
                fail(f"unresolved label {ins.operand!r}", pc=pc,
                     mnemonic=mnemonic)
            check_target(ins.operand, "branch target", pc=pc)
        if ins.spec.operand is OperandKind.LOCAL and \
                ins.operand >= method.max_locals:
            fail(f"local index {ins.operand} >= max_locals "
                 f"{method.max_locals}", pc=pc, mnemonic=mnemonic)
        if ins.spec.operand is OperandKind.IINC and \
                ins.operand[0] >= method.max_locals:
            fail(f"iinc index {ins.operand[0]} >= max_locals "
                 f"{method.max_locals}", pc=pc, mnemonic=mnemonic)
        if ins.op in (Op.IRETURN, Op.ARETURN) and not method.returns_value:
            fail("value return from void method", pc=pc, mnemonic=mnemonic)
        if ins.op is Op.RETURN and method.returns_value:
            fail("void return from value-returning method", pc=pc,
                 mnemonic=mnemonic)
    if not code[-1].spec.ends_block:
        fail("control falls off the end of the method", pc=n - 1)

    for entry in method.exception_table:
        check_target(entry.start, "exception-table start")
        check_target(entry.handler, "exception-table handler")
        if not isinstance(entry.end, int) or entry.end < entry.start or \
                entry.end > n:
            fail(f"bad exception-table range [{entry.start}, {entry.end})")

    # stack dataflow ---------------------------------------------------------
    # (imported here: repro.analysis imports this module)
    from repro.analysis.cfg import solve_forward

    entries: Dict[int, int] = {0: 0}
    for entry in method.exception_table:
        entries.setdefault(entry.handler, 1)
    max_depth = 1 if method.exception_table else 0

    def transfer(pc: int, depth: int):
        nonlocal max_depth
        ins = code[pc]
        pops, pushes = _stack_effect(ins, method, constant_pool,
                                     pc=pc, class_name=class_name)
        if depth < pops:
            fail(f"stack underflow ({ins.spec.mnemonic}: needs "
                 f"{pops}, have {depth})", pc=pc,
                 mnemonic=ins.spec.mnemonic)
        depth = depth - pops + pushes
        if depth > max_depth:
            max_depth = depth
        if ins.spec.operand is OperandKind.LABEL:
            yield ins.operand, depth
        if not ins.spec.ends_block:
            # the last instruction ends a block (checked above), so
            # fall-through stays inside the code
            yield pc + 1, depth

    def join(target: int, known: int, depth: int, pc: int) -> int:
        if known != depth:
            fail(f"inconsistent stack depth at pc {target} "
                 f"({known} vs {depth})", pc=pc)
        return known

    solve_forward(entries, transfer, join)
    return max_depth


def verify_class(cf) -> int:
    """Verify every non-native method of a class file; returns the
    number of methods checked."""
    checked = 0
    for method in cf.methods:
        verify_method(method, cf.constant_pool, class_name=cf.name)
        checked += 1
    return checked
