"""The opcode definition table both execution tiers are generated from."""

import re

from repro.bytecode.opcodes import CONDITIONAL_BRANCHES, INVOKE_OPS, SPECS, Op
from repro.jit.opdefs import OPDEFS
from repro.jvm import interpreter


def test_every_opcode_has_one_definition():
    assert sorted(OPDEFS) == sorted(int(op) for op in Op)
    for code, entry in OPDEFS.items():
        spec = SPECS[entry.op]
        assert int(entry.op) == code
        if spec.pops >= 0:
            assert len(entry.inputs) == spec.pops
            assert len(entry.outputs) == spec.pushes


def test_flags_follow_the_fragments():
    assert OPDEFS[Op.IDIV].may_throw and not OPDEFS[Op.IADD].may_throw
    assert OPDEFS[Op.ATHROW].may_throw
    assert OPDEFS[Op.GETSTATIC].flushes and OPDEFS[Op.LDC].flushes
    assert not OPDEFS[Op.GETFIELD].flushes
    assert {op for op, e in OPDEFS.items() if e.quickened} == {
        int(op) for op in (Op.LDC, Op.NEW, Op.GETFIELD, Op.PUTFIELD,
                           Op.GETSTATIC, Op.PUTSTATIC, Op.INSTANCEOF,
                           Op.CHECKCAST, *INVOKE_OPS)}
    assert {op for op, e in OPDEFS.items() if e.safepoint} == {
        int(op) for op in (Op.GOTO, *CONDITIONAL_BRANCHES, *INVOKE_OPS)}


def test_fusible_loads_push_plain_expressions():
    pushes = {op: e.push_expr for op, e in OPDEFS.items() if e.push_expr}
    assert pushes == {int(Op.ICONST): "$arg", int(Op.ACONST_NULL): "None",
                      int(Op.ILOAD): "l[$arg]", int(Op.ALOAD): "l[$arg]"}


def test_generated_loop_tests_each_opcode_once():
    # every opcode is reached by exactly one test of the if-chain; the
    # last arm of a range-tested family is a bare ``else``
    tested = re.findall(r"op == (\w+)", interpreter.RUN_SOURCE)
    in_else = {"IF_ACMPNE", "IRETURN", "ARETURN", "INVOKESPECIAL"}
    assert sorted(tested) == sorted(op.name for op in Op
                                    if op.name not in in_else)
