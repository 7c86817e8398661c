"""Builder API for authoring bytecode.

:class:`ClassAssembler` builds a :class:`~repro.classfile.classfile.ClassFile`;
:class:`MethodAssembler` (usually obtained as a context manager) builds one
method's code with symbolic labels.

Example::

    casm = ClassAssembler("demo.Counter")
    casm.field("count", static=True, default=0)
    with casm.method("bump", "(I)I", static=True) as m:
        m.getstatic("demo.Counter", "count")
        m.iload(0)
        m.iadd()
        m.dup()
        m.putstatic("demo.Counter", "count")
        m.ireturn()
    cf = casm.build()

Labels are plain strings: :meth:`MethodAssembler.label` marks the *next*
emitted instruction; branch helpers accept label names, which are resolved
to instruction indices when the method is finished.
"""

from __future__ import annotations

import keyword
from typing import Dict, List, Optional, Union

from repro.bytecode.instructions import ExceptionEntry, Instruction
from repro.bytecode.opcodes import SPECS, ArrayKind, Op, OperandKind
from repro.classfile.classfile import ClassFile
from repro.classfile.constant_pool import (
    CpClass,
    CpFieldRef,
    CpFloat,
    CpInt,
    CpMethodRef,
    CpString,
)
from repro.classfile.members import (
    ACC_NATIVE,
    ACC_PUBLIC,
    ACC_STATIC,
    ACC_SYNCHRONIZED,
    FieldInfo,
    MethodInfo,
    parse_descriptor,
)
from repro.errors import BytecodeError

class MethodAssembler:
    """Accumulates instructions for one method.

    Usually used via ``with ClassAssembler.method(...) as m:``; on normal
    exit the method is finished (labels resolved, ``max_locals`` computed)
    and added to the class.
    """

    def __init__(self, owner: "ClassAssembler", name: str, descriptor: str,
                 flags: int):
        self._owner = owner
        self._name = name
        self._descriptor = descriptor
        self._flags = flags
        self._code: List[Instruction] = []
        self._labels: Dict[str, int] = {}
        self._exception_entries: List[ExceptionEntry] = []
        self._max_local_seen = -1
        self._finished = False
        params, _ = parse_descriptor(descriptor)
        self._arg_slots = len(params) + (0 if flags & ACC_STATIC else 1)

    # -- low-level emission --------------------------------------------------

    def emit(self, op: Op, operand=None) -> "MethodAssembler":
        """Append one instruction; returns self for chaining."""
        if self._finished:
            raise BytecodeError(
                f"method {self._name} already finished")
        self._code.append(Instruction(op, operand))
        return self

    def label(self, name: str) -> "MethodAssembler":
        """Bind ``name`` to the position of the next instruction."""
        if name in self._labels:
            raise BytecodeError(
                f"duplicate label {name!r} in method {self._name}")
        self._labels[name] = len(self._code)
        return self

    def _track_local(self, index: int) -> None:
        if index > self._max_local_seen:
            self._max_local_seen = index

    # -- emitters with constant or structured operands --------------------
    #
    # Opcodes whose operand is nothing, a label or a local index get
    # their emitter from SPECS (see the end of this module).

    def iconst(self, value: int) -> "MethodAssembler":
        """Push an integer immediate."""
        return self.emit(Op.ICONST, value)

    def ldc(self, value: Union[int, float, str]) -> "MethodAssembler":
        """Push a constant-pool constant (int, float, or string)."""
        if isinstance(value, bool):
            raise BytecodeError("ldc does not accept bool")
        if isinstance(value, int):
            index = self._owner.cp(CpInt(value))
        elif isinstance(value, float):
            index = self._owner.cp(CpFloat(value))
        elif isinstance(value, str):
            index = self._owner.cp(CpString(value))
        else:
            raise BytecodeError(f"ldc cannot load {value!r}")
        return self.emit(Op.LDC, index)

    def iinc(self, index: int, delta: int) -> "MethodAssembler":
        self._track_local(index)
        return self.emit(Op.IINC, (index, delta))

    # -- objects and fields -------------------------------------------------------------

    def new(self, class_name: str) -> "MethodAssembler":
        return self.emit(Op.NEW, self._owner.cp(CpClass(class_name)))

    def getfield(self, class_name: str, field_name: str) -> "MethodAssembler":
        return self.emit(Op.GETFIELD,
                         self._owner.cp(CpFieldRef(class_name, field_name)))

    def putfield(self, class_name: str, field_name: str) -> "MethodAssembler":
        return self.emit(Op.PUTFIELD,
                         self._owner.cp(CpFieldRef(class_name, field_name)))

    def getstatic(self, class_name: str,
                  field_name: str) -> "MethodAssembler":
        return self.emit(Op.GETSTATIC,
                         self._owner.cp(CpFieldRef(class_name, field_name)))

    def putstatic(self, class_name: str,
                  field_name: str) -> "MethodAssembler":
        return self.emit(Op.PUTSTATIC,
                         self._owner.cp(CpFieldRef(class_name, field_name)))

    def instanceof(self, class_name: str) -> "MethodAssembler":
        return self.emit(Op.INSTANCEOF, self._owner.cp(CpClass(class_name)))

    def checkcast(self, class_name: str) -> "MethodAssembler":
        return self.emit(Op.CHECKCAST, self._owner.cp(CpClass(class_name)))

    # -- arrays ------------------------------------------------------------------------

    def newarray(self, kind: ArrayKind) -> "MethodAssembler":
        return self.emit(Op.NEWARRAY, kind)

    # -- calls --------------------------------------------------------------------------

    def invokestatic(self, class_name: str, name: str,
                     descriptor: str) -> "MethodAssembler":
        ref = CpMethodRef(class_name, name, descriptor)
        return self.emit(Op.INVOKESTATIC, self._owner.cp(ref))

    def invokevirtual(self, class_name: str, name: str,
                      descriptor: str) -> "MethodAssembler":
        ref = CpMethodRef(class_name, name, descriptor)
        return self.emit(Op.INVOKEVIRTUAL, self._owner.cp(ref))

    def invokespecial(self, class_name: str, name: str,
                      descriptor: str) -> "MethodAssembler":
        ref = CpMethodRef(class_name, name, descriptor)
        return self.emit(Op.INVOKESPECIAL, self._owner.cp(ref))

    # -- exception table -----------------------------------------------------

    def try_catch(self, start: str, end: str, handler: str,
                  catch_type: Optional[str] = None) -> "MethodAssembler":
        """Register an exception-table row over label range
        [``start``, ``end``) with handler ``handler``.  ``catch_type`` of
        ``None`` catches any throwable (used for ``finally`` blocks)."""
        self._exception_entries.append(
            ExceptionEntry(start, end, handler, catch_type))
        return self

    # -- finishing ----------------------------------------------------------------------

    def _resolve_label(self, name) -> int:
        if isinstance(name, int):
            return name
        try:
            return self._labels[name]
        except KeyError:
            raise BytecodeError(
                f"undefined label {name!r} in method {self._name}")

    def finish(self) -> MethodInfo:
        """Resolve labels and produce the :class:`MethodInfo`."""
        if self._finished:
            raise BytecodeError(f"method {self._name} already finished")
        self._finished = True
        code = []
        for ins in self._code:
            if ins.spec.operand.name == "LABEL" and \
                    isinstance(ins.operand, str):
                code.append(Instruction(ins.op,
                                        self._resolve_label(ins.operand)))
            else:
                code.append(ins)
        table = [
            ExceptionEntry(self._resolve_label(e.start),
                           self._resolve_label(e.end),
                           self._resolve_label(e.handler),
                           e.catch_type)
            for e in self._exception_entries
        ]
        max_locals = max(self._arg_slots, self._max_local_seen + 1)
        method = MethodInfo(self._name, self._descriptor, self._flags,
                            max_locals=max_locals, code=code,
                            exception_table=table)
        self._owner._install(method)
        return method

    # -- context-manager protocol ----------------------------------------------------

    def __enter__(self) -> "MethodAssembler":
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.finish()
        return False

class ClassAssembler:
    """Builds one :class:`ClassFile`."""

    def __init__(self, name: str, super_name: str = "java.lang.Object",
                 flags: int = ACC_PUBLIC):
        self._cf = ClassFile(name, super_name, flags)

    @property
    def name(self) -> str:
        return self._cf.name

    def cp(self, entry) -> int:
        """Add ``entry`` to the constant pool; return its index."""
        return self._cf.constant_pool.add(entry)

    def field(self, name: str, static: bool = False, default=None,
              flags: int = ACC_PUBLIC) -> FieldInfo:
        """Declare a field."""
        if static:
            flags |= ACC_STATIC
        return self._cf.add_field(FieldInfo(name, flags, default))

    def method(self, name: str, descriptor: str, static: bool = False,
               flags: int = ACC_PUBLIC,
               synchronized: bool = False) -> MethodAssembler:
        """Start assembling a bytecode method; use as a context manager."""
        if static:
            flags |= ACC_STATIC
        if synchronized:
            flags |= ACC_SYNCHRONIZED
        return MethodAssembler(self, name, descriptor, flags)

    def native_method(self, name: str, descriptor: str, static: bool = False,
                      flags: int = ACC_PUBLIC) -> MethodInfo:
        """Declare a ``native`` method (no code)."""
        if static:
            flags |= ACC_STATIC
        flags |= ACC_NATIVE
        params, _ = parse_descriptor(descriptor)
        max_locals = len(params) + (0 if flags & ACC_STATIC else 1)
        method = MethodInfo(name, descriptor, flags, max_locals=max_locals,
                            code=None)
        self._cf.add_method(method)
        return method

    def _install(self, method: MethodInfo) -> None:
        self._cf.add_method(method)

    def build(self, verify: bool = True) -> ClassFile:
        """Return the finished :class:`ClassFile` (verified by default)."""
        if verify:
            from repro.bytecode.verifier import verify_class
            verify_class(self._cf)
        return self._cf


def _emitter(op: Op, kind: OperandKind):
    """The fluent emitter for an opcode whose operand is nothing, a
    label name or a local-variable index."""
    if kind is OperandKind.NONE:
        def emitter(self) -> MethodAssembler:
            return self.emit(op)
    elif kind is OperandKind.LABEL:
        def emitter(self, target: str) -> MethodAssembler:
            return self.emit(op, target)
    else:
        def emitter(self, index: int) -> MethodAssembler:
            self._track_local(index)
            return self.emit(op, index)
    emitter.__doc__ = f"Emit ``{SPECS[op].mnemonic}``."
    return emitter


# ``m.iadd()``, ``m.goto("L")``, ``m.iload(0)``, ``m.return_()`` ...
for _op, _spec in SPECS.items():
    if _spec.operand in (OperandKind.NONE, OperandKind.LABEL,
                         OperandKind.LOCAL):
        _name = _spec.mnemonic + "_" * keyword.iskeyword(_spec.mnemonic)
        setattr(MethodAssembler, _name, _emitter(_op, _spec.operand))
