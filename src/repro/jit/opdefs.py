"""One definition per opcode: the semantics both execution tiers run.

Each opcode's behaviour -- what it computes, when it throws, when it
makes pending cycles observable -- is written once here, as a Python
source fragment over named operand-stack slots.
:mod:`repro.jvm.interpreter` generates its dispatch loop from the
fragments at import; :mod:`repro.jit.template` renders them per method
with stack slots as ``s{d}`` locals, and renders a fused window as its
consumer's fragment with the loads substituted.  Control transfer
(branch targets and backedges, invoke and return) stays with the
renderers, which splice in an opcode's condition or value fragment.

In a fragment (four-space indents; a trailing ``\\`` joins lines):

* ``$x`` is a stack input or output named by ``stack="in -- out"``, the
  operand (``$arg``; ``$idx``/``$delta`` for ``iinc``), a view of the
  quickened constant-pool value (:class:`Quick`), ``$pc``, or a name
  the renderer supplies; ``{$x}`` interpolates one in an f-string;
* ``_x = $x`` binds input ``x`` (the interpreter pops straight into it);
* ``WRAP`` wraps the int ``_r`` to 32 bits;
* ``THROW(EXC, message)``, ``RAISE(expr)`` and ``FLUSH`` (charge the
  pending cycles) are rendered with each tier's own accounting;
* ``if SAN:``/``if SP:`` guard sanitizer and scheduler code; the
  template decides them, and ``if $view:`` on a known view, when it
  translates.

Adding an opcode means one :data:`~repro.bytecode.opcodes.SPECS` entry
and one :func:`_define` call below.
"""

from __future__ import annotations

import functools
import math
import re
import textwrap
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.bytecode.opcodes import INVOKE_OPS, SPECS, VARIABLE, ArrayKind, \
    Op, OperandKind
from repro.errors import NoSuchFieldError
from repro.jvm.values import JArray, wrap_int32

#: Java exceptions the fragments throw, by the name ``THROW`` uses.
EXCEPTIONS = {
    "NPE": "java.lang.NullPointerException",
    "AIOOBE": "java.lang.ArrayIndexOutOfBoundsException",
    "ARITH": "java.lang.ArithmeticException",
    "CCE": "java.lang.ClassCastException",
    "NASE": "java.lang.NegativeArraySizeException",
    "IMSE": "java.lang.IllegalMonitorStateException",
}

#: Module-level names the fragments use, in both tiers' namespaces.
FRAGMENT_GLOBALS = {
    "JArray": JArray,
    "wrap_int32": wrap_int32,
    "NoSuchFieldError": NoSuchFieldError,
    "AK_INT": ArrayKind.INT,
    "_nan": math.nan,
    "_inf": math.inf,
    "_ninf": -math.inf,
    "_cs": math.copysign,
}

_WRAP = ("if _r > 2147483647 or _r < -2147483648:",
         "    _r = (_r + 2147483648 & 4294967295) - 2147483648")


class Literal(NamedTuple):
    """A placeholder value the renderer knows when it renders: emitted
    as ``repr(value)`` in code, as its text inside an f-string."""

    value: object


class Quick:
    """An opcode's quickened constant-pool site.

    ``resolve`` is the interpreter's first-execution resolution, a
    fragment assigning ``_q``.  Each view is ``(expression over Q,
    bind)``: the interpreter, and a template translated before the site
    was quickened, read ``Q`` as ``_q``; otherwise the template inlines
    the view's value, or binds it as ``{bind}{pc}`` (``bind`` may be a
    function of the quickened value)."""

    def __init__(self, resolve: str, **views):
        self.resolve = _lines(resolve)
        self.views = {name: (eval(f"lambda Q: {expr}"), expr, bind)
                      for name, (expr, bind) in views.items()}

    def cold_view(self, name: str, q_name: str) -> str:
        """The view as an expression over the local ``q_name``."""
        return re.sub(r"\bQ\b", q_name, self.views[name][1])


class OpDef:
    """One opcode's fragment and flags."""

    def __init__(self, op: Op, stack: Optional[str], body: str,
                 quick: Optional[Quick], cond: Optional[str],
                 bind_operand: Optional[str]):
        self.op, self.spec = op, SPECS[op]
        spec = self.spec
        if stack is None:
            self.inputs = self.outputs = ()
        else:
            ins, outs = stack.split("--")
            self.inputs = tuple(ins.split())
            self.outputs = tuple(outs.split())
        #: (name, stack slot relative to the depth before the opcode)
        self.slots = tuple((name, i - len(self.inputs)) for names in (
            self.outputs, self.inputs) for i, name in enumerate(names))
        if spec.pops != VARIABLE and (len(self.inputs), len(
                self.outputs)) != (spec.pops, spec.pushes):
            raise ValueError(f"{spec.mnemonic}: stack {stack!r} disagrees "
                             f"with SPECS ({spec.pops} -- {spec.pushes})")
        if spec.operand is OperandKind.IINC:
            self.operands = ("idx", "delta")
        elif spec.operand is OperandKind.NONE:
            self.operands = ()
        else:
            self.operands = ("arg",)
        self.body = _lines(body)
        self.quick = quick
        self.cond = cond
        #: the template binds the operand as ``{bind_operand}{pc}``
        #: instead of inlining it (values without a source literal)
        self.bind_operand = bind_operand
        text = "\n".join(self.body)
        #: may throw a Java exception
        self.may_throw = "THROW(" in text or "RAISE(" in text
        #: makes pending cycles observable (invoke and return too)
        self.flushes = "FLUSH" in text or op in INVOKE_OPS or \
            spec.cost_class == "return"
        #: a scheduler safepoint: backedges and call boundaries
        self.safepoint = spec.is_branch or op in INVOKE_OPS
        #: reads a quickened constant-pool site (a cold-site deopt in
        #: the template until the interpreter has resolved it)
        self.quickened = quick is not None

    @property
    def push_expr(self) -> Optional[str]:
        """For a pure push (``$out = expr``, nothing popped, no
        quickening) the pushed expression -- what fusion substitutes
        for the stack slot."""
        if self.inputs or self.quick is not None or len(self.body) != 1:
            return None
        target, _, expr = self.body[0].partition(" = ")
        return expr if self.outputs == (target[1:],) else None


def _lines(source: str) -> Tuple[str, ...]:
    """Dedent, join ``\\``-continued lines, expand ``WRAP``."""
    out: List[str] = []
    joined = re.sub(r"\\\n\s*", "", textwrap.dedent(source))
    for line in joined.splitlines():
        text = line.strip()
        if text == "WRAP":
            pad = line[:len(line) - len(line.lstrip())]
            out.extend(pad + w for w in _WRAP)
        elif text:
            out.append(line.rstrip())
    return tuple(out)


# -- rendering ---------------------------------------------------------------

#: A placeholder: ``{$x}`` inside an f-string, or ``$x``.
_PLACEHOLDER = re.compile(r"\{\$(\w+)\}|\$(\w+)")
_STATIC_IF = re.compile(r"if (SAN|SP|\$\w+):$")
_DIRECTIVE = re.compile(r"(THROW|RAISE)\((.*)\)$|FLUSH$")

#: ``value(name)`` -> source text or :class:`Literal`
Value = Callable[[str], object]


def render(lines, value: Value, directive, key=()):
    """Render fragment ``lines`` to ``(((indent level, text), ...), a
    directive was rendered)``.  Renders are memoized, so
    ``directive(key, kind, *args)`` may depend on its arguments alone."""
    lines = tuple(lines)
    return _render(lines, tuple(map(value, _names(lines))), directive, key)


@functools.lru_cache(maxsize=None)
def _names(lines: Tuple[str, ...]) -> Tuple[str, ...]:
    """The placeholder names ``lines`` use, ``SAN`` and ``SP`` too."""
    names = {m.group(1) or m.group(2)
             for line in lines for m in _PLACEHOLDER.finditer(line)}
    return tuple(sorted(names | {m.group(1) for line in lines if (
        m := re.match(r"\s*if (SAN|SP):$", line))}))


@functools.lru_cache(maxsize=4096)
def _render(lines, values, directive, key):
    used = []

    def emit(*args):
        used.append(args[0])
        return directive(key, *args)
    out: List[Tuple[int, str]] = []
    _walk(_tree(lines), dict(zip(_names(lines), values)).__getitem__,
          emit, 0, out)
    return tuple(out), bool(used)


def substitute(text: str, value: Value) -> str:
    """Replace every placeholder in one line of code."""
    def replace(match):
        if match.group(1):  # inside an f-string
            v = value(match.group(1))
            return str(v.value) if isinstance(v, Literal) else "{%s}" % v
        v = value(match.group(2))
        return repr(v.value) if isinstance(v, Literal) else v
    return _PLACEHOLDER.sub(replace, text)


def message(source: str, value: Value) -> str:
    """A ``THROW`` message as an expression: an f-string becomes the
    concatenation of its parts, literals folded together."""
    if not source.startswith(("f'", 'f"')):
        return substitute(source, value)
    items: List[object] = []
    for i, part in enumerate(re.split(r"\{([^{}]*)\}", source[2:-1])):
        if i % 2 == 0:
            item = Literal(part)
        elif part.startswith("$"):
            item = value(part[1:])
            if isinstance(item, Literal):
                item = Literal(str(item.value))
        else:
            item = substitute(part, value)
        if isinstance(item, Literal) and items and \
                isinstance(items[-1], Literal):
            items[-1] = Literal(items[-1].value + item.value)
        else:
            items.append(item)
    return " + ".join(repr(item.value) if isinstance(item, Literal)
                      else item for item in items if item != Literal(""))


def _tree(lines):
    root: List = []
    open_blocks = [(-1, root)]
    for line in lines:
        depth = (len(line) - len(line.lstrip())) // 4
        node = (line.strip(), [])
        while open_blocks[-1][0] >= depth:
            open_blocks.pop()
        open_blocks[-1][1].append(node)
        open_blocks.append((depth, node[1]))
    return root


def _walk(nodes, value, directive, level, out) -> None:
    drop_else = None  # after a decided if: whether its else is dropped
    for text, children in nodes:
        if text == "else:" and drop_else is not None:
            if not drop_else:
                _walk(children, value, directive, level, out)
            drop_else = None
            continue
        drop_else = None
        static = _STATIC_IF.match(text)
        if static:
            cond = value(static.group(1).lstrip("$"))
            if isinstance(cond, Literal):
                if cond.value:
                    _walk(children, value, directive, level, out)
                drop_else = bool(cond.value)
                continue
            text = f"if {cond}:"
        else:
            d = _DIRECTIVE.match(text)
            if d:
                kind, arg = d.group(1) or "FLUSH", d.group(2)
                if kind == "THROW":
                    exc, _, msg = arg.partition(", ")
                    args = (EXCEPTIONS[exc], message(msg, value))
                else:
                    args = (substitute(arg, value),) if arg else ()
                out.extend((level + rel, line)
                           for rel, line in directive(kind, *args))
                continue
            text = substitute(text, value)
        out.append((level, text))
        _walk(children, value, directive, level + 1, out)


# -- the table ---------------------------------------------------------------

OPDEFS: Dict[int, OpDef] = {}


def _define(op: Op, stack: Optional[str], body: str = "", *,
            quick: Optional[Quick] = None, cond: Optional[str] = None,
            bind_operand: Optional[str] = None) -> None:
    OPDEFS[int(op)] = OpDef(op, stack, body, quick, cond, bind_operand)


_define(Op.NOP, "--")
_define(Op.ICONST, "-- r", "$r = $arg")
_define(Op.ACONST_NULL, "-- r", "$r = None")
for _op in (Op.ILOAD, Op.ALOAD):
    _define(_op, "-- r", "$r = l[$arg]")
for _op in (Op.ISTORE, Op.ASTORE):
    _define(_op, "v --", "l[$arg] = $v")
_define(Op.IINC, "--", """
    _r = l[$idx] + $delta
    if type(_r) is int:
        WRAP
        l[$idx] = _r
    else:
        l[$idx] = wrap_int32(_r)
""")

_define(Op.POP, "v --")
_define(Op.DUP, "v -- x y", "$y = $v")
_define(Op.DUP_X1, "a b -- x y z", "$x, $y, $z = $b, $a, $b")
_define(Op.SWAP, "a b -- x y", "$x, $y = $b, $a")

# the I family is polymorphic over ints and floats: an int result wraps
for _op, _sym in ((Op.IADD, "+"), (Op.ISUB, "-"), (Op.IMUL, "*")):
    _define(_op, "a b -- r", """
        _a = $a
        _b = $b
        if type(_b) is int and type(_a) is int:
            _r = _a %s _b
            WRAP
            $r = _r
        else:
            $r = _a %s _b
    """ % (_sym, _sym))
for _op, _expr in ((Op.IAND, "$a & $b"), (Op.IOR, "$a | $b"),
                   (Op.IXOR, "$a ^ $b"), (Op.ISHL, "$a << ($b & 31)"),
                   (Op.ISHR, "$a >> ($b & 31)")):
    _define(_op, "a b -- r", """
        _r = %s
        WRAP
        $r = _r
    """ % _expr)
_define(Op.IUSHR, "a b -- r", """
    _r = ($a & 4294967295) >> ($b & 31)
    if _r > 2147483647:
        _r -= 4294967296
    $r = _r
""")
# Java int division truncates toward zero; floats divide as in Python
for _op, _int, _float in ((Op.IDIV, "_t", "_a / _b"),
                          (Op.IREM, "_a - _t * _b", "_a % _b")):
    _define(_op, "a b -- r", """
        _b = $b
        _a = $a
        if type(_a) is int and type(_b) is int:
            if _b == 0:
                THROW(ARITH, '/ by zero')
            _t = abs(_a) // abs(_b)
            if (_a < 0) != (_b < 0):
                _t = -_t
            _r = %s
            WRAP
            $r = _r
        else:
            if _b == 0:
                THROW(ARITH, '/ by zero')
            $r = %s
    """ % (_int, _float))
_define(Op.INEG, "v -- r", """
    _v = $v
    if type(_v) is int:
        _r = -_v
        WRAP
        $r = _r
    else:
        $r = -_v
""")
# IEEE-754 (JVM fdiv): x/±0.0 is ±Infinity with the XOR of the operand
# signs; 0.0/0.0 is NaN.  Never ArithmeticException.
_define(Op.FDIV, "a b -- r", """
    _a = $a
    _b = $b
    if _b == 0:
        if _a == 0:
            $r = _nan
        else:
            _r = _cs(1.0, float(_a)) * _cs(1.0, float(_b))
            $r = _inf if _r > 0 else _ninf
    else:
        $r = _a / _b
""")
_define(Op.I2F, "v -- r", "$r = float($v)")
_define(Op.F2I, "v -- r", """
    _r = int($v)
    WRAP
    $r = _r
""")
_define(Op.FCMP, "a b -- r", """
    _a = $a
    _b = $b
    $r = -1 if _a < _b else (1 if _a > _b else 0)
""")

_define(Op.GOTO, "--")
for _op, _cond in ((Op.IFEQ, "$a == 0"), (Op.IFNE, "$a != 0"),
                   (Op.IFLT, "$a < 0"), (Op.IFLE, "$a <= 0"),
                   (Op.IFGT, "$a > 0"), (Op.IFGE, "$a >= 0"),
                   (Op.IFNULL, "$a is None"),
                   (Op.IFNONNULL, "$a is not None")):
    _define(_op, "a --", cond=_cond)
for _op, _cond in ((Op.IF_ICMPEQ, "$a == $b"), (Op.IF_ICMPNE, "$a != $b"),
                   (Op.IF_ICMPLT, "$a < $b"), (Op.IF_ICMPLE, "$a <= $b"),
                   (Op.IF_ICMPGT, "$a > $b"), (Op.IF_ICMPGE, "$a >= $b"),
                   (Op.IF_ACMPEQ, "$a is $b"),
                   (Op.IF_ACMPNE, "$a is not $b")):
    _define(_op, "a b --", cond=_cond)

# -- constant-pool sites (quickened on first execution) ---------------------

_FIELD = "_q = method.owner.constant_pool.get_typed($arg, CpFieldRef)" \
    ".field_name"
_define(Op.GETFIELD, "o -- r", """
    _o = $o
    if _o is None:
        THROW(NPE, f"getfield {$name}")
    try:
        $r = _o.fields[$name]
    except (KeyError, AttributeError):
        raise NoSuchFieldError(f"{_o!r} has no field {$name}")
    if SAN:
        frame.pc = $pc
        SAN.read_field(thread, _o, $name)
""", quick=Quick(_FIELD, name=("Q", None)))
_define(Op.PUTFIELD, "o v --", """
    _v = $v
    _o = $o
    if _o is None:
        THROW(NPE, f"putfield {$name}")
    if $name not in _o.fields:
        raise NoSuchFieldError(f"{_o!r} has no field {$name}")
    _o.fields[$name] = _v
    if SAN:
        frame.pc = $pc
        SAN.write_field(thread, _o, $name)
""", quick=Quick(_FIELD, name=("Q", None)))

_STATIC = Quick("""
    _ref = method.owner.constant_pool.get_typed($arg, CpFieldRef)
    _h = loader.load(_ref.class_name).resolve_static_holder(
        _ref.field_name)
    if _h is None:
        raise NoSuchFieldError(
            f"{_ref.class_name} has no static {_ref.field_name}")
    _q = (_h, _ref.field_name)
""", statics=("Q[0].statics", "D"), name=("Q[1]", "N"),
    holder=("Q[0]", "H"))
_define(Op.GETSTATIC, "-- r", """
    FLUSH
    $r = $statics[$name]
    if SAN:
        SAN.read_static(thread, $holder, $name)
""", quick=_STATIC)
_define(Op.PUTSTATIC, "v --", """
    FLUSH
    $statics[$name] = $v
    if SAN:
        SAN.write_static(thread, $holder, $name)
""", quick=_STATIC)

_define(Op.NEW, "-- r", """
    FLUSH
    $r = heap.alloc_object($cls)
""", quick=Quick("""
    _q = loader.load(method.owner.constant_pool.get_typed(
        $arg, CpClass).name)
""", cls=("Q", "C")))
# an int/float constant is free; interning a string is a VM boundary
_define(Op.LDC, "-- r", """
    if $is_string:
        FLUSH
    $r = $value
""", quick=Quick("""
    _c = method.owner.constant_pool.get($arg)
    if type(_c) is CpInt or type(_c) is CpFloat:
        _q = (False, _c.value)
    elif type(_c) is CpString:
        FLUSH
        _q = (True, vm.intern_string(_c.value))
    else:
        raise VMError(f"ldc of unsupported constant {_c!r}")
""", is_string=("Q[0]", None),
    value=("Q[1]", lambda q: "S" if q[0] else "F")))

_CLASS_NAME = "_q = method.owner.constant_pool.get_typed($arg, CpClass).name"
# arrays are instances of java.lang.Object only
_define(Op.INSTANCEOF, "o -- r", """
    _o = $o
    if _o is None:
        $r = 0
    elif isinstance(_o, JArray):
        $r = $array_result
    else:
        $r = 1 if _o.jclass.is_subclass_of($cname) else 0
""", quick=Quick(_CLASS_NAME, cname=("Q", None), array_result=(
    "1 if Q == 'java.lang.Object' else 0", None)))
_define(Op.CHECKCAST, "o -- r", """
    _o = $o
    if _o is not None and not isinstance(_o, JArray) \\
            and not _o.jclass.is_subclass_of($cname):
        THROW(CCE, f"{_o.class_name} -> {$cname}")
""", quick=Quick(_CLASS_NAME, cname=("Q", None)))

# -- arrays ------------------------------------------------------------------

_define(Op.NEWARRAY, "v -- r", """
    _v = $v
    if _v < 0:
        THROW(NASE, str(_v))
    $r = heap.alloc_array($arg, _v)
""", bind_operand="A")
for _op in (Op.IALOAD, Op.AALOAD):
    _define(_op, "arr i -- r", """
        _i = $i
        _arr = $arr
        if _arr is None:
            THROW(NPE, 'array load')
        _dt = _arr.data
        if _i < 0 or _i >= len(_dt):
            THROW(AIOOBE, str(_i))
        $r = _dt[_i]
    """)
# stores normalize per element kind (byte arrays wrap, ...); in-range
# ints into int arrays skip the call
for _op in (Op.IASTORE, Op.AASTORE):
    _define(_op, "arr i v --", """
        _v = $v
        _i = $i
        _arr = $arr
        if _arr is None:
            THROW(NPE, 'array store')
        _dt = _arr.data
        if _i < 0 or _i >= len(_dt):
            THROW(AIOOBE, str(_i))
        if _arr.kind is AK_INT and type(_v) is int \\
                and -2147483648 <= _v <= 2147483647:
            _dt[_i] = _v
        else:
            _dt[_i] = _arr.normalize(_v)
    """)
_define(Op.ARRAYLENGTH, "arr -- r", """
    _arr = $arr
    if _arr is None:
        THROW(NPE, 'arraylength')
    $r = len(_arr.data)
""")

# -- calls, returns, throws, monitors ----------------------------------------

# The quickened invoke site: [resolved, arg slots, name, descriptor,
# PIC entry-0 class, PIC entry-0 method, PIC overflow classes, PIC
# overflow methods] -- Interpreter._pic_miss runs the cache state
# machine on the last four.  The renderer supplies ``$recv`` (the
# receiver slot) and ``$mname`` (the method name).
_INVOKE_RESOLVE = """
    _ref = method.owner.constant_pool.get_typed($arg, CpMethodRef)
    _rm = loader.load(_ref.class_name).resolve_method(
        _ref.method_name, _ref.descriptor)
    if _rm is None:
        raise NoSuchMethodError(
            f"{_ref.class_name}.{_ref.method_name}{_ref.descriptor}")
    if %s_rm.info.is_static:
        raise NoSuchMethodError(
            f"%s {_rm.qualified_name}")
    _q = [_rm, _rm.info.arg_slots, _ref.method_name, _ref.descriptor,
          None, None, None, None]
"""
_STATIC_INVOKE = Quick(_INVOKE_RESOLVE % (
    "not ", "static invoke of instance"), q=("Q", "Q"))
_INSTANCE_INVOKE = Quick(_INVOKE_RESOLVE % (
    "", "instance invoke of static"), q=("Q", "Q"))
_NULL_RECEIVER = """
    if $recv is None:
        THROW(NPE, f"invoke {$mname} on null")
"""
_define(Op.INVOKESTATIC, None, "_m = $q[0]", quick=_STATIC_INVOKE)
_define(Op.INVOKESPECIAL, None, _NULL_RECEIVER + """
    _m = $q[0]
""", quick=_INSTANCE_INVOKE)
# the polymorphic inline cache: entry 0 is one identity test; the slow
# path is shared by both tiers so cache state evolves identically
_define(Op.INVOKEVIRTUAL, None, _NULL_RECEIVER + """
    _rc = getattr($recv, 'jclass', None)
    if _rc is None:
        _rc = loader.load('java.lang.Object')
    if _rc is $q[4]:
        _m = $q[5]
        vm.ic_hits += 1
    else:
        _m = interp._pic_miss($q, _rc)
""", quick=_INSTANCE_INVOKE)
_define(Op.RETURN, "--")
_define(Op.IRETURN, "v --")
_define(Op.ARETURN, "v --")

_define(Op.ATHROW, "e --", """
    _e = $e
    if _e is None:
        THROW(NPE, 'throw null')
    RAISE(_e)
""")
# contended: under the scheduler the thread parks mid-opcode (pending
# cycles flushed first) until the owner hands the monitor over; the
# sequential model cannot block, so it reports the deadlock
_define(Op.MONITORENTER, "o --", """
    _o = $o
    if _o is None:
        THROW(NPE, 'monitorenter')
    if _o.monitor_owner is None or _o.monitor_owner is thread:
        _o.monitor_owner = thread
        _o.monitor_count += 1
        if SAN:
            SAN.on_acquire(thread, _o)
    else:
        if SP:
            FLUSH
            SP.acquire_contended(thread, _o)
        else:
            raise interp._sequential_monitor_deadlock(thread, _o)
""")
_define(Op.MONITOREXIT, "o --", """
    _o = $o
    if _o is None:
        THROW(NPE, 'monitorexit')
    if _o.monitor_owner is not thread or _o.monitor_count <= 0:
        THROW(IMSE, 'not monitor owner')
    _o.monitor_count -= 1
    if _o.monitor_count == 0:
        _o.monitor_owner = None
        if SAN:
            SAN.on_release(thread, _o)
        if SP:
            if _o.monitor_waiters:
                SP.release_monitor(thread, _o)
""")
