"""Differential fuzzing of the template tier.

Seeded :class:`random.Random` generators assemble verifiable bytecode
from a gadget vocabulary (constants, ALU, masked array accesses,
forward branches, counted loops, ``iinc``, statics, static helper calls,
virtual calls over 1, 3 or 9 receiver classes and try/catch regions that
throw), then run the same program with the template tier on and off,
and with the tier on a second time in a fresh VM that reuses the
process's compiled template code.  Every observable — console, total
cycles, per-tag ground truth, instructions retired, inline-cache
statistics, invocation counts, surviving static state — must be
identical.  A low invoke threshold guarantees the generated method
actually executes as a template; the loops' backward branches reach
on-stack replacement at their headers, the virtual call sites drive the
polymorphic inline cache mono -> poly -> megamorphic, and the throws
leave templated code for a handler in the same method.
"""

import random

import pytest

from repro.bytecode.assembler import ClassAssembler
from repro.bytecode.opcodes import ArrayKind
from repro.jit.policy import JitPolicy
from repro.jit.template import _compile
from repro.jvm.interpreter import Interpreter
from repro.jvm.machine import VMConfig
from repro.launcher import create_vm

from helpers import build_app, expr_main, run_main

CALLS = 40
INT_LOCALS = (0, 1, 2, 3)  # local 0 is the int argument
ARRAY_LOCAL = 4
RECEIVERS_LOCAL = 5  # fz.V0..fz.V8, one instance each
CALL_LOCAL = 6       # the argument, never overwritten by gadgets
LOOP_LOCALS = (7, 8)  # one counter per loop nesting level
RECEIVER_CLASSES = 9


def _helper_class():
    c = ClassAssembler("fz.H")
    c.field("acc", static=True, default=0)
    c.field("caught", static=True, default=0)  # handler runs
    with c.method("mix", "(I)I", static=True) as m:
        m.iload(0).iconst(3).imul().iconst(11).iadd().ireturn()
    return c


def _receiver_classes():
    """fz.V0 and eight subclasses, each overriding ``f(I)I``."""
    classes = []
    for k in range(RECEIVER_CLASSES):
        c = ClassAssembler(f"fz.V{k}",
                           super_name="fz.V0" if k else "java.lang.Object")
        with c.method("<init>", "()V") as m:
            m.return_()
        with c.method("f", "(I)I") as m:
            m.iload(1).iconst(k + 2).imul().iconst(k).ixor().ireturn()
        classes.append(c)
    return classes


def _emit_virtual(rng, m):
    """invokevirtual over 1, 3 or 9 receiver classes: the receiver index
    cycles with the call number, so a 3-class site goes polymorphic and
    a 9-class site megamorphic."""
    k = rng.choice((1, 3, RECEIVER_CLASSES))
    m.aload(RECEIVERS_LOCAL)
    m.iload(CALL_LOCAL).iconst(rng.randrange(0, 9)).iadd()
    m.iconst(k).irem().aaload()
    m.iload(rng.choice(INT_LOCALS))
    m.invokevirtual("fz.V0", "f", "(I)I")
    m.istore(rng.choice(INT_LOCALS))


def _emit_loop(rng, m, labels, depth):
    """A counted loop whose backward branch is a ``goto`` (top-tested)
    or a conditional branch (bottom-tested)."""
    counter = LOOP_LOCALS[depth]
    top = f"L{next(labels)}"
    m.iconst(rng.randrange(2, 12)).istore(counter)
    if rng.randrange(2):
        done = f"L{next(labels)}"
        m.label(top)
        m.iload(counter).ifle(done)
        for _ in range(rng.randrange(1, 4)):
            _emit_gadget(rng, m, labels, depth + 1)
        m.iinc(counter, -1).goto(top)
        m.label(done)
    else:
        m.label(top)
        for _ in range(rng.randrange(1, 4)):
            _emit_gadget(rng, m, labels, depth + 1)
        m.iinc(counter, -1).iload(counter).ifgt(top)


def _emit_simple(rng, m, labels):
    """One stack-neutral gadget (no control flow)."""
    kind = rng.randrange(8)
    a = rng.choice(INT_LOCALS)
    b = rng.choice(INT_LOCALS)
    c = rng.choice(INT_LOCALS)
    if kind == 0:
        m.iconst(rng.randrange(-1000, 1000)).istore(c)
    elif kind == 1:
        op = rng.choice(("iadd", "isub", "imul", "iand", "ior",
                         "ixor"))
        m.iload(a).iload(b)
        getattr(m, op)()
        m.istore(c)
    elif kind == 2:
        # shift amount kept in range by a constant operand
        m.iload(a).iconst(rng.randrange(0, 8))
        getattr(m, rng.choice(("ishl", "ishr", "iushr")))()
        m.istore(c)
    elif kind == 3:
        # division by a non-zero constant (no ArithmeticException:
        # exception parity is covered by test_template_tier)
        m.iload(a).iconst(rng.choice((3, 7, -5, 13)))
        getattr(m, rng.choice(("idiv", "irem")))()
        m.istore(c)
    elif kind == 4:
        m.iinc(rng.choice(INT_LOCALS), rng.randrange(-3, 4))
    elif kind == 5:
        # masked index keeps every array access in bounds
        m.aload(ARRAY_LOCAL)
        m.iload(a).iconst(7).iand()
        m.iload(b).iastore()
    elif kind == 6:
        m.aload(ARRAY_LOCAL)
        m.iload(a).iconst(7).iand()
        m.iaload().istore(c)
    else:
        m.getstatic("fz.H", "acc").iload(a).ixor()
        m.putstatic("fz.H", "acc")


def _emit_try(rng, m, labels):
    """A try region that throws when a local's low bits are zero, by
    ``new``/``athrow`` of a RuntimeException or by an integer division
    by zero.  The stack is empty at both range boundaries; the handler
    (reached only by a throw, so never in the template) counts itself
    in ``fz.H.caught``."""
    start, end, handler, done = (f"L{next(labels)}" for _ in range(4))
    m.label(start)
    _emit_simple(rng, m, labels)
    a = rng.choice(INT_LOCALS)
    mask = rng.choice((1, 3, 7))
    if rng.randrange(2):
        m.iload(a).iconst(mask).iand().ifne(end)
        m.new("java.lang.RuntimeException").dup()
        m.invokespecial("java.lang.RuntimeException", "<init>", "()V")
        m.athrow()
    else:
        m.iload(rng.choice(INT_LOCALS))
        m.iload(a).iconst(mask).iand().idiv()
        m.istore(rng.choice(INT_LOCALS))
    m.label(end)
    m.goto(done)
    m.label(handler)
    m.pop().getstatic("fz.H", "caught").iconst(1).iadd()
    m.putstatic("fz.H", "caught")
    m.label(done)
    m.try_catch(start, end, handler, "java.lang.RuntimeException")


def _emit_gadget(rng, m, labels, depth=0):
    roll = rng.randrange(13)
    if roll == 12:
        _emit_try(rng, m, labels)
    elif roll == 10 and depth < len(LOOP_LOCALS):
        _emit_loop(rng, m, labels, depth)
    elif roll == 11:
        _emit_virtual(rng, m)
    elif roll == 8 and depth < 2:
        # forward branch over a small block: both arms stack-empty
        skip = f"L{next(labels)}"
        cond = rng.choice(("ifeq", "ifne", "iflt", "ifge", "if_icmplt",
                           "if_icmpge", "if_icmpeq", "if_icmpne"))
        m.iload(rng.choice(INT_LOCALS))
        if cond.startswith("if_icmp"):
            m.iload(rng.choice(INT_LOCALS))
        getattr(m, cond)(skip)
        for _ in range(rng.randrange(1, 3)):
            _emit_gadget(rng, m, labels, depth + 1)
        m.label(skip)
    elif roll == 9:
        m.iload(rng.choice(INT_LOCALS))
        m.invokestatic("fz.H", "mix", "(I)I")
        m.istore(rng.choice(INT_LOCALS))
    else:
        _emit_simple(rng, m, labels)


def _generated_app(seed: int):
    rng = random.Random(seed)
    labels = iter(range(10_000))

    g = ClassAssembler("fz.G")
    with g.method("run", "(I)I", static=True) as m:
        # prologue: deterministic locals + a scratch array
        m.iload(0).iconst(1).iadd().istore(1)
        m.iload(0).iconst(5).imul().istore(2)
        m.iconst(0).istore(3)
        m.iconst(8).newarray(ArrayKind.INT).astore(ARRAY_LOCAL)
        m.iload(0).istore(CALL_LOCAL)
        m.iconst(RECEIVER_CLASSES).newarray(ArrayKind.REF)
        m.astore(RECEIVERS_LOCAL)
        for k in range(RECEIVER_CLASSES):
            m.aload(RECEIVERS_LOCAL).iconst(k).new(f"fz.V{k}").dup()
            m.invokespecial(f"fz.V{k}", "<init>", "()V").aastore()
        for _ in range(rng.randrange(12, 25)):
            _emit_gadget(rng, m, labels)
        # epilogue: fold every int local into the result
        m.iload(0).iload(1).ixor().iload(2).iadd().iload(3).ixor()
        m.ireturn()

    def body(m):
        m.iconst(0).istore(0)
        m.iconst(0).istore(1)
        m.label("t")
        m.iload(1).ldc(CALLS).if_icmpge("e")
        m.iload(1).invokestatic("fz.G", "run", "(I)I")
        m.iload(0).ixor().istore(0)
        m.iinc(1, 1).goto("t")
        m.label("e")
        m.iload(0)

    return build_app(_helper_class(), *_receiver_classes(), g,
                     expr_main("fz.Main", body))


def _run(seed: int, tier: bool):
    config = VMConfig(jit_policy=JitPolicy(
        template_tier=tier, invoke_threshold=3, backedge_threshold=30))
    vm = create_vm(config)
    return run_main(_generated_app(seed), "fz.Main", vm=vm)


def _observables(vm):
    return {
        "console": list(vm.console),
        "total_cycles": vm.total_cycles,
        "ground_truth": vm.ground_truth(),
        "instructions_retired": vm.instructions_retired,
        "ic_hits": vm.ic_hits,
        "ic_misses": vm.ic_misses,
        "pic_hits": vm.pic_hits,
        "pic_megamorphic": vm.pic_megamorphic,
        "pic_mono_to_poly": vm.pic_mono_to_poly,
        "pic_poly_to_mega": vm.pic_poly_to_mega,
        "method_invocations": vm.method_invocations,
        "acc_static": vm.loader.loaded_class("fz.H").statics["acc"],
        "caught_static": vm.loader.loaded_class("fz.H").statics["caught"],
    }


@pytest.mark.parametrize("seed", range(8))
def test_differential_parity(seed):
    templated = _run(seed, True)
    interp = _run(seed, False)
    assert _observables(templated) == _observables(interp)
    # a fresh VM in the same process takes every template's code from
    # the process-wide cache and observes exactly what the first did
    compiles = _compile.cache_info().misses
    reused = _run(seed, True)
    assert _compile.cache_info().misses == compiles
    assert reused.jit.templates_translated == \
        templated.jit.templates_translated
    assert _observables(reused) == _observables(templated)
    # the generated method really ran as a template...
    method = templated.loader.loaded_class("fz.G").find_declared(
        "run", "(I)I")
    assert method.compiled
    assert templated.jit.template_entries > 0
    # ...and never silently fell back: any bail-out or deopt is counted
    if method.template is None:
        assert templated.jit.template_bailouts or \
            templated.jit.template_deopts


def test_gadgets_reach_osr_and_every_pic_state(monkeypatch):
    # the loop gadgets must put live frames through on-stack
    # replacement, the virtual gadgets must drive call sites through
    # every inline-cache transition, and the try gadgets must throw from
    # templated code into a handler, or the parity above proves nothing
    # about those paths
    template_throws = []
    for name in ("_template_throw", "_template_raise"):
        def record(self, thread, frame, *args, _orig=getattr(
                Interpreter, name)):
            template_throws.append(frame.method.qualified_name)
            return _orig(self, thread, frame, *args)
        monkeypatch.setattr(Interpreter, name, record)
    vms = [_run(seed, True) for seed in range(8)]
    assert sum(vm.jit.osr_entries for vm in vms) > 0
    assert sum(vm.pic_mono_to_poly for vm in vms) > 0
    assert sum(vm.pic_poly_to_mega for vm in vms) > 0
    assert sum(vm.pic_megamorphic for vm in vms) > 0
    # every throw in fz.G.run is inside a try range its handler covers
    assert "fz.G.run(I)I" in template_throws
    assert sum(vm.loader.loaded_class("fz.H").statics["caught"]
               for vm in vms) > 0


def test_seeds_are_not_degenerate():
    # the generator must produce distinct programs (guards against a
    # refactor collapsing the vocabulary to one shape); printed values
    # can collide, instruction counts of distinct programs do not
    shapes = {_run(seed, True).instructions_retired
              for seed in range(8)}
    assert len(shapes) >= 6
