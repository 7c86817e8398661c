"""Shared test utilities: tiny programs and VM construction."""

from __future__ import annotations

import threading

from repro.bytecode.assembler import ClassAssembler
from repro.classfile.archive import ClassArchive
from repro.launcher import create_vm


def build_app(*class_assemblers) -> ClassArchive:
    """Serialize finished assemblers into an app archive."""
    archive = ClassArchive()
    for assembler in class_assemblers:
        archive.put_class(assembler.build())
    return archive


def run_main(archive: ClassArchive, main_class: str, vm=None,
             agents=(), files=None, config=None):
    """Launch a VM over ``archive`` and return it after completion."""
    if vm is None:
        vm = create_vm(config)
    for agent in agents:
        vm.attach_agent(agent)
    vm.loader.add_classpath_archive(archive)
    for name, payload in (files or {}).items():
        vm.add_file(name, payload)
    vm.launch(main_class)
    return vm


def run_with_watchdog(run, timeout: float = 30.0):
    """Call ``run()`` on a daemon thread; return the exception it raised
    (None when it returned).  A run still going after ``timeout``
    seconds fails the test instead of hanging the suite."""
    outcome = []

    def body():
        try:
            run()
        except BaseException as exc:  # handed back to the test
            outcome.append(exc)
        else:
            outcome.append(None)

    worker = threading.Thread(target=body, name="watchdog-run",
                              daemon=True)
    worker.start()
    worker.join(timeout=timeout)
    assert not worker.is_alive(), f"run still going after {timeout} s"
    return outcome[0]


def expr_main(class_name: str, body) -> ClassAssembler:
    """A main()V whose body is emitted by ``body(m)`` and which must
    leave one int on the stack; the value is printed as ``result=N``."""
    c = ClassAssembler(class_name)
    with c.method("main", "()V", static=True) as m:
        m.getstatic("java.lang.System", "out")
        body(m)
        m.invokevirtual("java.io.PrintStream", "println", "(I)V")
        m.return_()
    return c


def run_expr(body, class_name: str = "t.Expr"):
    """Run an int-expression main; return (int result, vm)."""
    vm = run_main(build_app(expr_main(class_name, body)), class_name)
    assert vm.console, "expression printed nothing"
    return int(vm.console[-1]), vm


def int_method(class_name: str, name: str, descriptor: str, body,
               static: bool = True) -> ClassAssembler:
    """One-method class; ``body(m)`` emits the code."""
    c = ClassAssembler(class_name)
    with c.method(name, descriptor, static=static) as m:
        body(m)
    return c
