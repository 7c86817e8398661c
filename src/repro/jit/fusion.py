"""Superinstruction fusion: selecting hot adjacent opcode windows.

Real threaded-code interpreters fuse frequently adjacent opcode pairs
into combined handlers ("superinstructions") to cut dispatch overhead.
Our template tier has no dispatch between straight-line instructions,
but every operand-stack slot it materializes is a Python assignment —
fusing a load with its consumer deletes those assignments from the
generated source, which is where the tier's host time goes.

This module does the *selection* only.  :mod:`repro.jit.template`
emits a window as its consumer's :mod:`repro.jit.opdefs` fragment with
the loads' expressions substituted for the stack slots they would have
filled.  A fused window charges the sum of its instructions' cycle
costs in one accumulation — the template sums per-instruction costs
into per-segment constants anyway, so fusion cannot perturb simulated
accounting by construction.

Pair selection heuristic
------------------------

The profile data PR 2 collects (flamegraph CCT, per-method counters) is
per *method*, not per pc, and translation happens the moment a method
crosses a hot threshold — so the picker uses a static stand-in for
instruction heat that needs no warm-up: a candidate window inside a
loop body (covered by a reachable backward branch's ``[target, branch]``
span) is weighted 10x per covering loop, outer code weight 1.  The top
``JitPolicy.fusion_pairs`` non-overlapping windows win, longest pattern
first at any given pc, ties broken by lowest pc — fully deterministic,
so a method always translates to the same source.

A window is only fusible when every pc in it is reachable, none is a
deopt site, and no branch targets its interior (the interior pcs vanish
from the emitted source; only fallthrough from the window head may
reach them).  Exception handlers may still point into a fused window:
handler frames resume in the interpreter, never inside a template.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bytecode.opcodes import CONDITIONAL_BRANCHES, Op

#: Loads whose value is a plain expression (``OpDef.push_expr``)
#: (a local-variable subscript or a literal) — the precondition for
#: deleting the stack-slot assignment.
_INT_LOADS = frozenset({Op.ILOAD, Op.ICONST})
_REF_LOADS = frozenset({Op.ALOAD, Op.ACONST_NULL})
_LOADS = _INT_LOADS | _REF_LOADS

#: Type-polymorphic int arithmetic (wrap-checked fast path).
_ARITH = frozenset({Op.IADD, Op.ISUB, Op.IMUL})


class FusedSite:
    """One selected superinstruction window in a method's code."""

    __slots__ = ("pattern", "pc", "length")

    def __init__(self, pattern: str, pc: int, length: int):
        self.pattern = pattern
        self.pc = pc
        self.length = length

    def __repr__(self):  # pragma: no cover - debug aid
        return f"<FusedSite {self.pattern}@{self.pc}+{self.length}>"


def _match(ops, code, pc: int, n: int) -> Optional[Tuple[str, int]]:
    """Match the longest catalog pattern starting at ``pc``."""
    op = ops[pc]
    if op not in _LOADS:
        return None
    if pc + 2 < n and op in _INT_LOADS and ops[pc + 1] in _INT_LOADS \
            and ops[pc + 2] in _ARITH:
        return "load_load_arith", 3
    if pc + 1 >= n:
        return None
    nxt = ops[pc + 1]
    if op == Op.ALOAD and nxt == Op.GETFIELD:
        # only fusible once the field site is quickened; a cold site
        # keeps the deopt-until-quickened guard and never fuses
        if code[pc + 1].quick is not None:
            return "aload_getfield", 2
        return None
    if op in _INT_LOADS and nxt in _ARITH:
        return "load_arith", 2
    if (op in _INT_LOADS and nxt == Op.ISTORE) or \
            (op in _REF_LOADS and nxt == Op.ASTORE):
        return "load_store", 2
    if nxt in CONDITIONAL_BRANCHES:
        return "load_branch", 2
    return None


def plan_fusion(ops, operands, code, depth_at, deopt_only, targets,
                max_sites: int) -> Dict[int, FusedSite]:
    """Pick up to ``max_sites`` non-overlapping fusible windows.

    Returns ``{window head pc: FusedSite}``.  See the module docstring
    for the selection heuristic and the safety conditions.
    """
    if max_sites <= 0:
        return {}
    n = len(ops)
    # loop spans: [target, branch pc] of every reachable backward branch
    spans: List[Tuple[int, int]] = []
    for pc in range(n):
        if depth_at[pc] >= 0 and not deopt_only[pc] \
                and code[pc].spec.is_branch:
            t = operands[pc]
            if t <= pc:
                spans.append((t, pc))

    candidates = []
    for pc in range(n - 1):
        if depth_at[pc] < 0 or deopt_only[pc]:
            continue
        m = _match(ops, code, pc, n)
        if m is None:
            continue
        pattern, length = m
        interior_ok = True
        for q in range(pc + 1, pc + length):
            if depth_at[q] < 0 or deopt_only[q] or q in targets:
                interior_ok = False
                break
        if not interior_ok:
            continue
        weight = 1 + 10 * sum(1 for lo, hi in spans if lo <= pc <= hi)
        candidates.append((-weight, pc, pattern, length))

    candidates.sort()
    plan: Dict[int, FusedSite] = {}
    covered = set()
    for _nw, pc, pattern, length in candidates:
        if len(plan) >= max_sites:
            break
        window = range(pc, pc + length)
        if any(q in covered for q in window):
            continue
        plan[pc] = FusedSite(pattern, pc, length)
        covered.update(window)
    return plan
