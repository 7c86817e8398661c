"""Control-flow graph construction over pre-decoded bytecode.

A :class:`CFG` partitions one method's code into maximal straight-line
:class:`BasicBlock` runs.  Leaders are instruction 0, every branch
target, every instruction after a control transfer, and every exception
handler entry.  Successor edges cover fall-through and branch targets;
exception edges are kept separate (``handler_blocks`` plus
:meth:`CFG.handlers_covering`) because they leave from *every*
instruction of a protected range, not from block boundaries.

The graph is the substrate of the typed verifier's fixpoint and of the
unreachable-code check; it works on :class:`MethodInfo` code whose
branch operands are already resolved to instruction indices.

:func:`solve_forward` is the one forward dataflow solver: every
fixpoint over bytecode (stack depth, types, monitor depth, class-set
flows, locksets, thread escape, reachability) is a transfer function
and a join handed to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.bytecode.instructions import ExceptionEntry, Instruction
from repro.bytecode.opcodes import OperandKind


@dataclass
class BasicBlock:
    """One maximal straight-line run ``[start, end)`` of instructions."""

    index: int
    start: int
    end: int                 # exclusive
    successors: List[int] = field(default_factory=list)  # block indices
    is_handler: bool = False

    @property
    def pcs(self) -> range:
        return range(self.start, self.end)


class CFG:
    """Basic blocks, successor edges, and reachability for one method."""

    def __init__(self, blocks: List[BasicBlock],
                 block_index_of: Dict[int, int],
                 exception_table: Sequence[ExceptionEntry]):
        self.blocks = blocks
        self._block_index_of = block_index_of  # leader pc -> block index
        self.exception_table = list(exception_table)

    def block_of(self, pc: int) -> BasicBlock:
        """The block whose leader is ``pc`` (must be a leader)."""
        return self.blocks[self._block_index_of[pc]]

    def handlers_covering(self, pc: int) -> List[ExceptionEntry]:
        """Exception-table rows whose protected range includes ``pc``."""
        return [entry for entry in self.exception_table
                if entry.start <= pc < entry.end]

    @property
    def handler_blocks(self) -> List[BasicBlock]:
        return [b for b in self.blocks if b.is_handler]

    def reachable_blocks(self) -> List[BasicBlock]:
        """Blocks reachable from the entry block, following normal and
        exception edges."""
        if not self.blocks:
            return []

        def transfer(index, state):
            block = self.blocks[index]
            for successor in block.successors:
                yield successor, state
            for pc in block.pcs:
                for entry in self.handlers_covering(pc):
                    yield self._block_index_of[entry.handler], state

        seen = solve_forward({0: True}, transfer,
                             lambda node, old, new, src: old)
        return [self.blocks[i] for i in sorted(seen)]

    def unreachable_blocks(self) -> List[BasicBlock]:
        reachable = {b.index for b in self.reachable_blocks()}
        return [b for b in self.blocks if b.index not in reachable]


def solve_forward(entries: Dict, transfer: Callable,
                  join: Callable) -> Dict:
    """Run a forward dataflow problem to fixpoint; returns the in-state
    of every node reached.

    Nodes are whatever the client keys states by — pcs or block
    indices — and states are any non-``None`` values compared with
    ``==``.  ``entries`` seeds the in-states (in order); the worklist is
    LIFO with a queued-set, so a node is pending at most once.
    ``transfer(node, state)`` yields ``(successor, out_state)`` pairs
    and is consumed lazily, so a client may report per-edge as it
    walks.  The first state to reach a node is taken as is; later ones
    go through ``join(node, old, new, src)``, which returns the merged
    state — or reports/raises on a conflict and returns ``old``.  A
    node is re-queued only when its state changes.
    """
    states = dict(entries)
    work = list(states)
    queued = set(work)
    while work:
        node = work.pop()
        queued.discard(node)
        for succ, out in transfer(node, states[node]):
            old = states.get(succ)
            if old is not None:
                out = join(succ, old, out, node)
                if out == old:
                    continue
            states[succ] = out
            if succ not in queued:
                queued.add(succ)
                work.append(succ)
    return states


def build_cfg(code: Sequence[Instruction],
              exception_table: Sequence[ExceptionEntry]) -> CFG:
    """Partition ``code`` into basic blocks and wire successor edges."""
    n = len(code)
    leaders = {0}
    handler_pcs = set()
    for pc, ins in enumerate(code):
        spec = ins.spec
        if spec.operand is OperandKind.LABEL:
            leaders.add(ins.operand)
            if pc + 1 < n:
                leaders.add(pc + 1)
        elif spec.ends_block and pc + 1 < n:
            leaders.add(pc + 1)
    for entry in exception_table:
        leaders.add(entry.handler)
        handler_pcs.add(entry.handler)

    ordered = sorted(leaders)
    blocks: List[BasicBlock] = []
    block_index_of: Dict[int, int] = {}
    for i, start in enumerate(ordered):
        end = ordered[i + 1] if i + 1 < len(ordered) else n
        block = BasicBlock(index=i, start=start, end=end,
                           is_handler=start in handler_pcs)
        blocks.append(block)
        block_index_of[start] = i

    for block in blocks:
        last = code[block.end - 1]
        spec = last.spec
        if spec.operand is OperandKind.LABEL:
            block.successors.append(block_index_of[last.operand])
        if not spec.ends_block and block.end < n:
            block.successors.append(block_index_of[block.end])

    return CFG(blocks, block_index_of, exception_table)
