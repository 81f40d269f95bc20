"""Intra-procedural stack-height analysis, store classification, register liveness.

Heights are measured in bytes relative to the stack-pointer value at function
entry, which is the address of the local return-address slot; the return
address occupies heights [0, 8).  A store is a safe stack write when its
destination height is concrete and at most -8, i.e. strictly below the slot.

The height lattice is flat: Bottom below every concrete offset below Top.
For a register, Bottom means "not derived from the stack pointer" and Top
means "may be anything, possibly a stack address".  Transfers that produce
statically unknown values (loads, post-call registers, arithmetic on a
stack-derived operand) go to Top so a later join can never launder an
arbitrary runtime value into a concrete height.

Both analyses keep dense state.  The height state before an instruction is
the stack pointer's height plus a 16-tuple of register heights, Bottom for a
register not derived from the stack pointer; an instruction that defines no
register hands the same tuple on, so most instructions share one.  Block
entry states join elementwise, and the height fixpoint is a FIFO worklist
from the entry block.  Liveness works on int bitmasks (bit r stands for
register r).  Its worklist is seeded with the forward CFG's strongly
connected components in `mir.sccs` order, each after every component it
reaches, with unreachable blocks appended, and a block whose live-in set
changes re-queues its predecessors.  Dead sets stay bitmasks: planning
counts their bits and `dead_register_findings` checks them on every path.

Both analyses keep their results per block.  `stack_heights` returns each
reached block's entry state and the destination height of each store;
replaying `_step` from a block's entry state gives the state at any of its
instructions, and a store's `write_class` is derived from its height.
`dead_registers` returns per block a tuple of the masks of registers dead
just before each instruction.  `AnalysisChecks` holds both per function as
the one record of a program's analysis: planning extends it with the safety
verdicts (`transform.ProgramAnalysis`), and `verify` validates it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .mir import NUM_REGS, RETURN_REG, STORE_OPCODES, WORD_SIZE, Function, Instr, sccs


class _Extreme:
    """Identity-compared lattice extreme."""

    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self):
        return self._name


BOTTOM = _Extreme("<bottom>")
TOP = _Extreme("<top>")

# A height is a concrete byte offset (int) or one of the extremes.
Height = object

SAFE_STACK = "stack"
GLOBAL = "global"
UNSAFE = "unsafe"


def join_height(a, b):
    if a is BOTTOM:
        return b
    if b is BOTTOM:
        return a
    if a is TOP or b is TOP:
        return TOP
    return a if a == b else TOP


def is_safe_height(h) -> bool:
    return isinstance(h, int) and h <= -WORD_SIZE


class Heights(NamedTuple):
    """A function's stack heights.  `entries` maps each block the fixpoint
    reached to the state `(sp, regs)` before its first instruction, `regs`
    the height of every register, Bottom for one not derived from the stack
    pointer.  `stores` maps the (block id, instruction index) of each store
    in a reached block to the height of the word it writes; store.global,
    and only it, carries Bottom."""

    entries: dict[int, tuple]
    stores: dict[tuple[int, int], Height]


ALL_BOTTOM = (BOTTOM,) * NUM_REGS
ALL_TOP = (TOP,) * NUM_REGS


def _set(regs: tuple, r: int, h) -> tuple:
    return regs if regs[r] is h else regs[:r] + (h,) + regs[r + 1:]


def _step(sp, regs: tuple, ins: Instr):
    """Transfer function: returns (sp', regs', dest).  `regs` comes back as
    the same tuple unless the instruction defines a register."""
    op = ins.opcode
    dest = BOTTOM
    if op == "spadd":
        if isinstance(sp, int):
            sp = sp + ins.args[0]
    elif op == "spmov":
        v = regs[ins.args[0]]
        sp = v if isinstance(v, int) else TOP
    elif op == "movi":
        regs = _set(regs, ins.args[0], BOTTOM)
    elif op == "movr":
        regs = _set(regs, ins.args[0], regs[ins.args[1]])
    elif op == "lea.sp":
        regs = _set(regs, ins.args[0], sp + ins.args[1] if isinstance(sp, int) else TOP)
    elif op == "binop":
        a, b = ins.args
        regs = _set(regs, a, BOTTOM if (regs[a] is BOTTOM and regs[b] is BOTTOM) else TOP)
    elif op in ("load.sp", "load.reg", "rfpush", "rfpop"):
        regs = _set(regs, ins.args[0], TOP)
    elif op in ("call", "icall"):
        # the callee may leave anything in the registers; sp is restored on return
        regs = ALL_TOP
    elif op == "store.sp":
        dest = sp + ins.args[0] if isinstance(sp, int) else TOP
    elif op == "store.reg":
        v = regs[ins.args[0]]
        dest = v if isinstance(v, int) else TOP
    elif op == "corrupt":
        dest = TOP
    # store.global, spush, spop, br, brc, ret, halt, unwind: no effect
    return sp, regs, dest


def stack_heights(fn: Function) -> Heights:
    """Forward dataflow fixpoint over the CFG, FIFO worklist from the entry.

    Entry state: stack pointer at height 0, all registers Bottom.  A block is
    re-queued when the join of a predecessor's exit state into its entry
    state changes it.  A store's height is recorded at each visit of its
    block, so the last, made from the fixpoint's entry state, is kept.
    """
    stores: dict[tuple[int, int], Height] = {}
    in_states: dict[int, tuple] = {fn.entry_block: (0, ALL_BOTTOM)}
    work = deque([fn.entry_block])
    queued = {fn.entry_block}
    while work:
        bid = work.popleft()
        queued.discard(bid)
        sp, regs = in_states[bid]
        block = fn.blocks[bid]
        for idx, ins in enumerate(block.instrs):
            sp, regs, dest = _step(sp, regs, ins)
            if ins.opcode in STORE_OPCODES:
                stores[(bid, idx)] = dest
        for succ in block.successors:
            cur = in_states.get(succ)
            if cur is not None:
                cur_sp, cur_regs = cur
                new_sp = join_height(cur_sp, sp)
                new_regs = cur_regs if cur_regs == regs else tuple(map(join_height, cur_regs, regs))
                if new_sp == cur_sp and new_regs == cur_regs:
                    continue
                in_states[succ] = (new_sp, new_regs)
            else:
                in_states[succ] = (sp, regs)
            if succ not in queued:
                work.append(succ)
                queued.add(succ)
    return Heights(in_states, stores)


def write_class(height) -> str:
    """A store's write class from its height: GLOBAL for Bottom (store.global),
    SAFE_STACK strictly below the return-address slot, UNSAFE for anything
    else, None included: a store in a block the fixpoint never reached."""
    if height is BOTTOM:
        return GLOBAL
    return SAFE_STACK if is_safe_height(height) else UNSAFE


def classify_writes(fn: Function, heights: Heights) -> dict[tuple[int, int], str]:
    """Total classification of every store: its (block id, instruction index)
    maps to its `write_class`."""
    return {
        (bid, idx): write_class(heights.stores.get((bid, idx)))
        for bid, block in fn.blocks.items()
        for idx, ins in enumerate(block.instrs)
        if ins.is_store
    }


ALL_MASK = (1 << NUM_REGS) - 1
_RET_MASK = 1 << RETURN_REG


def instr_masks(ins: Instr) -> tuple[int, int]:
    """(uses, defs) of an instruction as register bitmasks, bit r for r<r>."""
    op = ins.opcode
    if op in ("call", "icall"):
        # calls may pass values in any register; never assume ABI compliance
        return ALL_MASK, 0
    if op in ("ret", "halt", "store.sp", "store.global"):
        return _RET_MASK, 0
    if op == "store.reg":
        return 1 << ins.args[0] | _RET_MASK, 0
    if op == "spmov":
        return 1 << ins.args[0], 0
    if op in ("rfpush", "rfpop"):
        return 1 << ins.args[0], 1 << ins.args[0]
    if op in ("movr", "load.reg"):
        return 1 << ins.args[1], 1 << ins.args[0]
    if op == "binop":
        return 1 << ins.args[0] | 1 << ins.args[1], 1 << ins.args[0]
    if op in ("movi", "lea.sp", "load.sp"):
        return 0, 1 << ins.args[0]
    return 0, 0


def dead_registers(fn: Function) -> dict[int, tuple[int, ...]]:
    """Backward may-liveness; dead = registers never read before overwritten.

    Each block maps to a tuple of dead masks, the idx-th describing the
    point just before its idx-th instruction executes.  The worklist starts
    with the blocks reachable from the entry, component by component in
    `mir.sccs` order, so a block outside a loop is first visited after its
    successors, with unreachable blocks last; a block whose live-in set
    grows re-queues its predecessors.
    """
    succs: dict[int, tuple[int, ...]] = {}
    preds: dict[int, list[int]] = {bid: [] for bid in fn.blocks}
    masks: dict[int, list[tuple[int, int]]] = {}
    block_use: dict[int, int] = {}
    block_def: dict[int, int] = {}
    for bid, block in fn.blocks.items():
        succs[bid] = block.successors
        for succ in succs[bid]:
            preds[succ].append(bid)
        masks[bid] = pairs = [instr_masks(ins) for ins in block.instrs]
        use = defs = 0
        for uses, defines in pairs:
            use |= uses & ~defs
            defs |= defines
        block_use[bid] = use
        block_def[bid] = defs

    order = [bid for comp in sccs([fn.entry_block], succs) for bid in comp]
    reached = set(order)
    order += [bid for bid in fn.blocks if bid not in reached]
    live_in = dict.fromkeys(fn.blocks, 0)
    live_out = dict.fromkeys(fn.blocks, 0)
    work = deque(order)
    queued = set(order)
    while work:
        bid = work.popleft()
        queued.discard(bid)
        out = 0
        for succ in succs[bid]:
            out |= live_in[succ]
        live_out[bid] = out
        new_in = block_use[bid] | out & ~block_def[bid]
        if new_in != live_in[bid]:
            live_in[bid] = new_in
            for pred in preds[bid]:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)

    dead: dict[int, tuple[int, ...]] = {}
    for bid, pairs in masks.items():
        live = live_out[bid]
        block_dead = []
        for uses, defines in reversed(pairs):
            live = live & ~defines | uses
            block_dead.append(ALL_MASK & ~live)
        dead[bid] = tuple(reversed(block_dead))
    return dead


def dead_register_findings(fn: Function, dead: Mapping[int, tuple[int, ...]]) -> list[tuple]:
    """(function, block id, index, registers) wherever `dead` is no
    post-fixpoint of liveness under `instr_masks`: a mask names a register its
    instruction reads, or one live after it that it does not define.  After a
    block, a register is dead where each successor's entry mask says so."""
    findings = []
    for bid, block in fn.blocks.items():
        masks, end = dead[bid], ALL_MASK
        for succ in block.successors:
            end &= dead[succ][0]
        for idx, (ins, after) in enumerate(zip(block.instrs, masks[1:] + (end,))):
            uses, defs = instr_masks(ins)
            bad = masks[idx] & (uses | ~(after | defs))
            if bad:
                findings.append((fn.name, bid, idx, tuple(r for r in range(NUM_REGS) if bad >> r & 1)))
    return findings


@dataclass
class AnalysisChecks:
    """A program's analysis results, per function name: the facts planning
    reads and the VM (heights) or `verify` (dead masks) validates, a dead
    mask read as `liveness[name][bid][idx]`.  A function without dead
    register masks is absent from `liveness`."""

    heights: Mapping[str, Heights]
    liveness: Mapping[str, Mapping[int, tuple[int, ...]]]    # dead-register masks per block
