"""Instrumentation policy and mechanism.

Policy: safe-function elision drops instrumentation from provably safe
functions; safe-path elision clones the CFG of an unsafe function and moves
the push onto the edges entering its first unsafe blocks, so walks that stay
on safe blocks execute no shadow operations at all.

Mechanism: register frames keep a leaf function's shadow entry in an unused
register; direct calls to single-block leaf callees are inlined away; entry
pushes chase forward within their block to a point with two dead registers,
eliding the scratch save/restore.

Plans record every candidate; `apply_plan` resolves them per mode.  A plan
holds one program's safety verdicts, so it records that program, and
`apply_plan` refuses it for any other.  A sound mode is two policy flags and
one mechanism flag (`MODE_FLAGS`):

  FULL       entry/exit instrumentation on every function
  SFE        FULL minus safe functions
  PO         SFE plus path lowering
  MO         FULL plus mechanism optimizations
  LIGHT      PO plus mechanism optimizations
  ELIDE-ALL  no instrumentation (intentionally unsound control)

The rewrite's inverse lives next to it: `ResolvedFunction.block_sources`
maps each output block whose id is not its input's to its input block, and
`_spliced` is the one splice layout.  `build_checks(ip, input, analysis)`
reads both to give each output store the height of the input instruction
at its position, so the VM validates every rewrite against the program it
was made from, and `check_rewrites` checks each rewrite's claims and every
walk through its output function statically; `strip_instrumentation`
undoes the rewrite.  Beyond the register frame, the mechanisms change
instructions only where they inline a call or move an entry push;
elsewhere MO and LIGHT give a function FULL's or PO's output function,
with costs of their own.  A function that modes share is checked once.
"""

from __future__ import annotations

import operator
import types
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple

from .mir import (
    Block,
    Function,
    Instr,
    Program,
    SHADOW_OPCODES,
    STORE_OPCODES,
    TERMINATORS,
    sccs,
    validate_program,
)
from .analysis import (
    AnalysisChecks,
    Heights,
    UNSAFE,
    dead_registers,
    instr_masks,
    stack_heights,
    write_class,
)
from .safety import SafetyResult, calculate_ra_safety


class ModeFlags(NamedTuple):
    elide_safe: bool      # policy: no instrumentation in safe functions
    lower_paths: bool     # policy: pushes on the edges into unsafe blocks
    mechanisms: bool      # register frames, inlining, dead-register chase


# Every sound mode; ELIDE-ALL, which instruments nothing, is the one other mode.
MODE_FLAGS = {
    "FULL": ModeFlags(False, False, False),
    "SFE": ModeFlags(True, False, False),
    "PO": ModeFlags(True, True, False),
    "MO": ModeFlags(False, False, True),
    "LIGHT": ModeFlags(True, True, True),
}
MODES = (*MODE_FLAGS, "ELIDE-ALL")

CLONE_OFFSET = 1000
TRANSITION_BASE = 2000

# (instructions, memory accesses) charged per executed shadow operation
COST_PUSH = (9, 6)
COST_POP = (11, 6)
COST_PUSH_CHASED = (5, 4)
COST_RF_PUSH = (2, 2)
COST_RF_POP = (3, 1)
COST_TRANSITION_EDGE = (1, 0)

FN_ELIDED = "elided"
FN_FULL = "full"
FN_LOWERED = "lowered"
FN_REGFRAME = "regframe"

PATH_COUNT_CAP = 1 << 16


class PlanError(Exception):
    pass


class ShadowOp(NamedTuple):
    kind: str                      # push | pop | rfpush | rfpop
    site: tuple                    # ("entry", bid) | ("instr", bid, idx) | ("edge", src, dst) | ("exit", bid)
    entry_height: int = 0          # stack height where the covered region is entered
    reg: int | None = None
    cost: tuple[int, int] = COST_PUSH
    chased: bool = False
    transition: bool = False


@dataclass(frozen=True)
class LoweredCfg:
    clone_map: dict[int, int]                              # original id -> clone id
    transition_edges: tuple[tuple[int, int], ...]          # (src, original dst) in DFS order
    push_heights: dict[tuple[int, int], int]               # transition edge -> height at dst entry
    kept_originals: tuple[int, ...]                        # original blocks kept, in fn.blocks order
    cloned: tuple[int, ...]                                # original ids whose clones are kept, same order


@dataclass
class FunctionPlan:
    ra_safe: bool
    safe_paths: int
    lowered: LoweredCfg | None = None
    free_reg: int | None = None                  # leaf functions only
    entry_chase: tuple[int, int] | None = None   # (landing index, net sp delta over skipped prefix)
    edge_dead: dict[tuple[int, int], bool] = field(default_factory=dict)


@dataclass
class InstrumentationPlan:
    """The plan of one program, which `apply_plan` accepts with that
    program only: the verdicts it holds are that program's."""

    program: Program = field(repr=False, compare=False)
    per_function: dict[str, FunctionPlan]
    inline_callees: frozenset[str]
    inline_sites: tuple[tuple[str, int, int, str], ...]    # (caller, bid, idx, callee)
    # what `apply_plan` has built from this plan: (name, function mode,
    # mechanisms flag) -> (output function, ResolvedFunction); the two flags
    # of one function mode hold one output function where the mechanisms
    # change no instruction, and one entry where they change no cost either
    rewrites: dict[tuple[str, str, bool], tuple] = field(default_factory=dict, repr=False, compare=False)
    # one `spush` instruction per height, over every output of this plan
    spushes: dict[int, Instr] = field(default_factory=dict, repr=False, compare=False)


@dataclass
class ProgramAnalysis(AnalysisChecks):
    """Every function's analysis facts, each function with its dead
    register masks, and the program's return-address safety."""

    safety: SafetyResult


def analyze_program(program: Program) -> ProgramAnalysis:
    """Run both per-function analyses plus the safety fixpoint."""
    heights = {name: stack_heights(fn) for name, fn in program.functions.items()}
    liveness = {name: dead_registers(fn) for name, fn in program.functions.items()}
    return ProgramAnalysis(heights, liveness, calculate_ra_safety(program, heights))


def plan_program(program: Program) -> tuple[ProgramAnalysis, InstrumentationPlan]:
    """Analyse and plan `program`.  A program `validate_program` rejects
    raises PlanError naming every reason; one it already passed is not
    validated again (`Program.valid`)."""
    if not program.valid and (diags := validate_program(program)):
        raise PlanError("invalid program: " + "; ".join(d.reason for d in diags))
    analysis = analyze_program(program)
    plan = plan_mechanism(program, analysis)
    return analysis, plan


def count_safe_paths(fn: Function, safety: SafetyResult) -> int:
    """Entry-to-exit paths through safe blocks only, loops collapsed, capped.

    Unsafe blocks are removed outright, and one fold over the strongly
    connected groups of safe blocks reachable from the entry counts the
    paths of the condensed graph, so a loop contributes its enclosing path
    once.  Tarjan emits each group after every group it reaches, the entry's
    last; a group's count is 1 if it holds an exit, plus the capped sum of
    the counts of the distinct groups it branches to.
    """
    safe = {bid for bid in fn.blocks if safety.ra_safe_block(fn.name, bid)}
    if fn.entry_block not in safe:
        return 0
    succs = {bid: [s for s in fn.blocks[bid].successors if s in safe] for bid in safe}
    exits = set(fn.exit_blocks)
    comp_of: dict[int, int] = {}
    counts: list[int] = []
    for cid, comp in enumerate(sccs([fn.entry_block], succs)):
        comp_of.update(dict.fromkeys(comp, cid))
        n = int(any(b in exits for b in comp))
        for s in {comp_of[t] for b in comp for t in succs[b]} - {cid}:
            n = min(PATH_COUNT_CAP, n + counts[s])
        counts.append(n)
    return counts[-1]


def lower_instrumentation(fn: Function, safety: SafetyResult, heights: Heights) -> LoweredCfg | None:
    """Clone the CFG and collect the transition edges entering unsafe blocks.

    Depth-first over intra-procedural edges in ascending block-id order with
    edge marking; the first unsafe block on a path redirects the traversed
    edge to that block's clone and carries the push, and the walk does not
    descend past it.  The blocks the walk descends into are the originals the
    lowered function keeps: every edge out of one leads to another or is a
    transition.  Clones branch only to clones, so the clones it keeps are
    those of the blocks reachable in the original CFG from a transition
    target.  The entry reaches every block of a valid program, so each is
    in one set or both.  Returns None when lowering cannot apply: the entry
    block itself is unsafe, or a push site has no concrete stack height.
    """
    assert not safety.ra_safe_fn(fn.name), "lowering a safe function is a caller bug"
    if not safety.ra_safe_block(fn.name, fn.entry_block):
        return None
    if any(bid >= CLONE_OFFSET for bid in fn.blocks):
        raise PlanError(f"{fn.name}: block ids must be below {CLONE_OFFSET} for lowering")

    transitions: list[tuple[int, int]] = []
    visited: set[tuple[int, int]] = set()
    originals = {fn.entry_block}

    def out_edges(bid: int) -> Iterator[tuple[int, int]]:
        return iter([(bid, succ) for succ in sorted(fn.blocks[bid].successors)])

    # A stack of edge iterators, not recursion: a chain of blocks can be
    # longer than Python's recursion limit.
    stack = [out_edges(fn.entry_block)]
    while stack:
        for edge in stack[-1]:
            if edge in visited:
                continue
            visited.add(edge)
            if safety.ra_safe_block(fn.name, edge[1]):
                originals.add(edge[1])
                stack.append(out_edges(edge[1]))
                break
            transitions.append(edge)
        else:
            stack.pop()

    push_heights: dict[tuple[int, int], int] = {}
    for src, dst in transitions:
        h = heights.entries[dst][0]
        if not isinstance(h, int):
            return None
        push_heights[(src, dst)] = h

    cloned: set[int] = set()
    work = [dst for _, dst in transitions]
    while work:
        bid = work.pop()
        if bid not in cloned:
            cloned.add(bid)
            work.extend(fn.blocks[bid].successors)

    return LoweredCfg(
        {bid: bid + CLONE_OFFSET for bid in fn.blocks},
        tuple(transitions),
        push_heights,
        tuple(bid for bid in fn.blocks if bid in originals),
        tuple(bid for bid in fn.blocks if bid in cloned),
    )


def find_free_register(fn: Function) -> int | None:
    """Lowest register never referenced by the function body; r0 is excluded."""
    used = 0
    for block in fn.blocks.values():
        for ins in block.instrs:
            uses, defs = instr_masks(ins)
            used |= uses | defs
    for r in range(1, 16):
        if not used >> r & 1:
            return r
    return None


_INLINE_FORBIDDEN = frozenset(
    {"call", "icall", "corrupt", "unwind", "spadd", "spmov", "lea.sp", "store.sp", "load.sp", "halt"}
) | SHADOW_OPCODES


def inline_eligible(fn: Function) -> bool:
    """Single straight-line block ending in ret, with no stack-relative effects.

    Bodies that adjust or address the stack pointer would change meaning when
    spliced into the caller's frame, so they are not inlined.
    """
    if len(fn.blocks) != 1:
        return False
    block = next(iter(fn.blocks.values()))
    if block.instrs[-1].opcode != "ret":
        return False
    return all(i.opcode not in _INLINE_FORBIDDEN for i in block.instrs[:-1])


def _chase_point(block: Block, dead: Mapping[int, tuple[int, ...]], stores: Mapping) -> tuple[int, int] | None:
    """Earliest in-block point with two dead registers reachable without
    crossing an unsafe store, a call, or a statically unknown sp change."""
    delta = 0
    for idx in range(len(block.instrs)):
        if dead[block.bid][idx].bit_count() >= 2:
            return idx, delta
        ins = block.instrs[idx]
        op = ins.opcode
        if op in ("call", "icall", "spmov", "unwind") or op in TERMINATORS:
            return None
        if op in STORE_OPCODES and write_class(stores[(block.bid, idx)]) == UNSAFE:
            return None
        if op == "spadd":
            delta += ins.args[0]
    return None


def plan_mechanism(program: Program, analysis: ProgramAnalysis) -> InstrumentationPlan:
    """Build the full per-function plan: policy candidates plus register-frame
    selection, inline sites, and dead-register chase points."""
    safety, heights, liveness = analysis.safety, analysis.heights, analysis.liveness
    per_function: dict[str, FunctionPlan] = {}
    inline_callees = frozenset(
        name for name, fn in program.functions.items() if inline_eligible(fn)
    )
    inline_sites = tuple(
        (fn.name, bid, idx, ins.args[0])
        for fn in program.functions.values()
        for bid, block in fn.blocks.items()
        for idx, ins in enumerate(block.instrs)
        if ins.opcode == "call" and ins.args[0] in inline_callees
    )

    for name, fn in program.functions.items():
        ra_safe = safety.ra_safe_fn(name)
        paths = count_safe_paths(fn, safety)
        plan = FunctionPlan(ra_safe, paths)
        if not ra_safe and paths >= 1:
            plan.lowered = lower_instrumentation(fn, safety, heights[name])
        if fn.is_leaf:
            plan.free_reg = find_free_register(fn)
        entry = fn.blocks[fn.entry_block]
        plan.entry_chase = _chase_point(entry, liveness[name], heights[name].stores)
        if plan.lowered is not None:
            for src, dst in plan.lowered.transition_edges:
                plan.edge_dead[(src, dst)] = liveness[name][dst][0].bit_count() >= 2
        per_function[name] = plan
    return InstrumentationPlan(program, per_function, inline_callees, inline_sites)


def resolve_mode(plan: FunctionPlan, mode: str) -> str:
    if mode == "ELIDE-ALL":
        return FN_ELIDED
    if mode not in MODE_FLAGS:
        raise PlanError(f"unknown mode '{mode}'")
    elide_safe, lower_paths, mechanisms = MODE_FLAGS[mode]
    if elide_safe and plan.ra_safe:
        return FN_ELIDED
    if lower_paths and plan.lowered is not None:
        return FN_LOWERED
    if mechanisms and plan.free_reg is not None:
        return FN_REGFRAME
    return FN_FULL


@dataclass(slots=True)
class ResolvedFunction:
    mode: str
    shadow_ops: tuple[ShadowOp, ...] = ()
    clone_map: dict[int, int] | None = None
    transition_blocks: Mapping[int, tuple[int, int]] = field(default_factory=dict)
    inlined_calls: tuple[tuple[int, int, str], ...] = ()
    op_costs: Mapping[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    # the checks `build_checks` mapped onto this rewrite's output function,
    # with what they came from: (output function, input program, analysis,
    # heights)
    mapped: tuple | None = field(default=None, repr=False, compare=False)
    # the ResolvedFunction, built first, whose output function this one
    # shares: that one keeps their mapped checks
    shares: ResolvedFunction | None = field(default=None, repr=False, compare=False)
    # (output function, input program, analysis, what `check_rewrites` found)
    checked: tuple | None = field(default=None, repr=False, compare=False)
    # `shadowvm.compile`'s decodes, first cookie -> (output function, store
    # heights, {callee: index}, decoded function, next cookie)
    decoded: dict | None = field(default=None, repr=False, compare=False)

    @property
    def block_sources(self) -> dict[int, int]:
        """The input block of each output block whose id is not its input's:
        a clone's original, a transition block's edge target.  Its keys are
        the tainted blocks: a walk that enters one must execute exactly one
        check."""
        sources = {cid: bid for bid, cid in (self.clone_map or {}).items()}
        sources.update((tid, dst) for tid, (_, dst) in self.transition_blocks.items())
        return sources

    @property
    def inlined_by_block(self) -> dict[int, dict[int, str]]:
        """`inlined_calls` grouped by output block: block id -> {input index: callee}."""
        inlined: dict[int, dict[int, str]] = {}
        for bid, k, callee in self.inlined_calls:
            inlined.setdefault(bid, {})[k] = callee
        return inlined

    def to_json(self) -> dict:
        """This function's plan for `json.dumps`, which writes each tuple as
        a list: a shadow operation is an object of its fields."""
        return {
            "mode": self.mode,
            "shadow_ops": [op._asdict() for op in self.shadow_ops],
            "clone_map": (
                {str(k): v for k, v in self.clone_map.items()} if self.clone_map else None
            ),
            "transition_blocks": {str(tid): edge for tid, edge in self.transition_blocks.items()},
            "inlined_calls": self.inlined_calls,
            "op_costs": {f"{b}:{i}": c for (b, i), c in self.op_costs.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResolvedFunction":
        """The inverse of `to_json`.  Data it cannot read raises: an
        operation cost or a transition edge that is not two integers, or a
        clone id that is not an integer, raises ValueError here rather than
        in the VM."""
        rf = cls(
            data["mode"],
            shadow_ops=tuple(
                ShadowOp(
                    o["kind"],
                    tuple(o["site"]),
                    o["entry_height"],
                    o["reg"],
                    tuple(o["cost"]),
                    o["chased"],
                    o["transition"],
                )
                for o in data["shadow_ops"]
            ),
            clone_map=(
                {int(k): v for k, v in data["clone_map"].items()} if data.get("clone_map") else None
            ),
            transition_blocks={
                int(k): tuple(v) for k, v in data.get("transition_blocks", {}).items()
            },
            inlined_calls=tuple(tuple(c) for c in data.get("inlined_calls", ())),
            op_costs={
                (int(k.split(":")[0]), int(k.split(":")[1])): tuple(v)
                for k, v in data.get("op_costs", {}).items()
            },
        )
        for what, pairs in (("operation cost", rf.op_costs), ("transition edge", rf.transition_blocks)):
            for pair in pairs.values():
                if len(pair) != 2 or not all(type(v) is int for v in pair):
                    raise ValueError(f"{what} {list(pair)} is not two integers")
        if not all(type(v) is int for v in (rf.clone_map or {}).values()):
            raise ValueError(f"clone_map {rf.clone_map} maps a block to a non-integer")
        return rf


@dataclass
class InstrumentedProgram:
    program: Program
    mode: str
    functions: dict[str, ResolvedFunction]

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "functions": {n: rf.to_json() for n, rf in self.functions.items()},
        }


# the one read-only empty mapping every ResolvedFunction without transition
# blocks or op costs holds (dataclass refuses it as a default), and that
# `shadowvm.compile` reads absent checks as
_EMPTY: Mapping = types.MappingProxyType({})

# the pop spliced before every ret or halt of FULL functions and of clones:
# its (kind, register, cost, instruction)
_SPOP_EXIT = ("pop", None, COST_POP, Instr("spop"))


def _spliced(functions: Mapping[str, Function], name: str, block: Block, calls: Mapping[int, str]) -> list:
    """The splice layout: the (function, block, index) of each instruction
    of `name`'s input `block` with the call at each index `calls` names
    replaced by the callee's body minus its trailing ret, then of the
    block's end.  `_rewrite` builds an inlining block from it, and the check
    mapping reads it back."""
    at = []
    for k, ins in enumerate(block.instrs):
        if ins.opcode == "call" and ins.args[0] == calls.get(k):
            body = next(iter(functions[ins.args[0]].blocks.values()))
            at += [(ins.args[0], body.bid, j) for j in range(len(body.instrs) - 1)]
        else:
            at.append((name, block.bid, k))
    return at + [(name, block.bid, len(block.instrs))]


def _rewrite(plan: InstrumentationPlan, name: str, fn_mode: str, mechanisms: bool) -> tuple[Function, ResolvedFunction]:
    """Function `name` of the plan's program instrumented as `fn_mode`, with
    its ResolvedFunction.  Its `spush` of each height is the plan's one."""
    functions, spushes = plan.program.functions, plan.spushes
    fn, fp = functions[name], plan.per_function[name]
    callees = plan.inline_callees if mechanisms else ()
    # the calls this rewrite inlines, per block: block id -> {index: callee}
    inline = {
        bid: calls
        for bid, block in fn.blocks.items()
        if (calls := {k: i.args[0] for k, i in enumerate(block.instrs) if i.opcode == "call" and i.args[0] in callees})
    } if callees else {}
    # The instructions depend on the function mode, on whether a call is
    # inlined and on where a FULL function's entry push is, and on nothing
    # else: where the mechanisms neither inline a call nor move the entry
    # push, the rewrite under the other mechanisms flag, once built, has
    # this one's body.
    other = plan.rewrites.get((name, fn_mode, not mechanisms))
    moved = fn_mode == FN_FULL and fp.entry_chase is not None and fp.entry_chase[0] > 0
    shared = None if other is None or moved or inline or other[1].inlined_calls else other

    def spush(height: int) -> Instr:
        return spushes.get(height) or spushes.setdefault(height, Instr("spush", (height,)))

    blocks: dict[int, Block] = {}
    ops: list[ShadowOp] = []
    op_costs: dict[tuple[int, int], tuple[int, int]] = {}
    inlined: list[tuple[int, int, str]] = []
    clone_map: dict[int, int] | None = None
    transition_blocks: dict[int, tuple[int, int]] = {}

    def emit(bid, out_id, targets, push, pop):
        """Block `bid` as block `out_id`: its calls in `inline` inlined, its
        branch targets mapped through `targets`, the `push` (index, op,
        instruction) spliced in, and the `pop` (kind, register, cost,
        instruction) spliced before a ret or halt.  Its shadow operations are
        recorded in any case, its block only while no body is `shared`."""
        block = fn.blocks[bid]
        body = block.instrs
        calls = inline.get(bid)
        if calls:
            inlined.extend((out_id, k, callee) for k, callee in calls.items())
            at = _spliced(functions, name, block, calls)
            body = tuple(functions[f].blocks[b].instrs[k] for f, b, k in at[:-1])
        term = body[-1]
        if push is not None:
            ops.append(push[1])
            op_costs[(out_id, push[0])] = push[1].cost
        exits = pop is not None and term.opcode in ("ret", "halt")
        if exits:
            kind, reg, cost, _ = pop
            ops.append(ShadowOp(kind, ("exit", out_id), 0, reg, cost))
            # the pop's index: after any push, before the terminator
            op_costs[(out_id, len(body) - 1 + (push is not None))] = cost
        if shared is not None:
            return
        if targets and term.opcode in ("br", "brc"):
            args = tuple(targets.get(t, t) for t in term.args)
            if args != term.args:
                body = body[:-1] + (Instr(term.opcode, args),)
        if push is not None:
            k, _, ins = push
            body = body[:k] + (ins,) + body[k:]
        if exits:
            body = body[:-1] + (pop[3], term)
        blocks[out_id] = block if body is block.instrs and out_id == bid else Block(out_id, body)

    if fn_mode == FN_LOWERED:
        low = fp.lowered
        clone_map = dict(low.clone_map)
        tids = {edge: TRANSITION_BASE + i for i, edge in enumerate(low.transition_edges)}
        transition_blocks = {tid: edge for edge, tid in tids.items()}
        by_src: dict[int, dict[int, int]] = {}
        for (src, dst), tid in tids.items():
            by_src.setdefault(src, {})[dst] = tid
        for bid in low.kept_originals:
            emit(bid, bid, by_src.get(bid), None, None)
        for edge, tid in tids.items():
            height = low.push_heights[edge]
            drc = mechanisms and fp.edge_dead.get(edge, False)
            base = COST_PUSH_CHASED if drc else COST_PUSH
            cost = (base[0] + COST_TRANSITION_EDGE[0], base[1] + COST_TRANSITION_EDGE[1])
            ops.append(ShadowOp("push", ("edge",) + edge, height, None, cost, drc, True))
            op_costs[(tid, 0)] = cost
            if shared is None:
                blocks[tid] = Block(tid, (spush(height), Instr("br", (low.clone_map[edge[1]],))))
        for bid in low.cloned:
            emit(bid, low.clone_map[bid], low.clone_map, None, _SPOP_EXIT)
    else:
        entry = fn.entry_block
        push = pop = None
        if fn_mode == FN_REGFRAME:
            reg = fp.free_reg
            rfpush = ShadowOp("rfpush", ("entry", entry), 0, reg, COST_RF_PUSH)
            push = (0, rfpush, Instr("rfpush", (reg,)))
            pop = ("rfpop", reg, COST_RF_POP, Instr("rfpop", (reg,)))
        elif fn_mode == FN_FULL:
            chased = mechanisms and fp.entry_chase is not None
            k, delta = fp.entry_chase if chased else (0, 0)
            site = ("instr", entry, k) if k else ("entry", entry)
            cost = COST_PUSH_CHASED if chased else COST_PUSH
            push = (k, ShadowOp("push", site, delta, None, cost, chased), spush(delta))
            pop = _SPOP_EXIT
        for bid in fn.blocks:
            emit(bid, bid, None, push if bid == entry else None, pop)

    rf = ResolvedFunction(
        fn_mode,
        tuple(ops),
        clone_map,
        transition_blocks or _EMPTY,
        tuple(inlined),
        op_costs or _EMPTY,
    )
    if shared is not None:
        if rf == shared[1]:     # the mechanisms change no cost either
            return shared
        rf.shares = shared[1]
        return shared[0], rf
    kept = len(blocks) == len(fn.blocks) and all(map(operator.is_, blocks.values(), fn.blocks.values()))
    return (fn if kept else Function(name, blocks)), rf


def apply_plan(program: Program, plan: InstrumentationPlan, mode: str) -> InstrumentedProgram:
    """Splice shadow pseudo-instructions and cloned blocks per the plan of
    `program`; a plan made for any other program raises PlanError.

    Only what the mode changes is built.  A block it does not rewrite, and a
    function none of whose blocks it rewrites (every elided one, and all of
    ELIDE-ALL), is the input's own object, shared by the input and every
    mode's output: neither may be mutated afterwards.

    Each rewrite is built once per plan.  A function resolves to the same
    rewrite under every mode that gives it the same function mode and
    mechanisms flag: FULL, SFE and PO share an unsafe, unlowered function's,
    and MO and LIGHT theirs.  Across the flag, only the instructions are
    shared: where the mechanisms neither inline a call nor move a FULL
    function's entry push, MO's output function is FULL's and LIGHT's is
    PO's, and only the costs in their ResolvedFunctions may differ.
    """
    if mode not in MODES:
        raise PlanError(f"unknown mode '{mode}'")
    if program is not plan.program:
        raise PlanError("plan was made for another program")
    mechanisms = mode in MODE_FLAGS and MODE_FLAGS[mode].mechanisms
    new_functions: dict[str, Function] = {}
    resolved: dict[str, ResolvedFunction] = {}
    for name, fp in plan.per_function.items():
        key = (name, resolve_mode(fp, mode), mechanisms)
        built = plan.rewrites.get(key)
        if built is None:
            built = plan.rewrites[key] = _rewrite(plan, *key)
        new_functions[name], resolved[name] = built

    new_program = Program(new_functions, entry=program.entry, adversarial=program.adversarial)
    return InstrumentedProgram(new_program, mode, resolved)


class CheckMappingError(Exception):
    """An instrumented function whose instructions, shadow operations aside,
    are not its input's in order: checks cannot be mapped onto it."""


def build_checks(ip: InstrumentedProgram, source: Program, analysis: AnalysisChecks) -> AnalysisChecks:
    """The store heights of `ip`, the instrumented `source`, for the VM to
    validate live, from `analysis` of `source` (`_mapped_heights`); store
    heights only, with no block entry states or dead register masks, which
    is all `compile` reads.  An output instruction that is not the input's
    at its position raises CheckMappingError."""
    rfs = ip.functions
    heights = {name: _mapped_heights(source, fn, rfs.get(name), analysis) for name, fn in ip.program.functions.items()}
    return AnalysisChecks(heights, {})


def _mapped_heights(source: Program, fn: Function, rf: ResolvedFunction, analysis: AnalysisChecks) -> Heights:
    """The store heights of `fn`: the input's own for the input's function,
    else mapped by `_mapped_facts` once per `fn`, `source` and `analysis`,
    kept in the ResolvedFunction that first gave `fn` (see `shares`)."""
    if fn is source.functions.get(fn.name):
        return analysis.heights[fn.name]
    keeper = rf.shares or rf
    mapped = keeper.mapped
    if mapped is None or mapped[0] is not fn or mapped[1] is not source or mapped[2] is not analysis:
        mapped = keeper.mapped = (fn, source, analysis, _mapped_facts(source.functions, fn, rf, analysis))
    return mapped[3]


def _mapped_facts(
    originals: Mapping[str, Function], fn: Function, rf: ResolvedFunction, analysis: AnalysisChecks
) -> Heights:
    """The heights at the stores of `fn`, the rewrite `rf` describes of its
    input in `originals`, taken from `analysis`.

    Within an output block, its input block by `rf.block_sources`, with its
    inlined calls laid out by `_spliced` (the callee's body minus its ret,
    whose stores keep the callee's own facts, the ones the safety fold
    judged the caller by), the i-th instruction that is not a shadow
    operation is the laid-out input block's i-th, a branch's targets mapped
    back to input blocks.  A transition block holds a push and a branch
    into the clone of its edge's target."""
    name = fn.name
    source = originals.get(name)
    if source is None:
        raise CheckMappingError(f"{name}: no input function to map checks from")
    sources, transitions = rf.block_sources, rf.transition_blocks
    hmap, inlined = {}, rf.inlined_by_block
    for bid, block in fn.blocks.items():
        src = sources.get(bid, bid)
        if bid in transitions:
            if any(i.opcode not in SHADOW_OPCODES and i.opcode != "br" for i in block.instrs):
                raise CheckMappingError(f"{name}.b{bid}: transition block holds more than a push and a branch")
            if [i.args[0] for i in block.instrs if i.opcode == "br"] != [rf.clone_map[src]]:
                raise CheckMappingError(f"{name}.b{bid}: transition block does not branch to the clone of b{src}")
            continue
        src_block = source.blocks.get(src)
        if src_block is None:
            raise CheckMappingError(f"{name}.b{bid}: no input block b{src}")
        at = _spliced(originals, name, src_block, inlined[bid]) if bid in inlined else None
        src_instrs = [originals[f].blocks[b].instrs[k] for f, b, k in at[:-1]] if at else src_block.instrs
        n = len(src_instrs)
        i = 0
        for idx, ins in enumerate(block.instrs):
            op = ins.opcode
            if op in SHADOW_OPCODES:
                continue
            was = src_instrs[i] if i < n else None
            if ins is not was:
                if was is None or was.opcode != op:
                    was = "the block's end" if was is None else was.opcode
                    raise CheckMappingError(
                        f"{name}.b{bid}[{idx}]: {op} where input {_input_position(name, src, at, i)} has {was}"
                    )
                args = ins.args
                if op == "br" or op == "brc":
                    args = tuple(sources.get(t, t) for t in args)
                if args != was.args:
                    raise CheckMappingError(
                        f"{name}.b{bid}[{idx}]: {ins.text} where input {_input_position(name, src, at, i)} has {was.text}"
                    )
            if op in STORE_OPCODES:
                f, b, k = at[i] if at else (name, src, i)
                hmap[(bid, idx)] = analysis.heights[f].stores[(b, k)]
            i += 1
        if i != n:
            was = src_instrs[i].opcode
            raise CheckMappingError(f"{name}.b{bid}: ends where input {_input_position(name, src, at, i)} has {was}")
    return Heights({}, hmap)


def _input_position(name: str, src: int, at: list | None, i: int) -> str:
    """Input position `i` of block `src` of `name`, as a message names it."""
    f, b, k = at[i] if at else (name, src, i)
    return f"b{b}[{k}]" if f == name else f"{f}.b{b}[{k}]"


_KIND_COST = {"pop": COST_POP, "rfpush": COST_RF_PUSH, "rfpop": COST_RF_POP}   # a push's cost depends on its flags
_STORED_BEFORE_PUSH, _STORED_AFTER_POP, _STORED = 1, 2, 4     # where a walk's unsafe stores fell, as bits of its state


def rewrite_claims(fn: Function, rf: ResolvedFunction, dead: Mapping[int, tuple[int, ...]]) -> list[str]:
    """What `rf` claims of `fn`, its output function, that does not hold:
    shadow instructions sit exactly at `op_costs`'s positions and are, in
    order, the instructions of `shadow_ops`' kinds; each is charged its
    operation's cost, which its kind and `chased` and `transition` flags
    give; a chased push sits where `dead`, the input's dead registers, holds
    two (an edge's push where its target starts)."""
    at = {(bid, idx): ins.opcode for bid, block in fn.blocks.items()
          for idx, ins in enumerate(block.instrs) if ins.opcode in SHADOW_OPCODES}
    kinds = [{"push": "spush", "pop": "spop"}.get(op.kind, op.kind) for op in rf.shadow_ops]
    found = []
    if at.keys() != rf.op_costs.keys():
        found.append(f"shadow instructions and op_costs differ at {sorted(at.keys() ^ rf.op_costs.keys())}")
    if list(at.values()) != kinds:
        return found + [f"shadow instructions {list(at.values())} where shadow_ops has {kinds}"]
    for op, (bid, idx) in zip(rf.shadow_ops, at):
        where, charged = f"b{bid}[{idx}]: {op.kind}", rf.op_costs.get((bid, idx))
        cost = _KIND_COST.get(op.kind) or (COST_PUSH_CHASED if op.chased else COST_PUSH)
        if op.transition:
            cost = (cost[0] + COST_TRANSITION_EDGE[0], cost[1] + COST_TRANSITION_EDGE[1])
        if charged != op.cost or op.cost != cost:
            found.append(f"{where} costs {op.cost}, op_costs charges {charged}, its kind and flags give {cost}")
        b, k = (op.site[2], 0) if op.transition else (bid, idx)
        if op.chased and (k >= len(dead.get(b, ())) or dead[b][k].bit_count() < 2):
            found.append(f"{where} is chased where the input has fewer than two dead registers")
    return found


def activation_walks(fn: Function, rf: ResolvedFunction, stores: Mapping) -> list[str]:
    """What fails on the walks from the entry of `fn`, output function of
    the instrumenting rewrite `rf`, to a `ret` or `halt`, each finding once,
    sorted (`brc` follows the input, so each is some input's walk).  A walk
    is tainted from the entry of a FULL or register-frame function, or once
    it enters a lowered one's `block_sources`.  A tainted walk runs one push,
    then one pop, with no store unsafe by its height in `stores` before the
    push or after the pop; any other walk runs neither.  Each state (block,
    pushes and pops capped at 2, tainted, pop first, unsafe-store bits) is
    explored once; a walk that never ends is not checked."""
    found = []
    start = (fn.entry_block, 0, 0, rf.mode != FN_LOWERED, False, 0)
    seen, work, tainting = {start}, [start], rf.block_sources
    while work:
        bid, pushes, pops, tainted, pop_first, bits = work.pop()
        instrs = fn.blocks[bid].instrs
        for idx, ins in enumerate(instrs):
            op = ins.opcode
            if op == "spush" or op == "rfpush":
                pushes = min(pushes + 1, 2)
            elif op == "spop" or op == "rfpop":
                pop_first, pops = pop_first or not pushes, min(pops + 1, 2)
            elif (op == "store.sp" or op == "store.reg") and write_class(stores[(bid, idx)]) == UNSAFE:
                bits |= _STORED | (not pushes) * _STORED_BEFORE_PUSH | (pops > 0) * _STORED_AFTER_POP
        if instrs[-1].opcode not in ("br", "brc"):
            counted = pushes == pops == 1
            found += [message for failed, message in (
                (tainted and not counted, f"tainted walk executed {pushes} pushes, {pops} pops"),
                (tainted and counted and pop_first, "pop before push"),
                (tainted and pushes and bits & _STORED_BEFORE_PUSH, "unsafe store before the covering push"),
                (tainted and bits & _STORED_AFTER_POP, "unsafe store after the covering pop"),
                (not tainted and (pushes or pops), "safe walk executed shadow operations"),
                (not tainted and bits, "unsafe store on a walk that never left safe blocks"),
            ) if failed]
            continue
        new = {(t, pushes, pops, tainted or t in tainting, pop_first, bits) for t in instrs[-1].args} - seen
        seen |= new
        work += new
    return sorted(set(found))


def check_rewrites(ip: InstrumentedProgram, source: Program | None = None, analysis=None) -> list[tuple[str, str]]:
    """(function name, finding) of `rewrite_claims` and `activation_walks`
    for each rewrite of `ip` but an elided one, the input's own function,
    against `source`, the program `ip` instruments, and its ProgramAnalysis
    `analysis` (store heights as `build_checks` maps them); and a chased
    push in a mode without mechanisms.  Each rewrite keeps its findings
    (`checked`) for the same output function and given `source` and
    `analysis`; without `source`, the rest are checked against `ip`
    stripped and analysed afresh.  CheckMappingError propagates."""
    plain = not (ip.mode in MODE_FLAGS and MODE_FLAGS[ip.mode].mechanisms)
    given, found = source is not None, []
    for name, fn in ip.program.functions.items():
        rf = ip.functions.get(name)
        if rf is None or rf.mode == FN_ELIDED:
            continue
        checked = rf.checked
        if checked is None or checked[0] is not fn or (
            given and (checked[1] is not source or checked[2] is not analysis)
        ):
            if source is None:
                source = strip_instrumentation(ip)
                analysis = analyze_program(source)
            stores = _mapped_heights(source, fn, rf, analysis).stores
            findings = (*rewrite_claims(fn, rf, analysis.liveness[name]), *activation_walks(fn, rf, stores))
            checked = rf.checked = (fn, source, analysis, findings)
        found += [(name, m) for m in checked[3]]
        if plain and any(op.chased for op in rf.shadow_ops):
            found.append((name, f"chased push under {ip.mode}, a mode without mechanisms"))
    return found


def strip_instrumentation(ip: InstrumentedProgram) -> Program:
    """Remove shadow instructions, merge each clone and transition block
    back onto its input block (`block_sources`), and put back each inlined
    call: in ascending index order, so each index is exact once the earlier
    splices are collapsed.  A spliced body is the callee's output entry
    block without its shadow instructions and its ret.  Blocks keep the input's
    order: a lowered function's `clone_map` lists every input block in it,
    and `apply_plan` emits every other function's blocks in it."""
    functions: dict[str, Function] = {}
    for name, fn in ip.program.functions.items():
        rf = ip.functions[name]
        sources = rf.block_sources
        inlined = rf.inlined_by_block
        merged: dict[int, Block] = {}
        for bid, block in fn.blocks.items():
            orig_id = sources.get(bid, bid)
            if bid in rf.transition_blocks or orig_id in merged:
                continue
            instrs = []
            for ins in block.instrs:
                if ins.opcode in SHADOW_OPCODES:
                    continue
                if ins.opcode in ("br", "brc"):
                    ins = Instr(ins.opcode, tuple(sources.get(t, t) for t in ins.args))
                instrs.append(ins)
            for idx, callee in sorted(inlined.get(bid, {}).items()):
                body = ip.program.functions[callee]
                n = sum(i.opcode not in SHADOW_OPCODES for i in body.blocks[body.entry_block].instrs) - 1
                instrs[idx:idx + n] = [Instr("call", (callee,))]
            merged[orig_id] = Block(orig_id, tuple(instrs))
        functions[name] = Function(name, {bid: merged[bid] for bid in rf.clone_map or merged if bid in merged})
    return Program(
        functions,
        entry=ip.program.entry,
        adversarial=ip.program.adversarial,
    )
