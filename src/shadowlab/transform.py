"""Instrumentation policy and mechanism.

Policy: safe-function elision drops instrumentation from provably safe
functions; safe-path elision clones the CFG of an unsafe function and moves
the push onto the edges entering its first unsafe blocks, so walks that stay
on safe blocks execute no shadow operations at all.

Mechanism: register frames keep a leaf function's shadow entry in an unused
register; direct calls to single-block leaf callees are inlined away; entry
pushes chase forward within their block to a point with two dead registers,
eliding the scratch save/restore.

Plans record every candidate; `apply_plan` resolves them per mode:

  FULL       entry/exit instrumentation on every function
  SFE        FULL minus safe functions
  PO         SFE plus path lowering
  MO         FULL plus mechanism optimizations
  LIGHT      PO plus mechanism optimizations
  ELIDE-ALL  no instrumentation (intentionally unsound control)
"""

from __future__ import annotations

import operator
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
)
from .analysis import (
    InstrFacts,
    UNSAFE,
    classify_writes,
    dead_registers,
    instr_masks,
    stack_heights,
)
from .safety import SafetyResult, calculate_ra_safety

MODES = ("FULL", "SFE", "PO", "MO", "LIGHT", "ELIDE-ALL")

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
    reachable_originals: tuple[int, ...]                   # original blocks kept, in fn.blocks order
    cloned: tuple[int, ...]                                # original ids whose clones are kept, same order


@dataclass
class FunctionPlan:
    ra_safe: bool
    safe_paths: int
    leaf: bool
    lowered: LoweredCfg | None = None
    free_reg: int | None = None
    entry_chase: tuple[int, int] | None = None   # (landing index, net sp delta over skipped prefix)
    edge_dead: dict[tuple[int, int], bool] = field(default_factory=dict)


@dataclass
class InstrumentationPlan:
    per_function: dict[str, FunctionPlan]
    inline_callees: frozenset[str]
    inline_sites: tuple[tuple[str, int, int, str], ...]    # (caller, bid, idx, callee)


@dataclass
class ProgramAnalysis:
    heights: dict[str, dict[tuple[int, int], InstrFacts]]
    liveness: dict[str, dict[tuple[int, int], int]]     # dead-register masks
    classes: dict[str, dict[tuple[int, int], str]]
    safety: SafetyResult


def analyze_program(program: Program) -> ProgramAnalysis:
    """Run every per-function analysis plus the safety fixpoint."""
    heights = {name: stack_heights(fn) for name, fn in program.functions.items()}
    liveness = {name: dead_registers(fn) for name, fn in program.functions.items()}
    classes = {name: classify_writes(fn, heights[name]) for name, fn in program.functions.items()}
    safety = calculate_ra_safety(program, classes)
    return ProgramAnalysis(heights, liveness, classes, safety)


def plan_program(program: Program) -> tuple[ProgramAnalysis, InstrumentationPlan]:
    analysis = analyze_program(program)
    plan = plan_mechanism(program, analysis)
    return analysis, plan


def count_safe_paths(fn: Function, safety: SafetyResult) -> int:
    """Entry-to-exit paths through safe blocks only, loops collapsed, capped.

    Unsafe blocks are removed outright, then strongly connected groups of the
    remaining safe blocks collapse to single nodes so a loop contributes its
    enclosing path once.
    """
    safe = [bid for bid in fn.blocks if safety.ra_safe_block(fn.name, bid)]
    if fn.entry_block not in safe:
        return 0
    safe_set = set(safe)
    succs = {
        bid: sorted(s for s in fn.blocks[bid].successors if s in safe_set) for bid in safe
    }
    components = [tuple(sorted(comp)) for comp in sccs(sorted(safe), succs)]
    comp_of = {bid: cid for cid, comp in enumerate(components) for bid in comp}

    comp_succs: dict[int, set[int]] = {i: set() for i in range(len(components))}
    for bid in safe:
        for s in succs[bid]:
            if comp_of[bid] != comp_of[s]:
                comp_succs[comp_of[bid]].add(comp_of[s])

    exits = set(fn.exit_blocks)
    entry_comp = comp_of[fn.entry_block]
    # Tarjan emission order is reverse-topological; walk it backwards for the DP
    ways = [0] * len(components)
    ways[entry_comp] = 1
    total = 0
    for cid in range(len(components) - 1, -1, -1):
        w = ways[cid]
        if not w:
            continue
        if any(b in exits for b in components[cid]):
            total = min(PATH_COUNT_CAP, total + w)
        for s in sorted(comp_succs[cid]):
            ways[s] = min(PATH_COUNT_CAP, ways[s] + w)
    return total


def lower_instrumentation(
    fn: Function, safety: SafetyResult, heights: Mapping[tuple[int, int], InstrFacts]
) -> LoweredCfg | None:
    """Clone the CFG and collect the transition edges entering unsafe blocks.

    Depth-first over intra-procedural edges in ascending block-id order with
    edge marking; the first unsafe block on a path redirects the traversed
    edge to that block's clone and carries the push, and the walk does not
    descend past it.  The blocks the walk descends into are the originals the
    lowered function keeps: every edge out of one leads to another or is a
    transition.  Clones branch only to clones, so the clones it keeps are
    those of the blocks reachable in the original CFG from a transition
    target.  Returns None when lowering cannot apply: the entry block itself
    is unsafe, or a push site has no concrete stack height.
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
        h = heights[(dst, 0)].sp
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
    if not block.instrs or block.instrs[-1].opcode != "ret":
        return False
    return all(i.opcode not in _INLINE_FORBIDDEN for i in block.instrs[:-1])


def _chase_point(
    block: Block,
    dead: Mapping[tuple[int, int], int],
    classes: Mapping[tuple[int, int], str],
) -> tuple[int, int] | None:
    """Earliest in-block point with two dead registers reachable without
    crossing an unsafe store, a call, or a statically unknown sp change."""
    delta = 0
    for idx in range(len(block.instrs)):
        if dead[(block.bid, idx)].bit_count() >= 2:
            return idx, delta
        ins = block.instrs[idx]
        op = ins.opcode
        if op in ("call", "icall", "spmov", "unwind") or op in TERMINATORS:
            return None
        if op in STORE_OPCODES and classes.get((block.bid, idx)) == UNSAFE:
            return None
        if op == "spadd":
            delta += ins.args[0]
    return None


def plan_mechanism(program: Program, analysis: ProgramAnalysis) -> InstrumentationPlan:
    """Build the full per-function plan: policy candidates plus register-frame
    selection, inline sites, and dead-register chase points."""
    safety, heights, liveness, classes = (
        analysis.safety, analysis.heights, analysis.liveness, analysis.classes
    )
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
        plan = FunctionPlan(ra_safe, paths, fn.is_leaf)
        if not ra_safe and paths >= 1:
            plan.lowered = lower_instrumentation(fn, safety, heights[name])
        if plan.leaf:
            plan.free_reg = find_free_register(fn)
        entry = fn.blocks[fn.entry_block]
        plan.entry_chase = _chase_point(entry, liveness[name], classes[name])
        if plan.lowered is not None:
            for src, dst in plan.lowered.transition_edges:
                plan.edge_dead[(src, dst)] = liveness[name][(dst, 0)].bit_count() >= 2
        per_function[name] = plan
    return InstrumentationPlan(per_function, inline_callees, inline_sites)


def resolve_mode(plan: FunctionPlan, mode: str) -> str:
    if mode == "ELIDE-ALL":
        return FN_ELIDED
    if mode == "FULL":
        return FN_FULL
    if mode == "SFE":
        return FN_ELIDED if plan.ra_safe else FN_FULL
    if mode == "PO":
        if plan.ra_safe:
            return FN_ELIDED
        return FN_LOWERED if plan.lowered is not None else FN_FULL
    if mode == "MO":
        if plan.leaf and plan.free_reg is not None:
            return FN_REGFRAME
        return FN_FULL
    if mode == "LIGHT":
        if plan.ra_safe:
            return FN_ELIDED
        if plan.lowered is not None:
            return FN_LOWERED
        if plan.leaf and plan.free_reg is not None:
            return FN_REGFRAME
        return FN_FULL
    raise PlanError(f"unknown mode '{mode}'")


@dataclass(slots=True)
class ResolvedFunction:
    mode: str
    shadow_ops: tuple[ShadowOp, ...] = ()
    clone_map: dict[int, int] | None = None
    transition_blocks: dict[int, tuple[int, int]] = field(default_factory=dict)
    inlined_calls: tuple[tuple[int, int, str], ...] = ()
    chase_shifts: dict[str, tuple] = field(default_factory=dict)
    op_costs: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    @property
    def tainted_blocks(self) -> frozenset[int]:
        """Clone and transition block ids: a walk that enters one is tainted
        and must execute exactly one check."""
        return frozenset((*(self.clone_map or {}).values(), *self.transition_blocks))

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "shadow_ops": [
                {
                    "kind": op.kind,
                    "site": list(op.site),
                    "entry_height": op.entry_height,
                    "reg": op.reg,
                    "cost": list(op.cost),
                    "chased": op.chased,
                    "transition": op.transition,
                }
                for op in self.shadow_ops
            ],
            "clone_map": (
                {str(k): v for k, v in self.clone_map.items()} if self.clone_map else None
            ),
            "transition_blocks": {
                str(tid): list(edge) for tid, edge in self.transition_blocks.items()
            },
            "inlined_calls": [list(c) for c in self.inlined_calls],
            "chase_shifts": {k: list(v) for k, v in self.chase_shifts.items()},
            "op_costs": {f"{b}:{i}": list(c) for (b, i), c in self.op_costs.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ResolvedFunction":
        rf = cls(data["mode"])
        rf.shadow_ops = tuple(
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
        )
        if data.get("clone_map"):
            rf.clone_map = {int(k): v for k, v in data["clone_map"].items()}
        rf.transition_blocks = {
            int(k): tuple(v) for k, v in data.get("transition_blocks", {}).items()
        }
        rf.inlined_calls = tuple(tuple(c) for c in data.get("inlined_calls", ()))
        rf.chase_shifts = {k: tuple(v) for k, v in data.get("chase_shifts", {}).items()}
        rf.op_costs = {
            (int(k.split(":")[0]), int(k.split(":")[1])): tuple(v)
            for k, v in data.get("op_costs", {}).items()
        }
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


_SPOP = Instr("spop")


def _inline_block(
    instrs: tuple[Instr, ...],
    program: Program,
    callees: frozenset[str],
) -> tuple[tuple[Instr, ...], list[tuple[int, str]]]:
    """Splice each call to one of `callees` with the callee's body minus its
    trailing ret; also the (index, callee) of each splice.  A block that calls
    none of them comes back as the same tuple."""
    hits = [
        (idx, ins.args[0])
        for idx, ins in enumerate(instrs)
        if ins.opcode == "call" and ins.args[0] in callees
    ] if callees else []
    if not hits:
        return instrs, hits
    out = list(instrs)
    for idx, callee in reversed(hits):
        out[idx:idx + 1] = next(iter(program.functions[callee].blocks.values())).instrs[:-1]
    return tuple(out), hits


def apply_plan(program: Program, plan: InstrumentationPlan, mode: str) -> InstrumentedProgram:
    """Splice shadow pseudo-instructions and cloned blocks per the plan.

    Only what the mode changes is built.  A block it does not rewrite, and a
    function none of whose blocks it rewrites (every elided one, and all of
    ELIDE-ALL), is the input's own object, shared by the input and every
    mode's output: neither may be mutated afterwards.
    """
    if mode not in MODES:
        raise PlanError(f"unknown mode '{mode}'")
    mechanisms = mode in ("MO", "LIGHT")
    callees = plan.inline_callees if mechanisms else frozenset()

    new_functions: dict[str, Function] = {}
    resolved: dict[str, ResolvedFunction] = {}

    for name, fn in program.functions.items():
        fp = plan.per_function.get(name)
        if fp is None:
            raise PlanError(f"stale plan: no entry for function '{name}'")
        fn_mode = resolve_mode(fp, mode)
        rf = ResolvedFunction(fn_mode)
        ops: list[ShadowOp] = []

        def inlined(instrs, bid):
            body, hits = _inline_block(instrs, program, callees)
            if hits:
                rf.inlined_calls += tuple((bid, idx, callee) for idx, callee in hits)
            return body

        blocks: dict[int, Block] = {}

        if fn_mode in (FN_ELIDED, FN_FULL, FN_REGFRAME):
            for bid, block in fn.blocks.items():
                body = inlined(block.instrs, bid)
                blocks[bid] = block if body is block.instrs else Block(bid, body)
            if fn_mode != FN_ELIDED:
                entry_bid = fn.entry_block
                if fn_mode == FN_REGFRAME:
                    push = ShadowOp(
                        "rfpush", ("entry", entry_bid), 0, fp.free_reg, COST_RF_PUSH
                    )
                    pop_kind, pop_cost, pop_reg = "rfpop", COST_RF_POP, fp.free_reg
                    k = 0
                else:
                    if mechanisms and fp.entry_chase is not None:
                        k, delta = fp.entry_chase
                    else:
                        k, delta = 0, 0
                    chased = mechanisms and fp.entry_chase is not None
                    site = ("instr", entry_bid, k) if k else ("entry", entry_bid)
                    push = ShadowOp(
                        "push",
                        site,
                        delta,
                        None,
                        COST_PUSH_CHASED if chased else COST_PUSH,
                        chased,
                    )
                    if k:
                        rf.chase_shifts[f"b{entry_bid}:0"] = (entry_bid, k, -delta)
                    pop_kind, pop_cost, pop_reg = "pop", COST_POP, None
                ops.append(push)
                eb = blocks[entry_bid]
                push_ins = (
                    Instr("rfpush", (fp.free_reg,))
                    if fn_mode == FN_REGFRAME
                    else Instr("spush", (push.entry_height,))
                )
                blocks[entry_bid] = Block(
                    entry_bid, eb.instrs[:k] + (push_ins,) + eb.instrs[k:]
                )
                rf.op_costs[(entry_bid, k)] = push.cost
                for ebid in fn.exit_blocks:
                    ops.append(ShadowOp(pop_kind, ("exit", ebid), 0, pop_reg, pop_cost))
                    xb = blocks[ebid]
                    pop_ins = Instr("rfpop", (fp.free_reg,)) if fn_mode == FN_REGFRAME else _SPOP
                    blocks[ebid] = Block(
                        ebid, xb.instrs[:-1] + (pop_ins, xb.instrs[-1])
                    )
                    rf.op_costs[(ebid, len(blocks[ebid].instrs) - 2)] = pop_cost
        else:  # FN_LOWERED
            low = fp.lowered
            rf.clone_map = dict(low.clone_map)
            tids = {
                edge: TRANSITION_BASE + i for i, edge in enumerate(low.transition_edges)
            }
            rf.transition_blocks = {tid: edge for edge, tid in tids.items()}
            tset = set(low.transition_edges)

            def remap_original(ins: Instr, src: int) -> Instr:
                if ins.opcode == "br":
                    t = ins.args[0]
                    if (src, t) in tset:
                        return Instr("br", (tids[(src, t)],))
                elif ins.opcode == "brc":
                    a, b = ins.args
                    na = tids[(src, a)] if (src, a) in tset else a
                    nb = tids[(src, b)] if (src, b) in tset else b
                    if (na, nb) != (a, b):
                        return Instr("brc", (na, nb))
                return ins

            for bid in low.reachable_originals:
                block = fn.blocks[bid]
                body = inlined(block.instrs, bid)
                term = remap_original(body[-1], bid)
                if term is not body[-1]:
                    body = body[:-1] + (term,)
                blocks[bid] = block if body is block.instrs else Block(bid, body)
            for edge in low.transition_edges:
                tid = tids[edge]
                height = low.push_heights[edge]
                drc = fp.edge_dead.get(edge, False) if mechanisms else False
                base = COST_PUSH_CHASED if drc else COST_PUSH
                cost = (base[0] + COST_TRANSITION_EDGE[0], base[1] + COST_TRANSITION_EDGE[1])
                ops.append(
                    ShadowOp("push", ("edge",) + edge, height, None, cost, drc, True)
                )
                blocks[tid] = Block(
                    tid,
                    (Instr("spush", (height,)), Instr("br", (low.clone_map[edge[1]],))),
                )
                rf.op_costs[(tid, 0)] = cost
            for bid in low.cloned:
                cid = low.clone_map[bid]
                body = inlined(fn.blocks[bid].instrs, cid)
                term = body[-1]
                if term.opcode in ("br", "brc"):
                    term = Instr(
                        term.opcode, tuple(low.clone_map[t] for t in term.args)
                    )
                instrs = body[:-1] + (term,)
                if term.opcode in ("ret", "halt"):
                    ops.append(ShadowOp("pop", ("exit", cid), 0, None, COST_POP))
                    instrs = instrs[:-1] + (_SPOP, instrs[-1])
                    rf.op_costs[(cid, len(instrs) - 2)] = COST_POP
                blocks[cid] = Block(cid, instrs)

        rf.shadow_ops = tuple(ops)
        resolved[name] = rf
        kept = len(blocks) == len(fn.blocks) and all(map(operator.is_, blocks.values(), fn.blocks.values()))
        new_functions[name] = fn if kept else Function(name, blocks)

    new_program = Program(new_functions, entry=program.entry, adversarial=program.adversarial)
    return InstrumentedProgram(new_program, mode, resolved)


def strip_instrumentation(ip: InstrumentedProgram) -> Program:
    """Remove shadow instructions and merge cloned regions back onto the
    original block ids.  Inlined call sites are left as spliced."""
    functions: dict[str, Function] = {}
    for name, fn in ip.program.functions.items():
        rf = ip.functions[name]
        transition = rf.transition_blocks
        original = {cid: bid for bid, cid in (rf.clone_map or {}).items()}

        def remap(target: int) -> int:
            if target in transition:
                return transition[target][1]
            return original.get(target, target)

        merged: dict[int, Block] = {}
        for bid, block in fn.blocks.items():
            if bid in transition:
                continue
            orig_id = original.get(bid, bid)
            if orig_id in merged:
                continue
            instrs = []
            for ins in block.instrs:
                if ins.opcode in SHADOW_OPCODES:
                    continue
                if ins.opcode in ("br", "brc"):
                    ins = Instr(ins.opcode, tuple(remap(t) for t in ins.args))
                instrs.append(ins)
            merged[orig_id] = Block(orig_id, tuple(instrs))
        ordered = {bid: merged[bid] for bid in sorted(merged)}
        entry = fn.entry_block
        if entry in ordered:  # keep the entry block first
            ordered = {entry: ordered[entry], **{b: v for b, v in ordered.items() if b != entry}}
        functions[name] = Function(name, ordered)
    return Program(
        functions,
        entry=ip.program.entry,
        adversarial=ip.program.adversarial,
    )
