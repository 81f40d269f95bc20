"""Return-address safety: flow joins over blocks and functions, SCC condensation
of the call graph, and the bottom-up worklist fixpoint.

The value lattice is flat over {True, False}: Bottom below both, Top above.
A block's value joins the safety of each of its stores (True iff the write
cannot reach a return-address slot) with the values of its direct call
targets; a block containing an indirect call joins False, since indirect
call targets cannot be trusted.  A function or block is considered safe when
its fixpoint value is Bottom or True.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .mir import Block, CallGraph, Function, Program, build_call_graph, sccs
from .analysis import HeightMap, is_safe_height

RS_BOTTOM = 0
RS_TRUE = 1
RS_FALSE = 2
RS_TOP = 3

def rs_join(a: int, b: int) -> int:
    if a == b or b == RS_BOTTOM:
        return a
    if a == RS_BOTTOM:
        return b
    return RS_TOP


def rs_is_safe(value: int) -> bool:
    """(value joined with True) stays at or below True."""
    return value in (RS_BOTTOM, RS_TRUE)


def write_safety(ins, dest_height) -> int:
    """True for writes that cannot touch a return address, else False."""
    if ins.opcode == "store.global":
        return RS_TRUE
    return RS_TRUE if is_safe_height(dest_height) else RS_FALSE


def flow_block(block: Block, heights: HeightMap, d: int, fn_values: Mapping[str, int]) -> int:
    """Join incoming value with the block's write safeties and callee values."""
    v = d
    for idx, ins in enumerate(block.instrs):
        if ins.is_store:
            v = rs_join(v, write_safety(ins, heights.dest(block.bid, idx)))
        if ins.opcode == "call":
            v = rs_join(v, fn_values.get(ins.args[0], RS_FALSE))
        elif ins.opcode == "icall":
            v = rs_join(v, RS_FALSE)
    return v


def flow_function(
    fn: Function,
    heights: HeightMap,
    d: int,
    block_values: Mapping[tuple[str, int], int],
    fn_values: Mapping[str, int],
) -> int:
    """Fold the function value over one application of flow_block per block."""
    v = d
    for bid, block in fn.blocks.items():
        v = rs_join(v, flow_block(block, heights, block_values[(fn.name, bid)], fn_values))
    return v


@dataclass(frozen=True)
class SccDag:
    components: tuple[tuple[str, ...], ...]
    edges: frozenset[tuple[int, int]]
    postorder: tuple[int, ...]


def condense_sccs(graph: CallGraph) -> SccDag:
    """Tarjan condensation; postorder visits callees before callers."""
    order = {name: i for i, name in enumerate(graph.nodes)}
    succs: dict[str, list[str]] = {n: [] for n in graph.nodes}
    for a, b in sorted(graph.direct_edges, key=lambda e: (order[e[0]], order[e[1]])):
        succs[a].append(b)

    components = [tuple(sorted(comp, key=order.get)) for comp in sccs(graph.nodes, succs)]
    comp_of = {name: idx for idx, comp in enumerate(components) for name in comp}

    edges = frozenset(
        (comp_of[a], comp_of[b]) for a, b in graph.direct_edges if comp_of[a] != comp_of[b]
    )
    # Tarjan emits a component only after everything reachable from it,
    # so emission order itself is the bottom-up postorder.
    return SccDag(tuple(components), edges, tuple(range(len(components))))


@dataclass
class SafetyResult:
    block_values: dict[tuple[str, int], int]
    fn_values: dict[str, int]

    def ra_safe_fn(self, name: str) -> bool:
        return rs_is_safe(self.fn_values[name])

    def ra_safe_block(self, fn: str, bid: int) -> bool:
        return rs_is_safe(self.block_values[(fn, bid)])

    def to_json(self) -> dict:
        return {
            "functions": {
                name: ("safe" if rs_is_safe(v) else "unsafe")
                for name, v in sorted(self.fn_values.items())
            },
            "blocks": {
                f"{fn}.b{bid}": ("safe" if rs_is_safe(v) else "unsafe")
                for (fn, bid), v in sorted(self.block_values.items())
            },
        }


def calculate_ra_safety(program: Program, heights: Mapping[str, HeightMap]) -> SafetyResult:
    """Worklist fixpoint over call-graph components in bottom-up postorder.

    All block and function values start at Bottom.  Components are processed
    callees-first; within a component a FIFO worklist (seeded in declaration
    then block-id order) re-queues the call-site blocks of a function whose
    value rose, so mutually recursive functions converge before the component
    is folded.
    """
    graph = build_call_graph(program)
    dag = condense_sccs(graph)

    block_values: dict[tuple[str, int], int] = {}
    fn_values: dict[str, int] = {}
    for fn in program.functions.values():
        fn_values[fn.name] = RS_BOTTOM
        for bid in fn.blocks:
            block_values[(fn.name, bid)] = RS_BOTTOM

    call_sites: dict[str, list[tuple[str, int]]] = {}
    for fn in program.functions.values():
        for bid, _, ins in fn.iter_instrs():
            if ins.opcode == "call":
                site = (fn.name, bid)
                sites = call_sites.setdefault(ins.args[0], [])
                if site not in sites:
                    sites.append(site)

    fn_order = {name: i for i, name in enumerate(program.functions)}
    for comp_idx in dag.postorder:
        comp = set(dag.components[comp_idx])
        seed = [
            (name, bid)
            for name in sorted(comp, key=fn_order.get)
            for bid in program.functions[name].blocks
        ]
        work = deque(seed)
        queued = set(seed)
        while work:
            name, bid = work.popleft()
            queued.discard((name, bid))
            fn = program.functions[name]
            new = flow_block(fn.blocks[bid], heights[name], block_values[(name, bid)], fn_values)
            if new == block_values[(name, bid)]:
                continue
            block_values[(name, bid)] = new
            merged = rs_join(fn_values[name], new)
            if merged != fn_values[name]:
                fn_values[name] = merged
                for site in call_sites.get(name, ()):
                    if site[0] in comp and site not in queued:
                        work.append(site)
                        queued.add(site)
        for name in sorted(comp, key=fn_order.get):
            fn = program.functions[name]
            fn_values[name] = flow_function(
                fn, heights[name], fn_values[name], block_values, fn_values
            )
    return SafetyResult(block_values, fn_values)
