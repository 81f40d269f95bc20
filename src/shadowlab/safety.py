"""Return-address safety: the bottom-up worklist fixpoint over the call graph.

The value lattice is flat over {True, False}: Bottom below both, Top above.
A block's value joins the safety of each of its stores with the values of
its direct call targets.  A store's safety is read from the write classes of
`analysis.classify_writes`: True unless its class is UNSAFE (a write that may
reach a return-address slot).  A block containing an indirect call joins
False, since indirect call targets cannot be trusted.  A function or block
is considered safe when its fixpoint value is Bottom or True.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .mir import Program, sccs
from .analysis import UNSAFE

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


def calculate_ra_safety(
    program: Program, classes: Mapping[str, Mapping[tuple[int, int], str]]
) -> SafetyResult:
    """Worklist fixpoint over call-graph components, callees first.

    One scan per block, before the fixpoint, records the block's own value
    (the join of its stores' safety and False for an indirect call) and its
    direct callees; the callees that the program defines are the call
    graph's edges, and one outside it joins False.  All block and function
    values start at Bottom.  Within a component a FIFO worklist (seeded with
    its functions' blocks in declaration order) joins each block's own value
    with its callees' values and re-queues the call-site blocks of a
    function whose value rose, so mutually recursive functions converge
    together.
    """
    own: dict[tuple[str, int], int] = {}
    callees: dict[tuple[str, int], list[str]] = {}
    call_sites: dict[str, list[tuple[str, int]]] = {}
    succs: dict[str, list[str]] = {}    # callees in the program, first call first
    for name, fn in program.functions.items():
        fn_classes = classes[name]
        fn_succs = succs[name] = []
        for bid, block in fn.blocks.items():
            site = (name, bid)
            v = RS_BOTTOM
            called: list[str] = []
            for idx, ins in enumerate(block.instrs):
                if ins.is_store:
                    v = rs_join(v, RS_FALSE if fn_classes[(bid, idx)] == UNSAFE else RS_TRUE)
                elif ins.opcode == "call":
                    callee = ins.args[0]
                    if callee not in called:
                        called.append(callee)
                        call_sites.setdefault(callee, []).append(site)
                elif ins.opcode == "icall":
                    v = rs_join(v, RS_FALSE)
            own[site] = v
            callees[site] = called
            fn_succs += [c for c in called if c in program.functions and c not in fn_succs]

    order = {name: i for i, name in enumerate(program.functions)}
    block_values = dict.fromkeys(own, RS_BOTTOM)
    fn_values = dict.fromkeys(program.functions, RS_BOTTOM)
    # Tarjan emits a component only after everything reachable from it.
    for comp in sccs(program.functions, succs):
        members = set(comp)
        work = deque(
            (name, bid)
            for name in sorted(comp, key=order.get)
            for bid in program.functions[name].blocks
        )
        queued = set(work)
        while work:
            site = work.popleft()
            queued.discard(site)
            new = own[site]
            for callee in callees[site]:
                new = rs_join(new, fn_values.get(callee, RS_FALSE))
            if new == block_values[site]:
                continue
            block_values[site] = new
            name = site[0]
            merged = rs_join(fn_values[name], new)
            if merged != fn_values[name]:
                fn_values[name] = merged
                for caller in call_sites.get(name, ()):
                    if caller[0] in members and caller not in queued:
                        work.append(caller)
                        queued.add(caller)
    return SafetyResult(block_values, fn_values)
