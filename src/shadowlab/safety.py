"""Return-address safety: one bottom-up fold over the call graph's components.

The value lattice is flat over {True, False}: Bottom below both, Top above.
A block's value joins the safety of each of its stores with the values of
its direct call targets.  A store's safety is read from its height through
`analysis.write_class`: True unless its class is UNSAFE (a write that may
reach a return-address slot).  A block containing an indirect call, or a
direct call to a function outside the program, joins False, since those
targets cannot be trusted.  A function's value joins its blocks' values.
Every value is a join, so the least fixpoint needs no iteration: one pass over
the call graph's strongly connected components, callees first (`mir.sccs`),
gives every member of a component the join of everything the component
reaches.  A function or block is considered safe when its value is Bottom or
True.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .mir import Program, sccs
from .analysis import Heights, UNSAFE, write_class

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


def calculate_ra_safety(program: Program, heights: Mapping[str, Heights]) -> SafetyResult:
    """One fold over the call graph's components, callees first.

    One scan per block records its own value (the join of its stores'
    safety from `heights`, False for an indirect call and False for a
    direct call outside the program) and its direct callees in the program,
    once each in first-call order: the call graph's edges.  Every value is a
    join, so the least fixpoint gives all members of a component one value:
    the join of their blocks' own values and of the values of the callees
    outside the component, which Tarjan's order has already folded.  A
    block's value is its own value joined with its callees' values.
    """
    own: dict[tuple[str, int], int] = {}
    callees: dict[tuple[str, int], dict[str, None]] = {}
    succs: dict[str, dict[str, None]] = {}    # callees in the program, first call first
    for name, fn in program.functions.items():
        stores = heights[name].stores
        fn_succs = succs[name] = {}
        for bid, block in fn.blocks.items():
            v = RS_BOTTOM
            called: dict[str, None] = {}
            for idx, ins in enumerate(block.instrs):
                if ins.is_store:
                    v = rs_join(v, RS_FALSE if write_class(stores.get((bid, idx))) == UNSAFE else RS_TRUE)
                elif ins.opcode == "call" and ins.args[0] in program.functions:
                    called[ins.args[0]] = None
                elif ins.opcode in ("call", "icall"):
                    v = rs_join(v, RS_FALSE)
            own[(name, bid)] = v
            callees[(name, bid)] = called
            fn_succs.update(called)

    fn_values = dict.fromkeys(program.functions, RS_BOTTOM)

    def value(site: tuple[str, int]) -> int:
        v = own[site]
        for callee in callees[site]:
            v = rs_join(v, fn_values[callee])
        return v

    for comp in sccs(program.functions, succs):
        # a callee inside the component still reads Bottom, the join's identity
        v = RS_BOTTOM
        for name in comp:
            for bid in program.functions[name].blocks:
                v = rs_join(v, value((name, bid)))
        for name in comp:
            fn_values[name] = v
    return SafetyResult({site: value(site) for site in own}, fn_values)
