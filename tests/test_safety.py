from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from shadowlab.mir import Block, Function, Instr, Program, parse_program, sccs
from shadowlab.analysis import SAFE_STACK, TOP, UNSAFE, classify_writes, is_safe_height, stack_heights, write_class
from shadowlab.safety import (
    RS_BOTTOM,
    RS_FALSE,
    RS_TOP,
    RS_TRUE,
    calculate_ra_safety,
    rs_is_safe,
    rs_join,
)
from shadowlab.gen import GenConfig, generate_program
from shadowlab.transform import analyze_program

from conftest import assert_linear, CALL_TREE, FIXTURE_DIAMOND, FIXTURE_INLINE, MEMO_CFG


def all_heights(program):
    return {name: stack_heights(fn) for name, fn in program.functions.items()}


def all_classes(program):
    """Every store's write class, as `classify_writes` derives it from the heights."""
    return {
        name: classify_writes(fn, stack_heights(fn)) for name, fn in program.functions.items()
    }


def flow_block(block, heights, d, fn_values):
    """Join incoming value with the block's write safeties and callee values.

    A store is safe when it writes a global or a slot provably below the
    return address, decided here from the heights alone."""
    v = d
    for idx, ins in enumerate(block.instrs):
        if ins.is_store:
            safe = ins.opcode == "store.global" or is_safe_height(heights.stores[(block.bid, idx)])
            v = rs_join(v, RS_TRUE if safe else RS_FALSE)
        if ins.opcode == "call":
            v = rs_join(v, fn_values.get(ins.args[0], RS_FALSE))
        elif ins.opcode == "icall":
            v = rs_join(v, RS_FALSE)
    return v


def flow_function(fn, heights, d, block_values, fn_values):
    """Fold the function value over one application of flow_block per block."""
    v = d
    for bid, block in fn.blocks.items():
        v = rs_join(v, flow_block(block, heights, block_values[(fn.name, bid)], fn_values))
    return v


def chaotic_oracle(program, heights):
    """Independent fixpoint: re-apply the flow joins over every block and
    function until nothing changes anywhere.  It derives store safety from
    the heights itself, so agreeing with `calculate_ra_safety` also checks
    the write classes that function reads."""
    bv = {(f.name, b): RS_BOTTOM for f in program.functions.values() for b in f.blocks}
    fv = {name: RS_BOTTOM for name in program.functions}
    changed = True
    while changed:
        changed = False
        for name, fn in program.functions.items():
            for bid, block in fn.blocks.items():
                nv = flow_block(block, heights[name], bv[(name, bid)], fv)
                if nv != bv[(name, bid)]:
                    bv[(name, bid)] = nv
                    changed = True
        for name, fn in program.functions.items():
            nv = flow_function(fn, heights[name], fv[name], bv, fv)
            if nv != fv[name]:
                fv[name] = nv
                changed = True
    return bv, fv


def call_edges(program):
    """Each function's direct callees that the program defines, first call
    first, by a plain scan of every instruction."""
    succs = {name: [] for name in program.functions}
    for fn in program.functions.values():
        callees = succs[fn.name]
        for ins in (i for block in fn.blocks.values() for i in block.instrs):
            if ins.opcode == "call" and ins.args[0] in program.functions and ins.args[0] not in callees:
                callees.append(ins.args[0])
    return succs


def call_graph_sccs(program):
    """Call-graph components in `mir.sccs` emission order, members sorted."""
    order = {name: i for i, name in enumerate(program.functions)}
    return [tuple(sorted(comp, key=order.get)) for comp in sccs(program.functions, call_edges(program))]


def test_join_table():
    assert rs_join(RS_BOTTOM, RS_TRUE) == RS_TRUE
    assert rs_join(RS_TRUE, RS_FALSE) == RS_TOP
    assert rs_join(RS_FALSE, RS_BOTTOM) == RS_FALSE
    assert rs_join(RS_TOP, RS_TRUE) == RS_TOP
    assert rs_is_safe(RS_BOTTOM) and rs_is_safe(RS_TRUE)
    assert not rs_is_safe(RS_FALSE) and not rs_is_safe(RS_TOP)


def block_value(text, fn="t", bid=0):
    p = parse_program(text)
    return calculate_ra_safety(p, all_heights(p)).block_values[(fn, bid)]


def test_flow_block_no_stores_no_calls():
    assert block_value("fn t {\nb0:\n  movi r1, 5\n  ret\n}") == RS_BOTTOM


def test_flow_block_single_safe_store():
    text = "fn t {\nb0:\n  spadd -16\n  store.sp 0\n  ret\n}"
    h = stack_heights(parse_program(text).functions["t"])
    assert h.stores[(0, 1)] == -16  # is_safe holds
    assert block_value(text) == RS_TRUE


def test_flow_block_icall_tops_out_true():
    assert block_value("fn t {\nb0:\n  movi r2, 0\n  icall r2\n  ret\n}") == RS_FALSE
    # a safe store makes the block True; the indirect call then tops it out
    text = "fn t {\nb0:\n  spadd -16\n  store.sp 0\n  movi r2, 0\n  icall r2\n  ret\n}"
    assert block_value(text) == RS_TOP


def test_flow_block_joins_callee_values():
    caller = "fn t {\nb0:\n  call u\n  ret\n}\n"
    unsafe_u = "fn u {\nb0:\n  movi r9, 320\n  store.reg r9\n  ret\n}"
    safe_u = "fn u {\nb0:\n  spadd -16\n  store.sp 0\n  ret\n}"
    assert block_value(caller + unsafe_u) == RS_FALSE
    assert block_value(caller + safe_u) == RS_TRUE


def test_condense_call_tree(call_tree):
    components = call_graph_sccs(call_tree)
    assert len(components) == 6
    order = {comp[0]: i for i, comp in enumerate(components)}
    # callees precede callers
    assert order["d"] < order["b"] and order["e"] < order["b"]
    assert order["f"] < order["c"]
    assert order["b"] < order["a"] and order["c"] < order["a"]


def test_condense_mutual_recursion_single_component():
    p = parse_program("fn f {\nb0:\n  call g\n  ret\n}\nfn g {\nb0:\n  call f\n  ret\n}")
    assert call_graph_sccs(p) == [("f", "g")]


def test_condense_single_function():
    assert call_graph_sccs(parse_program("fn main { b0: halt }")) == [("main",)]


def test_call_tree_verdicts(call_tree):
    s = calculate_ra_safety(call_tree, all_heights(call_tree))
    assert {n: s.ra_safe_fn(n) for n in call_tree.functions} == {
        "a": False,
        "b": True,
        "c": False,  # unsafe purely via its call to f
        "d": True,
        "e": True,
        "f": False,
    }


def test_call_tree_c_unsafe_only_by_propagation(call_tree):
    assert UNSAFE not in all_classes(call_tree)["c"].values()
    s = calculate_ra_safety(call_tree, all_heights(call_tree))
    assert not s.ra_safe_fn("c")


def test_global_only_function_is_safe():
    p = parse_program("fn t {\nb0:\n  store.global g\n  ret\n}")
    s = calculate_ra_safety(p, all_heights(p))
    assert s.ra_safe_fn("t")


def test_self_recursion_with_safe_store_is_safe():
    p = parse_program(
        "fn r {\nb0:\n  spadd -16\n  brc b1, b2\nb1:\n  call r\n  br b2\nb2:\n  store.sp 0\n  ret\n}"
    )
    s = calculate_ra_safety(p, all_heights(p))
    assert s.ra_safe_fn("r")
    assert (chaotic_oracle(p, all_heights(p))[1]) == s.fn_values


def test_call_outside_the_program_is_unsafe():
    # a direct call to a function the program does not define joins False
    p = Program({"main": Function("main", {0: Block(0, (Instr("call", ("ghost",)), Instr("ret")))})})
    s = analyze_program(p).safety
    assert not s.ra_safe_fn("main")
    assert not s.ra_safe_block("main", 0)


def test_icall_makes_function_and_block_unsafe():
    p = parse_program("fn t {\nb0:\n  movi r2, 0\n  icall r2\n  ret\n}")
    s = calculate_ra_safety(p, all_heights(p))
    assert not s.ra_safe_fn("t")
    assert not s.ra_safe_block("t", 0)


def test_external_json_dump_shape(call_tree):
    s = calculate_ra_safety(call_tree, all_heights(call_tree))
    dump = s.to_json()
    assert dump["functions"]["b"] == "safe"
    assert dump["functions"]["c"] == "unsafe"
    assert dump["blocks"]["a.b0"] == "unsafe"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_oracle_equivalence(seed):
    cfg = GenConfig(max_functions=12)
    p = generate_program(seed, cfg, adversarial=seed % 3 == 0)
    s = calculate_ra_safety(p, all_heights(p))
    bv, fv = chaotic_oracle(p, all_heights(p))
    assert s.block_values == bv
    assert s.fn_values == fv


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_call_chain_contamination(seed):
    # unsafety propagates to every function that reaches it through calls
    p = generate_program(seed, GenConfig(), adversarial=False)
    s = calculate_ra_safety(p, all_heights(p))
    succs = call_edges(p)
    for start in p.functions:
        reach, work = set(), [start]
        while work:
            n = work.pop()
            for m in succs.get(n, ()):
                if m not in reach:
                    reach.add(m)
                    work.append(m)
        if any(not s.ra_safe_fn(callee) for callee in reach):
            assert not s.ra_safe_fn(start)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_monotone_degradation(seed):
    # degrading one provably-safe store to Top never makes a verdict safer
    p = generate_program(seed, GenConfig(), adversarial=False)
    heights = all_heights(p)
    before = calculate_ra_safety(p, heights)
    flip = None
    for name in p.functions:
        for site, h in sorted(heights[name].stores.items()):
            if write_class(h) == SAFE_STACK:
                flip = (name, site)
                break
        if flip:
            break
    if flip is None:
        return
    name, site = flip
    heights[name].stores[site] = TOP
    after = calculate_ra_safety(p, heights)
    for fn_name in p.functions:
        if not before.ra_safe_fn(fn_name):
            assert not after.ra_safe_fn(fn_name)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_result_is_a_fixpoint(seed):
    # re-applying either flow function to the result reproduces it exactly
    p = generate_program(seed, GenConfig(), adversarial=False)
    heights = all_heights(p)
    s = calculate_ra_safety(p, all_heights(p))
    for name, fn in p.functions.items():
        for bid, block in fn.blocks.items():
            assert flow_block(block, heights[name], s.block_values[(name, bid)], s.fn_values) == s.block_values[(name, bid)]
        assert (
            flow_function(fn, heights[name], s.fn_values[name], s.block_values, s.fn_values)
            == s.fn_values[name]
        )


def test_fold_is_linear_in_distinct_callees():
    # n one-block leaves, each called once by one block that calls them all
    # and once by a block of its own in a chain: the fold dedupes each
    # block's callees and each function's call-graph successors in order
    def prepare(n):
        names = [f"l{i}" for i in range(n)]
        ret = Block(0, (Instr("ret"),))
        chain = {i: Block(i, (Instr("call", (c,)), Instr("br", (i + 1,)))) for i, c in enumerate(names)}
        functions = {
            "one": Function("one", {0: Block(0, tuple(Instr("call", (c,)) for c in names) + (Instr("ret"),))}),
            "chain": Function("chain", {**chain, n: Block(n, (Instr("ret"),))}),
        }
        functions.update((c, Function(c, {0: ret})) for c in names)
        p = Program(functions, entry="one")
        heights = all_heights(p)
        return {"calculate_ra_safety": lambda: calculate_ra_safety(p, heights)}

    assert_linear(prepare)


def reference_ra_safety(program, classes):
    """The FIFO worklist over call-graph components that the one-pass fold
    replaced, kept as its oracle.  Within each component, callees first, a
    worklist seeded with its functions' blocks in declaration order joins each
    block's own value with its callees' values, and re-queues the call-site
    blocks of a function whose value rose."""
    own, callees, call_sites = {}, {}, {}
    succs = {}
    for name, fn in program.functions.items():
        fn_succs = succs[name] = []
        for bid, block in fn.blocks.items():
            site = (name, bid)
            v = RS_BOTTOM
            called = []
            for idx, ins in enumerate(block.instrs):
                if ins.is_store:
                    v = rs_join(v, RS_FALSE if classes[name][(bid, idx)] == UNSAFE else RS_TRUE)
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
    for comp in sccs(program.functions, succs):
        members = set(comp)
        work = deque(
            (name, bid) for name in sorted(comp, key=order.get) for bid in program.functions[name].blocks
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
    return block_values, fn_values


def assert_matches_reference(program):
    """Four-valued equality with the worklist, dict order included."""
    s = calculate_ra_safety(program, all_heights(program))
    bv, fv = reference_ra_safety(program, all_classes(program))
    assert list(s.block_values.items()) == list(bv.items())
    assert list(s.fn_values.items()) == list(fv.items())
    return s


# a block body per own value: none, a safe store, an unsafe store
OWN_BODY = {
    RS_BOTTOM: "  movi r1, 1\n",
    RS_TRUE: "  spadd -16\n  store.sp 0\n  spadd 16\n",
    RS_FALSE: "  movi r9, 320\n  store.reg r9\n",
}


def ring(owns):
    """A call ring f0 -> f1 -> ... -> f0, fi's first block with own value
    owns[i]; `main` calls f0."""
    n = len(owns)
    fns = ["fn main {\nb0:\n  call f0\n  halt\n}"]
    for i, own in enumerate(owns):
        fns.append(
            f"fn f{i} {{\nb0:\n{OWN_BODY[own]}  brc b1, b2\nb1:\n  call f{(i + 1) % n}\n  br b2\nb2:\n  ret\n}}"
        )
    return parse_program("#entry main\n\n" + "\n\n".join(fns))


@pytest.mark.parametrize(
    "owns, expected",
    [
        ((RS_BOTTOM,) * 60, RS_BOTTOM),
        (tuple((RS_BOTTOM, RS_TRUE)[i % 2] for i in range(60)), RS_TRUE),
        (tuple((RS_BOTTOM, RS_TRUE, RS_FALSE)[i % 3] for i in range(60)), RS_TOP),
        ((RS_TRUE,) * 59 + (RS_FALSE,), RS_TOP),
        ((RS_BOTTOM,) * 52 + (RS_FALSE,), RS_FALSE),
    ],
    ids=["bottom", "bottom-true", "bottom-true-false", "one-false", "bottom-false"],
)
def test_ring_folds_like_the_worklist(owns, expected):
    p = ring(owns)
    s = assert_matches_reference(p)
    assert {s.fn_values[f"f{i}"] for i in range(len(owns))} == {expected}
    assert s.fn_values["main"] == expected
    # each block: its own value joined with its callees' values
    assert s.block_values[("f0", 1)] == expected
    assert s.block_values[("f0", 2)] == RS_BOTTOM


def test_component_calling_outside_the_program():
    # f and g call each other and g calls `ghost`, which the program does not
    # define (the parser refuses such a call, so the block is built directly)
    p = ring((RS_TRUE, RS_BOTTOM))
    f = Block(0, (Instr("spadd", (-16,)), Instr("store.sp", (0,)), Instr("call", ("g",)), Instr("ret")))
    g = Block(0, (Instr("call", ("ghost",)), Instr("call", ("f",)), Instr("ret")))
    p = Program({**p.functions, "f": Function("f", {0: f}), "g": Function("g", {0: g})}, entry="main")
    s = assert_matches_reference(p)
    assert s.fn_values["f"] == s.fn_values["g"] == RS_TOP
    assert s.block_values[("g", 0)] == RS_TOP
    assert s.fn_values["f0"] == s.fn_values["f1"] == s.fn_values["main"] == RS_TRUE


def test_self_recursion_folds_like_the_worklist():
    safe = "fn r {\nb0:\n  spadd -16\n  brc b1, b2\nb1:\n  call r\n  br b2\nb2:\n  store.sp 0\n  ret\n}"
    unsafe = "fn r {\nb0:\n  brc b1, b2\nb1:\n  call r\n  br b2\nb2:\n  movi r9, 320\n  store.reg r9\n  ret\n}"
    for text, expected in ((safe, RS_TRUE), (unsafe, RS_FALSE)):
        s = assert_matches_reference(parse_program(text))
        assert s.fn_values["r"] == s.block_values[("r", 1)] == expected


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
@example(CALL_TREE)
@example(MEMO_CFG)
@example(FIXTURE_INLINE)
@example(FIXTURE_DIAMOND)
def test_fold_matches_worklist_reference(source):
    if isinstance(source, str):
        assert_matches_reference(parse_program(source))
    else:
        cfg = GenConfig(max_functions=3 + source % 20)
        assert_matches_reference(generate_program(source, cfg, adversarial=source % 3 == 0))
