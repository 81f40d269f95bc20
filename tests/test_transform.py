import dataclasses
import hashlib
import importlib.util
import itertools
import json
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from shadowlab.mir import (
    OPERAND_SHAPES, SHADOW_OPCODES, TERMINATORS, Block, Function, Instr, Program, parse_program, print_program, sccs,
    validate_program,
)
from shadowlab.transform import (
    COST_POP,
    COST_PUSH,
    COST_PUSH_CHASED,
    COST_RF_POP,
    COST_RF_PUSH,
    COST_TRANSITION_EDGE,
    FN_ELIDED,
    FN_FULL,
    FN_LOWERED,
    FN_REGFRAME,
    MODES,
    PATH_COUNT_CAP,
    TRANSITION_BASE,
    CheckMappingError,
    FunctionPlan,
    InstrumentedProgram,
    PlanError,
    ResolvedFunction,
    ShadowOp,
    analyze_program,
    apply_plan,
    check_rewrites,
    count_safe_paths,
    find_free_register,
    inline_eligible,
    lower_instrumentation,
    plan_program,
    resolve_mode,
    strip_instrumentation,
)
from shadowlab.analysis import join_height, write_class
from shadowlab.shadowvm import ExecInput, build_checks, compile, execute, observables
from shadowlab.gen import GenConfig, generate_corpus, generate_program

from conftest import assert_linear, CALL_TREE, DEEP_CHAIN, FIXTURE_CHASE, FIXTURE_DIAMOND, FIXTURE_INLINE, FIXTURE_REGFRAME, MEMO_CFG


def planned(program):
    analysis, plan = plan_program(program)
    return analysis, plan


def sfe_instrumented(plan):
    """The functions the SFE policy leaves instrumented."""
    return {n for n, fp in plan.per_function.items() if resolve_mode(fp, "SFE") != FN_ELIDED}


def test_elision_call_tree(call_tree):
    _, plan = planned(call_tree)
    assert sfe_instrumented(plan) == {"a", "c", "f"}


def test_elision_all_safe_program():
    p = parse_program("fn main {\nb0:\n  store.global g\n  halt\n}")
    _, plan = planned(p)
    assert sfe_instrumented(plan) == set()


def test_elision_icall_main():
    p = parse_program("fn main {\nb0:\n  movi r1, 0\n  icall r1\n  halt\n}")
    _, plan = planned(p)
    assert "main" in sfe_instrumented(plan)


def test_safe_paths_memo_cfg(memo_cfg):
    analysis, _ = planned(memo_cfg)
    assert count_safe_paths(memo_cfg.functions["memo"], analysis.safety) == 2


def test_safe_paths_unsafe_entry():
    p = parse_program("fn t {\nb0:\n  movi r9, 256\n  store.reg r9\n  ret\n}")
    analysis, _ = planned(p)
    assert count_safe_paths(p.functions["t"], analysis.safety) == 0


def test_safe_paths_straight_line():
    p = parse_program("fn t {\nb0:\n  spadd -16\n  store.sp 0\n  ret\n}")
    analysis, _ = planned(p)
    assert count_safe_paths(p.functions["t"], analysis.safety) == 1


def test_safe_paths_saturate_at_cap():
    # 17 chained diamonds: 2^17 paths saturate at the 2^16 cap
    blocks = {}
    n = 17
    for i in range(n):
        base = 3 * i
        blocks[base] = Block(base, (Instr("brc", (base + 1, base + 2)),))
        blocks[base + 1] = Block(base + 1, (Instr("br", (base + 3,)),))
        blocks[base + 2] = Block(base + 2, (Instr("br", (base + 3,)),))
    blocks[3 * n] = Block(3 * n, (Instr("ret"),))
    p = Program({"wide": Function("wide", blocks)}, entry="wide")
    assert validate_program(p) == []
    analysis, _ = planned(p)
    assert count_safe_paths(p.functions["wide"], analysis.safety) == 1 << 16


# a lowered function whose clone exits by halt, not ret
HALTING_MAIN = "fn main {\nb0:\n  brc b1, b2\nb1:\n  movi r9, 256\n  store.reg r9\n  halt\nb2:\n  halt\n}"


def reference_safe_paths(fn, safety):
    """The forward dynamic program over the condensed safe CFG that the
    one-pass fold replaced, kept as its oracle: path counts flow from the
    entry's component through a component-edge table in topological order,
    and each component holding an exit adds its count to the total."""
    safe = [bid for bid in fn.blocks if safety.ra_safe_block(fn.name, bid)]
    if fn.entry_block not in safe:
        return 0
    safe_set = set(safe)
    succs = {bid: sorted(s for s in fn.blocks[bid].successors if s in safe_set) for bid in safe}
    components = [tuple(sorted(comp)) for comp in sccs(sorted(safe), succs)]
    comp_of = {bid: cid for cid, comp in enumerate(components) for bid in comp}
    comp_succs = {i: set() for i in range(len(components))}
    for bid in safe:
        for s in succs[bid]:
            if comp_of[bid] != comp_of[s]:
                comp_succs[comp_of[bid]].add(comp_of[s])
    exits = set(fn.exit_blocks)
    ways = [0] * len(components)
    ways[comp_of[fn.entry_block]] = 1
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


def paths_and_reference(text, name="t"):
    p = parse_program(text)
    analysis, _ = planned(p)
    fn = p.functions[name]
    return count_safe_paths(fn, analysis.safety), reference_safe_paths(fn, analysis.safety)


UNSAFE_STORE = "  movi r9, 256\n  store.reg r9\n"


@pytest.mark.parametrize(
    "text, expected",
    [
        # one block
        ("fn t {\nb0:\n  ret\n}", 1),
        ("fn t {\nb0:\n  movi r1, 3\n  halt\n}", 1),
        # a two-block loop and a self-loop collapse: one path each
        ("fn t {\nb0:\n  br b1\nb1:\n  brc b2, b3\nb2:\n  br b1\nb3:\n  ret\n}", 1),
        ("fn t {\nb0:\n  brc b0, b1\nb1:\n  ret\n}", 1),
        # a loop with two ways around it still counts its two ways out once each
        ("fn t {\nb0:\n  brc b1, b2\nb1:\n  brc b0, b3\nb2:\n  brc b0, b3\nb3:\n  ret\n}", 1),
        ("fn t {\nb0:\n  brc b1, b2\nb1:\n  br b3\nb2:\n  brc b0, b4\nb3:\n  ret\nb4:\n  ret\n}", 2),
        # the safe exit b2 is reachable only through the unsafe b1
        (f"fn t {{\nb0:\n  br b1\nb1:\n{UNSAFE_STORE}  br b2\nb2:\n  ret\n}}", 0),
        (f"fn t {{\nb0:\n  brc b1, b3\nb1:\n{UNSAFE_STORE}  br b2\nb2:\n  ret\nb3:\n  br b3\n}}", 0),
        # an exit inside a loop, and one after it
        ("fn t {\nb0:\n  br b1\nb1:\n  brc b2, b3\nb2:\n  brc b1, b4\nb3:\n  ret\nb4:\n  ret\n}", 2),
    ],
)
def test_safe_paths_match_forward_reference(text, expected):
    assert paths_and_reference(text) == (expected, expected)


def test_safe_paths_saturation_matches_reference():
    # 20 chained diamonds behind a loop: 2^20 paths saturate at the cap
    lines = ["fn t {", "b0:", "  brc b0, b1"]
    for i in range(20):
        b = 3 * i + 1
        lines += [f"b{b}:", f"  brc b{b + 1}, b{b + 2}", f"b{b + 1}:", f"  br b{b + 3}", f"b{b + 2}:", f"  br b{b + 3}"]
    lines += [f"b{3 * 20 + 1}:", "  ret", "}"]
    assert paths_and_reference("\n".join(lines)) == (PATH_COUNT_CAP, PATH_COUNT_CAP)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
@example(CALL_TREE)
@example(MEMO_CFG)
@example(FIXTURE_DIAMOND)
@example(DEEP_CHAIN)
@example(HALTING_MAIN)
def test_safe_paths_match_forward_reference_on_generated(source):
    if isinstance(source, str):
        program = parse_program(source)
    else:
        program = generate_program(source, GenConfig(loop_prob=0.5), adversarial=source % 2 == 0)
    analysis, _ = planned(program)
    for fn in program.functions.values():
        assert count_safe_paths(fn, analysis.safety) == reference_safe_paths(fn, analysis.safety), fn.name


def test_lowering_memo_cfg_structure(memo_cfg):
    analysis, _ = planned(memo_cfg)
    fn = memo_cfg.functions["memo"]
    low = lower_instrumentation(fn, analysis.safety, analysis.heights["memo"])
    assert low.transition_edges == ((3, 4),)
    assert low.push_heights == {(3, 4): -16}
    assert low.kept_originals == (1, 2, 3, 5, 6)
    assert low.cloned == (2, 3, 4, 5, 6, 7)


def reference_reachability(fn, transition_edges):
    """Reachability over the lowered graph itself, the oracle for the sets
    lowering reads off its one walk.  From the entry block, an original block
    branches to the clone of a transition edge's target and to the original of
    any other successor, and a clone branches to clones.  Returns the reachable
    originals, the originals whose clones are reachable, and those clones'
    exits, each in block order."""
    tset = set(transition_edges)

    def final_succs(node):
        is_clone, bid = node
        return [(is_clone or (bid, s) in tset, s) for s in fn.blocks[bid].successors]

    seen = set()
    work = [(False, fn.entry_block)]
    while work:
        node = work.pop()
        if node not in seen:
            seen.add(node)
            work.extend(final_succs(node))
    originals = tuple(bid for bid in fn.blocks if (False, bid) in seen)
    cloned = tuple(bid for bid in fn.blocks if (True, bid) in seen)
    exits = tuple(bid for bid in cloned if fn.blocks[bid].terminator.opcode in ("ret", "halt"))
    return originals, cloned, exits


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
@example(MEMO_CFG)
@example(FIXTURE_DIAMOND)
@example(DEEP_CHAIN)
@example(HALTING_MAIN)
def test_lowering_matches_two_walk_reference(source):
    if isinstance(source, str):
        program = parse_program(source)
    else:
        program = generate_program(source, GenConfig(), adversarial=source % 2 == 0)
    _, plan = planned(program)
    lowered = [name for name, fp in plan.per_function.items() if fp.lowered is not None]
    assert lowered or not isinstance(source, str)
    ip = apply_plan(program, plan, "PO")
    for name in lowered:
        fn, low, rf = program.functions[name], plan.per_function[name].lowered, ip.functions[name]
        originals, cloned, exits = reference_reachability(fn, low.transition_edges)
        assert low.kept_originals == originals
        assert low.cloned == cloned
        pops = tuple(op.site for op in rf.shadow_ops if op.kind == "pop")
        assert pops == tuple(("exit", low.clone_map[bid]) for bid in exits)
        kept = {*originals, *(low.clone_map[bid] for bid in cloned), *rf.transition_blocks}
        assert set(ip.program.functions[name].blocks) == kept


def test_lowering_applied_memo_cfg(memo_cfg):
    _, plan = planned(memo_cfg)
    ip = apply_plan(memo_cfg, plan, "PO")
    rf = ip.functions["memo"]
    assert rf.mode == FN_LOWERED
    pushes = [op for op in rf.shadow_ops if op.kind == "push"]
    pops = [op for op in rf.shadow_ops if op.kind == "pop"]
    assert [op.site for op in pushes] == [("edge", 3, 4)]
    assert pushes[0].transition and pushes[0].entry_height == -16
    assert {op.site for op in pops} == {("exit", 1006), ("exit", 1007)}
    memo_fn = ip.program.functions["memo"]
    # original blocks carry no shadow instructions
    for bid in (1, 2, 3, 5, 6):
        assert all(i.opcode not in ("spush", "spop") for i in memo_fn.blocks[bid].instrs)
    assert validate_program(ip.program, allow_shadow=True) == []


def test_lowering_two_parallel_unsafe_branches(fixture_diamond):
    analysis, plan = planned(fixture_diamond)
    fn = fixture_diamond.functions["main"]
    low = lower_instrumentation(fn, analysis.safety, analysis.heights["main"])
    assert low.transition_edges == ((1, 2), (1, 3))
    ip = apply_plan(fixture_diamond, plan, "PO")
    assert ip.functions["main"].mode == FN_LOWERED
    # one push on either path, counted from traces
    for decisions in [(True, True), (True, False)]:
        trace, outcome = execute(ip, ExecInput(decisions), 1000, record=True)
        assert outcome.kind == "completed"
        assert sum(1 for e in trace.log if e[0] == "push") == 1
        assert sum(1 for e in trace.log if e[0] == "pop") == 1
    trace, outcome = execute(ip, ExecInput((False,)), 1000)
    assert trace.shadow_ops == 0


def test_lowering_deep_chain():
    p = parse_program(DEEP_CHAIN)
    _, plan = planned(p)
    assert plan.per_function["f"].lowered.transition_edges == ((997, 998),)


def test_lowering_unsafe_entry_falls_back():
    p = parse_program(
        "#entry main\nfn main {\nb0:\n  spadd -16\n  call t\n  ret\n}\n"
        "fn t {\nb0:\n  movi r9, 256\n  store.reg r9\n  brc b1, b2\nb1:\n  ret\nb2:\n  ret\n}"
    )
    analysis, plan = planned(p)
    assert lower_instrumentation(p.functions["t"], analysis.safety, analysis.heights["t"]) is None
    ip = apply_plan(p, plan, "PO")
    assert ip.functions["t"].mode == FN_FULL


def test_lowering_unknown_height_falls_back():
    # safe path exists but the unsafe block's entry height is unknown
    p = parse_program(
        "fn t {\nb0:\n  brc b1, b3\nb1:\n  spadd -8\n  brc b1, b2\nb2:\n  movi r9, 256\n  store.reg r9\n  br b3\nb3:\n  ret\n}"
    )
    analysis, plan = planned(p)
    assert count_safe_paths(p.functions["t"], analysis.safety) >= 1
    assert lower_instrumentation(p.functions["t"], analysis.safety, analysis.heights["t"]) is None
    ip = apply_plan(p, plan, "PO")
    assert ip.functions["t"].mode == FN_FULL


def test_free_register_lowest_unreferenced(fixture_regframe):
    assert find_free_register(fixture_regframe.functions["rleaf"]) == 9
    # a call may read any register, so nothing is free in a caller
    assert find_free_register(fixture_regframe.functions["main"]) is None


def test_regframe_selection_and_costs(fixture_regframe):
    _, plan = planned(fixture_regframe)
    ip = apply_plan(fixture_regframe, plan, "LIGHT")
    rf = ip.functions["rleaf"]
    assert rf.mode == FN_REGFRAME
    kinds = {op.kind: op for op in rf.shadow_ops}
    assert kinds["rfpush"].reg == 9 and kinds["rfpush"].cost == COST_RF_PUSH == (2, 2)
    assert kinds["rfpop"].reg == 9 and kinds["rfpop"].cost == COST_RF_POP == (3, 1)


def test_regframe_only_for_leaves(fixture_chase):
    _, plan = planned(fixture_chase)
    ip = apply_plan(fixture_chase, plan, "LIGHT")
    assert ip.functions["chasefn"].mode == FN_FULL  # has a call, not a leaf


def test_chase_shifts_past_saves(fixture_chase):
    _, plan = planned(fixture_chase)
    fp = plan.per_function["chasefn"]
    assert fp.entry_chase == (2, -16)
    ip = apply_plan(fixture_chase, plan, "LIGHT")
    push = [op for op in ip.functions["chasefn"].shadow_ops if op.kind == "push"][0]
    assert push.site == ("instr", 0, 2)
    assert push.chased and push.cost == COST_PUSH_CHASED == (5, 4)
    assert push.entry_height == -16
    trace, outcome = execute(ip, ExecInput(), 1000)
    assert outcome.kind == "completed"


def test_chase_only_in_mechanism_modes(fixture_chase):
    _, plan = planned(fixture_chase)
    for mode in ("FULL", "SFE", "PO"):
        ip = apply_plan(fixture_chase, plan, mode)
        push = [op for op in ip.functions["chasefn"].shadow_ops if op.kind == "push"][0]
        assert not push.chased and push.cost == COST_PUSH == (9, 6)


def test_chase_blocked_by_unsafe_store():
    p = parse_program(
        "#entry main\nfn main {\nb0:\n  movi r9, 256\n  store.reg r9\n  call u\n  movi r1, 1\n  movi r2, 2\n  halt\n}\n"
        "fn u { b0: ret }"
    )
    _, plan = planned(p)
    assert plan.per_function["main"].entry_chase is None


def test_inline_eligibility(fixture_inline):
    assert inline_eligible(fixture_inline.functions["id"])
    two_block = parse_program("fn t {\nb0:\n  br b1\nb1:\n  ret\n}").functions["t"]
    assert not inline_eligible(two_block)
    with_call = parse_program("fn t {\nb0:\n  call u\n  ret\n}\nfn u { b0: ret }").functions["t"]
    assert not inline_eligible(with_call)
    sp_body = parse_program("fn t {\nb0:\n  spadd -8\n  ret\n}").functions["t"]
    assert not inline_eligible(sp_body)
    halts = parse_program("fn t { b0: halt }").functions["t"]
    assert not inline_eligible(halts)


def test_inline_splice_and_equivalence(fixture_inline):
    _, plan = planned(fixture_inline)
    ip = apply_plan(fixture_inline, plan, "LIGHT")
    main = ip.program.functions["main"]
    rendered = [i.render() for i in main.blocks[0].instrs]
    assert "movr r0, r1" in rendered and "call id" not in rendered
    assert ip.functions["main"].inlined_calls == ((0, 1, "id"),)
    # the callee keeps its own plan for indirect entries
    assert "id" in ip.program.functions
    base = observables(*execute(fixture_inline, ExecInput(), 1000))
    inlined = observables(*execute(ip, ExecInput(), 1000))
    assert base == inlined == ("completed", 41, (("out", 41),))


def test_unsafe_inlinee_stays_instrumented():
    p = parse_program(
        "#entry main\nfn main {\nb0:\n  call tiny\n  halt\n}\n"
        "fn tiny {\nb0:\n  movi r3, 256\n  store.reg r3\n  ret\n}"
    )
    _, plan = planned(p)
    ip = apply_plan(p, plan, "LIGHT")
    assert ip.functions["main"].inlined_calls == ((0, 0, "tiny"),)
    assert ip.functions["tiny"].mode in (FN_FULL, FN_REGFRAME)
    ops = {i.opcode for i in ip.program.functions["tiny"].blocks[0].instrs}
    assert ops & {"spush", "rfpush"}


def test_apply_full_call_tree(call_tree):
    _, plan = planned(call_tree)
    ip = apply_plan(call_tree, plan, "FULL")
    for name, fn in ip.program.functions.items():
        assert ip.functions[name].mode == FN_FULL
        entry = fn.blocks[fn.entry_block]
        assert entry.instrs[0].opcode == "spush"
        for bid in fn.exit_blocks:
            assert fn.blocks[bid].instrs[-2].opcode == "spop"


def test_apply_sfe_call_tree(call_tree):
    _, plan = planned(call_tree)
    ip = apply_plan(call_tree, plan, "SFE")
    modes = {n: ip.functions[n].mode for n in call_tree.functions}
    assert modes == {
        "a": FN_FULL,
        "b": FN_ELIDED,
        "c": FN_FULL,
        "d": FN_ELIDED,
        "e": FN_ELIDED,
        "f": FN_FULL,
    }
    for name in ("b", "d", "e"):
        body = {i.opcode for b in ip.program.functions[name].blocks.values() for i in b.instrs}
        assert not body & {"spush", "spop"}


def test_elide_all_mode(call_tree):
    _, plan = planned(call_tree)
    ip = apply_plan(call_tree, plan, "ELIDE-ALL")
    assert all(rf.mode == FN_ELIDED for rf in ip.functions.values())
    assert ip.program == call_tree


def test_mode_ladder_resolution(memo_cfg):
    _, plan = planned(memo_cfg)
    fp = plan.per_function["memo"]
    assert resolve_mode(fp, "FULL") == FN_FULL
    assert resolve_mode(fp, "SFE") == FN_FULL
    assert resolve_mode(fp, "PO") == FN_LOWERED
    assert resolve_mode(fp, "LIGHT") == FN_LOWERED
    assert resolve_mode(fp, "ELIDE-ALL") == FN_ELIDED


# the mode ladder as an if-chain, as `resolve_mode` was written before the
# mode table: the oracle for the table
def reference_resolve_mode(plan, mode):
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
        if plan.free_reg is not None:
            return FN_REGFRAME
        return FN_FULL
    if mode == "LIGHT":
        if plan.ra_safe:
            return FN_ELIDED
        if plan.lowered is not None:
            return FN_LOWERED
        if plan.free_reg is not None:
            return FN_REGFRAME
        return FN_FULL
    raise PlanError(f"unknown mode '{mode}'")

def test_mode_table_matches_if_chain():
    # a function that is not a leaf has no free register
    for ra_safe, lowered, free_reg in itertools.product((False, True), (None, object()), (None, 3)):
        fp = FunctionPlan(ra_safe, 1, lowered=lowered, free_reg=free_reg)
        for mode in MODES:
            assert resolve_mode(fp, mode) == reference_resolve_mode(fp, mode), (fp, mode)
    with pytest.raises(PlanError, match="unknown mode 'HALF'"):
        resolve_mode(fp, "HALF")


def test_stale_plan_rejected(call_tree, memo_cfg):
    _, plan = planned(memo_cfg)
    with pytest.raises(PlanError):
        apply_plan(call_tree, plan, "FULL")


def pinned_corpus():
    """The programs behind PINNED_TRANSFORM_DIGEST: a fixed gen corpus and
    the conftest fixtures."""
    from conftest import CALL_TREE, FIXTURE_CHASE, FIXTURE_INLINE, FIXTURE_REGFRAME

    programs = list(generate_corpus(GenConfig(seed=31, count=20, attack_density=0.5)))
    fixtures = [CALL_TREE, MEMO_CFG, FIXTURE_CHASE, FIXTURE_REGFRAME, FIXTURE_INLINE, FIXTURE_DIAMOND, DEEP_CHAIN]
    return programs + [(f"fixture{i}", parse_program(text)) for i, text in enumerate(fixtures)]


def test_plan_roundtrips_through_json():
    records = 0
    for _, p in pinned_corpus():
        _, plan = planned(p)
        for mode in MODES:
            for rf in apply_plan(p, plan, mode).functions.values():
                assert ResolvedFunction.from_json(rf.to_json()) == rf
                records += 1
    assert records == 930     # 155 functions, six modes


# a valid program whose blocks b0, b2, b1 do not ascend
NON_ASCENDING = "fn main {\nb0:\n  movi r1, 1\n  brc b2, b1\nb2:\n  movi r2, 2\n  br b1\nb1:\n  halt\n}"


def test_strip_recovers_original(memo_cfg, fixture_inline):
    # MO and LIGHT inline fixture_inline's call to id: strip puts it back.
    # Strip keeps the input's block order, not ascending ids
    for p in (memo_cfg, fixture_inline, parse_program(NON_ASCENDING)):
        _, plan = planned(p)
        for mode in MODES:
            assert strip_instrumentation(apply_plan(p, plan, mode)) == p, mode


def test_strip_keeps_high_block_ids_of_unlowered_functions():
    # b1000 is an original block, not a clone, in a function no mode lowers
    p = parse_program("fn main {\nb0:\n  call f\n  halt\n}\nfn f {\nb0:\n  br b1000\nb1000:\n  ret\n}")
    _, plan = planned(p)
    for mode in MODES:
        assert strip_instrumentation(apply_plan(p, plan, mode)) == p, mode


@pytest.mark.parametrize(
    "text, unreached",
    [
        ("fn main {\nb0:\n  halt\nb1:\n  store.sp -8\n  br b0\n}", 1),
        # b3 branches to b2, which lowering keeps only as a clone
        (
            "fn main {\nb0:\n  brc b1, b2\nb1:\n  ret\nb2:\n  movi r1, 64\n  store.reg r1\n  ret\n"
            "b3:\n  store.sp -8\n  br b2\n}",
            3,
        ),
    ],
    ids=["halt", "transition"],
)
def test_lowering_keeps_blocks_the_entry_never_reaches(text, unreached):
    # validate_program rejects an unreachable block, and plan_program refuses
    # the program with that reason, so no plan, and no lowering, ever holds
    # a block the entry never reaches
    p = parse_program(text)
    with pytest.raises(PlanError) as refused:
        plan_program(p)
    assert str(refused.value) == f"invalid program: main.b{unreached}: unreachable block"
    assert [d.reason for d in validate_program(p)] == [f"main.b{unreached}: unreachable block"]
    assert not p.valid


# what `_hand_built` can break in a valid program, each at a drawn place
_BREAKS = ("unreachable", "dangling-branch", "dangling-callee", "missing-entry", "empty-function",
           "empty-block", "no-terminator", "unknown-opcode", "operand-count", "operand-type")
_WRONG_TYPES = (Instr("movi", ("x", 1)), Instr("corrupt", ("a", 1)), Instr("spadd", ("q",)),
                Instr("movr", (1, 2.0)), Instr("call", (3,)), Instr("store.global", (None,)))
_BODY_OPS = sorted(set(OPERAND_SHAPES) - TERMINATORS - SHADOW_OPCODES)


@st.composite
def _hand_built(draw):
    """A program built in Python: up to three functions of chained blocks,
    each reachable from the entry block, with drawn body instructions, then
    broken in up to three of `_BREAKS`' ways."""
    names = ["main", "f", "g"][:draw(st.integers(1, 3))]
    operand = {"r": st.integers(0, 15), "i": st.sampled_from((-16, -8, 0, 8, 16)), "g": st.just("out"),
               "f": st.sampled_from(names)}

    def body_instr():
        op = draw(st.sampled_from(_BODY_OPS))
        if op == "unwind":
            return Instr(op, (draw(st.integers(1, 2)),))
        if op == "corrupt":
            return Instr(op, (draw(st.integers(0, 2)), 99))
        return Instr(op, tuple(draw(operand[k]) for k in OPERAND_SHAPES[op]))

    functions = {}
    for name in names:
        bids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
        blocks = {}
        for k, bid in enumerate(bids):
            body = tuple(body_instr() for _ in range(draw(st.integers(0, 3))))
            if k + 1 == len(bids):
                term = Instr(draw(st.sampled_from(("ret", "halt"))))
            else:
                back = draw(st.sampled_from([None] + [b for b in bids if b != bids[k + 1]]))
                term = Instr("br", (bids[k + 1],)) if back is None else Instr("brc", (bids[k + 1], back))
            blocks[bid] = Block(bid, body + (term,))
        functions[name] = Function(name, blocks)
    entry, adversarial = "main", draw(st.booleans())
    for broken in draw(st.lists(st.sampled_from(_BREAKS), max_size=3)):
        fn = functions[draw(st.sampled_from(names))]
        bid = draw(st.sampled_from(list(fn.blocks) or [0]))
        instrs = fn.blocks[bid].instrs if fn.blocks else ()
        at = draw(st.integers(0, max(len(instrs) - 1, 0)))
        mistyped = draw(st.sampled_from(_WRONG_TYPES))
        if broken == "missing-entry":
            entry = "nope"
        elif broken == "empty-function":
            functions["h"] = Function("h", {})
        elif broken == "unreachable":
            fn.blocks[max(fn.blocks, default=0) + 1] = Block(max(fn.blocks, default=0) + 1, (Instr("ret"),))
        elif fn.blocks:
            instrs = {
                "dangling-branch": instrs[:-1] + (Instr("br", (99,)),),
                "dangling-callee": instrs[:at] + (Instr("call", ("ghost",)),) + instrs[at:],
                "empty-block": (),
                "no-terminator": instrs[:-1],
                "unknown-opcode": instrs[:at] + (Instr("nop"),) + instrs[at:],
                "operand-count": instrs[:at] + (Instr("movi", (1,)),) + instrs[at:],
                "operand-type": instrs[:at] + (mistyped,) + instrs[at:],
            }[broken]
            fn.blocks[bid] = Block(bid, instrs)
    return Program(functions, entry, adversarial)


@settings(max_examples=60, deadline=None)
@given(_hand_built(), st.lists(st.booleans(), max_size=6))
def test_plan_refuses_what_validation_rejects_and_every_stage_takes_the_rest(p, decisions):
    # plan_program refuses a program validate_program rejects, naming every
    # reason; on any program it accepts, each stage after it completes in
    # every mode, and every mode strips back to the input
    try:
        analysis, plan = plan_program(p)
    except PlanError as refused:
        reasons = [d.reason for d in validate_program(p)]
        assert reasons and str(refused) == "invalid program: " + "; ".join(reasons)
        return
    assert validate_program(p) == []
    inp = ExecInput(tuple(decisions), tuple(range(16)))
    execute(p, inp, 500)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        checks = build_checks(ip, p, analysis)
        check_rewrites(ip, p, analysis)
        execute(compile(ip, checks), inp, 500)
        assert strip_instrumentation(ip) == p, mode


def test_rewrite_inverse_is_linear_in_inlined_calls():
    # a chain of blocks, each calling a one-block leaf that LIGHT inlines:
    # strip and the check mapping each group the inlined calls by block once
    def prepare(n):
        call, leaf = Instr("call", ("leaf",)), Function("leaf", {0: Block(0, (Instr("movi", (1, 1)), Instr("ret")))})
        blocks = {i: Block(i, (call, Instr("br", (i + 1,)))) for i in range(n)}
        blocks[n] = Block(n, (Instr("halt"),))
        p = Program({"main": Function("main", blocks), "leaf": leaf}, entry="main")
        analysis, plan = planned(p)
        ip = apply_plan(p, plan, "LIGHT")
        assert len(ip.functions["main"].inlined_calls) == n

        def checks():
            for rf in ip.functions.values():
                rf.checked = None    # so each run maps afresh
            build_checks(ip, p, analysis)

        return {"strip_instrumentation": lambda: strip_instrumentation(ip), "build_checks": checks}

    assert_linear(prepare)


def test_a_wrong_splice_layout_fails_the_check_mapping_and_changes_no_output(monkeypatch):
    # `_rewrite` splices an inlined call apart from `_spliced`, the check
    # mapping's layout: a layout that drops each inlined body's first
    # instruction changes no output and fails the mapping of every LIGHT
    # target that inlines a call
    from shadowlab import transform

    corpus = generate_corpus(GenConfig(seed=37, count=24, attack_density=0.5))

    def prepared():
        for name, p in corpus:
            analysis, plan = plan_program(p)
            yield name, p, analysis, {mode: apply_plan(p, plan, mode) for mode in MODES}

    honest = {}
    for name, p, analysis, outputs in prepared():
        honest[name] = {mode: print_program(ip.program) for mode, ip in outputs.items()}
        build_checks(outputs["LIGHT"], p, analysis)
    spliced = transform._spliced
    monkeypatch.setattr(transform, "_spliced", lambda functions, name, block, calls: [
        at for at in spliced(functions, name, block, calls) if at[0] == name or at[2] > 0
    ])
    inlining = raised = 0
    for name, p, analysis, outputs in prepared():
        assert {mode: print_program(ip.program) for mode, ip in outputs.items()} == honest[name], name
        light = outputs["LIGHT"]
        if any(rf.inlined_calls for rf in light.functions.values()):
            inlining += 1
            with pytest.raises(CheckMappingError):
                build_checks(light, p, analysis)
            raised += 1
    assert inlining == raised == 7


# Helpers that a check and the code it checks both read, each with the
# ROADMAP item that will give the check a judge of its own.
SHARED_HELPERS = {"write_class": "items 11 and 19", "instr_masks": "item 8"}


def test_checks_read_no_transformer_helper():
    # a check that reuses the transformer's own helpers agrees with its bugs
    import types
    from shadowlab import analysis, transform

    def names(code):
        return set(code.co_names).union(*(names(c) for c in code.co_consts if isinstance(c, types.CodeType)))

    checks = [transform.rewrite_claims, transform.activation_walks, transform._mapped_facts, transform._checked,
              analysis.dead_register_findings]
    read = set().union(*(names(f.__code__) for f in checks))
    assert not read & {"_rewrite", "_chase_point", "lower_instrumentation", "plan_mechanism", "apply_plan"}
    assert "_spliced" not in names(transform._rewrite.__code__)
    helpers = {n for n in read
               if isinstance(getattr(transform, n, None) or getattr(analysis, n, None), types.FunctionType)}
    # the rest are the checks themselves and the check mapping's own layout
    assert helpers - {f.__name__ for f in checks} - {"_spliced", "_input_position"} == set(SHARED_HELPERS)


def renumbered(p: Program, rng: random.Random) -> Program:
    """`p` with every function's blocks given distinct random ids below
    1000, in the same order, so the entry stays first."""
    functions = {}
    for name, fn in p.functions.items():
        ids = dict(zip(fn.blocks, rng.sample(range(1000), len(fn.blocks))))
        blocks = {}
        for bid, block in fn.blocks.items():
            term = block.instrs[-1]
            if term.opcode in ("br", "brc"):
                term = Instr(term.opcode, tuple(ids[t] for t in term.args))
            blocks[ids[bid]] = Block(ids[bid], block.instrs[:-1] + (term,))
        functions[name] = Function(name, blocks)
    return Program(functions, p.entry, p.adversarial)


def test_strip_recovers_renumbered_programs():
    # block ids that neither ascend nor start at 0, in every mode, lowered
    # and inlined functions included
    for seed in range(120):
        p = renumbered(generate_program(seed, GenConfig(), seed % 3 == 0), random.Random(seed))
        assert validate_program(p) == []
        _, plan = planned(p)
        for mode in MODES:
            assert strip_instrumentation(apply_plan(p, plan, mode)) == p, (seed, mode)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_instrumented_programs_revalidate(seed):
    p = generate_program(seed, GenConfig(), adversarial=seed % 2 == 0)
    _, plan = planned(p)
    for mode in ("FULL", "SFE", "PO", "MO", "LIGHT"):
        ip = apply_plan(p, plan, mode)
        assert validate_program(ip.program, allow_shadow=True) == []
        assert strip_instrumentation(ip) == p, mode


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_strip_is_behavior_preserving(seed):
    p = generate_program(seed, GenConfig(max_functions=6), adversarial=False)
    _, plan = planned(p)
    ip = apply_plan(p, plan, "PO")
    stripped = strip_instrumentation(ip)
    assert validate_program(stripped) == []
    for inp in (ExecInput((True, False, True)), ExecInput((False, True))):
        assert observables(*execute(p, inp, 20000)) == observables(*execute(stripped, inp, 20000))


# sha256 of every mode's printed program, plan JSON and stripped text over a
# fixed gen corpus and the conftest fixtures, recorded before `apply_plan`
# shared the blocks and functions a mode leaves unchanged, and re-recorded
# once when strip came to put inlined calls back: the value is the earlier
# digest's computation with each input's own text in place of its stripped
# one.  Re-recorded once more when the plan JSON lost `chase_shifts`: the
# value is the earlier digest's computation with that key dropped from every
# function's JSON.  A change here means the instrumented output changed.
PINNED_TRANSFORM_DIGEST = "1c73d57dd5355ab6045c1435a8b0a869fa830dabed5026a3d38101d04fbec961"


def test_transform_outputs_pin():
    digest = hashlib.sha256()
    for name, p in pinned_corpus():
        _, plan = planned(p)
        for mode in MODES:
            ip = apply_plan(p, plan, mode)
            digest.update(f"{name}/{mode}\n".encode())
            digest.update(print_program(ip.program).encode())
            digest.update(json.dumps(ip.to_json(), sort_keys=True).encode())
            digest.update(print_program(strip_instrumentation(ip)).encode())
    assert digest.hexdigest() == PINNED_TRANSFORM_DIGEST


def test_modes_share_elided_functions(call_tree, memo_cfg):
    _, plan = planned(call_tree)
    sfe, po = (apply_plan(call_tree, plan, mode) for mode in ("SFE", "PO"))
    for name in ("b", "d", "e"):
        assert sfe.functions[name].mode == po.functions[name].mode == FN_ELIDED
        assert sfe.program.functions[name] is po.program.functions[name] is call_tree.functions[name]
    assert sfe.program.functions["a"] is not call_tree.functions["a"]
    elide_all = apply_plan(call_tree, plan, "ELIDE-ALL")
    assert all(elide_all.program.functions[n] is fn for n, fn in call_tree.functions.items())
    # a rewritten function keeps the blocks the mode leaves alone: FULL pushes
    # in memo's entry b1 and pops in its exits b6 and b7
    _, plan = planned(memo_cfg)
    memo, full = memo_cfg.functions["memo"], apply_plan(memo_cfg, plan, "FULL").program.functions["memo"]
    assert [bid for bid in memo.blocks if full.blocks[bid] is memo.blocks[bid]] == [2, 3, 4, 5]


def _unsafe_unlowered(plan):
    return [n for n, fp in plan.per_function.items() if not fp.ra_safe and fp.lowered is None]


def test_modes_share_rewrites(call_tree, fixture_regframe, fixture_chase):
    # one rewrite per (function mode, mechanisms flag): FULL, SFE and PO give
    # an unsafe, unlowered function the same one, and MO and LIGHT theirs
    for p in (call_tree, fixture_regframe, fixture_chase):
        _, plan = planned(p)
        outputs = {mode: apply_plan(p, plan, mode) for mode in MODES}
        names = _unsafe_unlowered(plan)
        assert names
        for name in names:
            for group in (("FULL", "SFE", "PO"), ("MO", "LIGHT")):
                fns = [outputs[m].program.functions[name] for m in group]
                rfs = [outputs[m].functions[name] for m in group]
                assert all(fn is fns[0] for fn in fns) and all(rf is rfs[0] for rf in rfs), (name, group)
            assert outputs["FULL"].program.functions[name] is not p.functions[name]


def _without_costs(rf: ResolvedFunction) -> dict:
    """`rf`'s plan JSON with every cost and `chased` flag dropped."""
    out = rf.to_json()
    out["shadow_ops"] = [{k: v for k, v in op.items() if k not in ("cost", "chased")} for op in out["shadow_ops"]]
    out["op_costs"] = sorted(out["op_costs"])
    return out


def test_mechanisms_share_the_plain_body_exactly_when_they_change_no_instruction(
    call_tree, fixture_chase, fixture_inline
):
    # MO's output function is FULL's, and LIGHT's is PO's, exactly when the
    # two give it the same function mode and the same instructions, as two
    # rewrites built from plans of their own show; and a shared pair's
    # ResolvedFunctions differ only in costs and chased
    programs = [p for _, p in generate_corpus(GenConfig(seed=37, count=24, attack_density=0.5))]
    seen = {"shared": 0, "shared, other costs": 0, "same mode, other instructions": 0}
    for p in programs + [call_tree, fixture_chase, fixture_inline]:
        _, plan = planned(p)
        outputs = {mode: apply_plan(p, plan, mode) for mode in MODES}
        for mode, plain in (("MO", "FULL"), ("LIGHT", "PO")):
            alone = {m: apply_plan(p, planned(p)[1], m) for m in (mode, plain)}
            for name in p.functions:
                rf, plain_rf = outputs[mode].functions[name], outputs[plain].functions[name]
                same = rf.mode == plain_rf.mode and (
                    alone[mode].program.functions[name] == alone[plain].program.functions[name]
                )
                shared = outputs[mode].program.functions[name] is outputs[plain].program.functions[name]
                assert shared == same, (mode, name, rf.mode, plain_rf.mode)
                if shared:
                    assert _without_costs(rf) == _without_costs(plain_rf), (mode, name)
                    seen["shared"] += 1
                    seen["shared, other costs"] += rf.to_json() != plain_rf.to_json()
                else:
                    seen["same mode, other instructions"] += rf.mode == plain_rf.mode
    assert all(seen.values()), seen


def _fresh_render(program: Program) -> str:
    """`program`'s canonical text, rendered from its instructions alone."""
    out = [f"#entry {program.entry}"] + ["#adversarial true"] * program.adversarial
    for fn in program.functions.values():
        out += ["", f"fn {fn.name} {{"]
        for bid, block in fn.blocks.items():
            out += [f"b{bid}:"] + ["  " + ins.render() for ins in block.instrs]
        out.append("}")
    return "\n".join(out) + "\n"


def test_every_printed_mode_equals_a_fresh_render():
    # print_program keeps each function's text with it, and the modes share
    # most functions: printing them in either order gives what rendering
    # every instruction again gives
    for name, p in pinned_corpus():
        for order in (MODES, MODES[::-1]):
            _, plan = planned(p)
            outputs = {mode: apply_plan(p, plan, mode) for mode in order}
            for mode, ip in outputs.items():
                assert print_program(ip.program) == _fresh_render(ip.program), (name, mode)
            assert print_program(p) == _fresh_render(p), name


def test_plan_refuses_another_program(fixture_inline):
    # the same text parsed twice: equal programs, no object in common
    twin = parse_program(FIXTURE_INLINE)
    # main is the same object, but its callee is not
    other_id = parse_program("fn id {\nb0:\n  movr r0, r2\n  ret\n}").functions["id"]
    shares_main = Program({"main": fixture_inline.functions["main"], "id": other_id}, entry="main")
    # the safe callee gains an unsafe store, which SFE must not elide
    edited = parse_program(FIXTURE_INLINE.replace("  movr r0, r1\n", "  movr r0, r1\n  store.reg r1\n"))
    _, plan = planned(fixture_inline)
    first = {mode: apply_plan(fixture_inline, plan, mode) for mode in MODES}
    assert plan.per_function["id"].ra_safe
    for other in (twin, shares_main, edited):
        for mode in MODES:
            with pytest.raises(PlanError, match="^plan was made for another program$"):
                apply_plan(other, plan, mode)
    _, twin_plan = planned(twin)
    for mode in MODES:
        assert print_program(apply_plan(twin, twin_plan, mode).program) == print_program(first[mode].program)
    _, shares_plan = planned(shares_main)
    for mode in ("MO", "LIGHT"):
        main = apply_plan(shares_main, shares_plan, mode).program.functions["main"]
        body = [i.text for i in main.blocks[0].instrs]
        assert "movr r0, r2" in body and "movr r0, r1" not in body, (mode, body)
    _, edited_plan = planned(edited)
    assert not edited_plan.per_function["id"].ra_safe
    assert apply_plan(edited, edited_plan, "SFE").functions["id"].mode == FN_FULL
    assert first["SFE"].functions["id"].mode == FN_ELIDED


def test_mode_order_does_not_change_outputs():
    orders = [list(MODES), list(reversed(MODES))] + [random.Random(seed).sample(MODES, len(MODES)) for seed in range(3)]
    for name, p in pinned_corpus():
        texts = []
        for order in orders:
            _, plan = planned(p)
            outputs = {mode: apply_plan(p, plan, mode) for mode in order}
            texts.append(
                {m: (print_program(ip.program), json.dumps(ip.to_json(), sort_keys=True)) for m, ip in outputs.items()}
            )
        assert all(t == texts[0] for t in texts), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_print_then_parse_plans_the_same(seed, adversarial):
    # printed and parsed again, a program has the same verdicts, and the same
    # instrumented text and plan JSON in every mode
    p = generate_program(seed, GenConfig(), adversarial)
    q = parse_program(print_program(p))
    (p_analysis, p_plan), (q_analysis, q_plan) = planned(p), planned(q)
    assert q_analysis.safety.to_json() == p_analysis.safety.to_json()
    for mode in MODES:
        ip, iq = apply_plan(p, p_plan, mode), apply_plan(q, q_plan, mode)
        assert print_program(iq.program) == print_program(ip.program), mode
        assert iq.to_json() == ip.to_json(), mode


def mapped_and_analysed(p):
    """Per store of every function a mode rewrote, inlined calls or not:
    (mode, function, position, its height mapped from the input's analysis
    and that height's write class, the same re-analysed on the output)."""
    analysis, plan = planned(p)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        mapped, fresh = build_checks(ip, p, analysis), analyze_program(ip.program)
        for name, fn in ip.program.functions.items():
            if fn is p.functions[name]:
                continue
            stores = [(b, i) for b, block in fn.blocks.items() for i, ins in enumerate(block.instrs) if ins.is_store]
            assert sorted(mapped.heights[name].stores) == sorted(stores)
            for at in stores:
                here, there = mapped.heights[name].stores[at], fresh.heights[name].stores[at]
                yield mode, name, at, (here, write_class(here)), (there, write_class(there))


def test_mapped_checks_equal_reanalysis_on_pinned_corpus():
    stores = modes = 0
    for _, p in pinned_corpus():
        for mode, name, at, mapped, analysed in mapped_and_analysed(p):
            assert mapped == analysed, (mode, name, at)
            stores += 1
            modes |= 1 << MODES.index(mode)
    assert stores > 1000 and modes == (1 << 5) - 1     # every mode but ELIDE-ALL rewrites


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_mapped_heights_are_equal_or_coarser(seed):
    # a clone's entry joins fewer predecessors than its original, and a
    # store inlined from a callee keeps the callee's height, which knows
    # nothing of the caller's registers: so the mapped height may only lose
    # precision, never disagree
    p = generate_program(seed, GenConfig(), adversarial=seed % 2 == 0)
    for mode, name, at, (height, wclass), (analysed, analysed_class) in mapped_and_analysed(p):
        assert join_height(height, analysed) == height, (mode, name, at)
        if height == analysed:
            assert wclass == analysed_class, (mode, name, at)


def test_applying_every_mode_leaves_the_input_unchanged():
    programs = [parse_program(text) for text in (MEMO_CFG, FIXTURE_DIAMOND, DEEP_CHAIN)]
    programs += [p for _, p in generate_corpus(GenConfig(seed=7, count=6, attack_density=0.5))]
    for p in programs:
        text = print_program(p)
        blocks = {name: dict(fn.blocks) for name, fn in p.functions.items()}
        _, plan = planned(p)
        outputs = [apply_plan(p, plan, mode) for mode in MODES]
        assert print_program(p) == text
        for name, fn in p.functions.items():
            assert list(fn.blocks.items()) == list(blocks[name].items())
            assert all(fn.blocks[bid] is block for bid, block in blocks[name].items())
        for ip in outputs:
            strip_instrumentation(ip)
        assert print_program(p) == text


# `apply_plan` as it was before one block rewrite served every function mode:
# three loops, a pop spliced in two places, and a new `spush` per push
_SPOP = Instr("spop")


def reference_apply_plan(program, plan, mode):
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
        fn_mode = reference_resolve_mode(fp, mode)
        rf = ResolvedFunction(fn_mode)
        ops: list[ShadowOp] = []

        def inlined(instrs, bid):
            # each call to an inlined callee becomes the callee's body minus its ret
            hits = [(idx, ins.args[0]) for idx, ins in enumerate(instrs) if ins.opcode == "call" and ins.args[0] in callees]
            if not hits:
                return instrs
            rf.inlined_calls += tuple((bid, idx, callee) for idx, callee in hits)
            out = list(instrs)
            for idx, callee in reversed(hits):
                out[idx:idx + 1] = next(iter(program.functions[callee].blocks.values())).instrs[:-1]
            return tuple(out)

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

            for bid in low.kept_originals:
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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
@example(CALL_TREE)
@example(MEMO_CFG)
@example(FIXTURE_CHASE)
@example(FIXTURE_REGFRAME)
@example(FIXTURE_INLINE)
@example(FIXTURE_DIAMOND)
@example(HALTING_MAIN)
def test_apply_plan_matches_reference(source):
    if isinstance(source, str):
        program = parse_program(source)
    else:
        program = generate_program(source, GenConfig(), adversarial=source % 2 == 0)
    _, plan = planned(program)
    for mode in MODES:
        ip, ref = apply_plan(program, plan, mode), reference_apply_plan(program, plan, mode)
        assert print_program(ip.program) == print_program(ref.program), mode
        assert json.dumps(ip.to_json(), sort_keys=True) == json.dumps(ref.to_json(), sort_keys=True), mode
        spushes = {}
        for fn in ip.program.functions.values():
            for block in fn.blocks.values():
                for ins in block.instrs:
                    if ins.opcode == "spush":
                        assert spushes.setdefault(ins.args, ins) is ins, (mode, ins)



# f's walk into b2, whose call leaves no register dead, and into b3, where all
# but r0 are dead: LIGHT chases only the push on the edge into b3, b2001
CHASE_EDGES = """\
#entry main

fn main {
b0:
  spadd -16
  call f
  spadd 16
  ret
}

fn f {
b0:
  spadd -16
  brc b1, b4
b1:
  brc b2, b3
b2:
  call g
  movi r9, 512
  store.reg r9
  spadd 16
  ret
b3:
  movi r9, 512
  store.reg r9
  spadd 16
  ret
b4:
  spadd 16
  ret
}

fn g {
b0:
  ret
}
"""


def _rechased(rf, chase):
    """`rf` with the push on each transition edge `chase` picks chased and
    costed as `_rewrite` costs a chased edge push."""
    tids = {edge: tid for tid, edge in rf.transition_blocks.items()}
    cost = (COST_PUSH_CHASED[0] + COST_TRANSITION_EDGE[0], COST_PUSH_CHASED[1] + COST_TRANSITION_EDGE[1])
    ops, costs = [], dict(rf.op_costs)
    for op in rf.shadow_ops:
        if op.transition and chase(op.site[1:]):
            op = op._replace(chased=True, cost=cost)
            costs[(tids[op.site[1:]], 0)] = cost
        ops.append(op)
    return dataclasses.replace(rf, shadow_ops=tuple(ops), op_costs=costs)


def _chase_edges():
    """CHASE_EDGES, its analysis and plan, and every mode's output, whose
    rewrites all check clean."""
    p = parse_program(CHASE_EDGES)
    analysis, plan = planned(p)
    assert plan.per_function["f"].edge_dead == {(1, 2): False, (1, 3): True}
    outputs = {mode: apply_plan(p, plan, mode) for mode in MODES}
    assert [op.chased for op in outputs["LIGHT"].functions["f"].shadow_ops if op.transition] == [False, True]
    assert all(check_rewrites(ip, p, analysis) == [] for ip in outputs.values())
    # so do the rewrites read back from a plan sidecar, whose op_costs come in
    # key order: PO's transition pushes, b2000 and b2001, after its clones' pops
    for mode, ip in outputs.items():
        sidecar = json.loads(json.dumps(ip.to_json(), sort_keys=True))["functions"]
        again = InstrumentedProgram(ip.program, mode, {n: ResolvedFunction.from_json(d) for n, d in sidecar.items()})
        assert check_rewrites(again, p, analysis) == [], mode
        if mode == "PO":
            assert list(again.functions["f"].op_costs) != list(ip.functions["f"].op_costs)
    return p, analysis, plan, outputs


def _with_f(ip, rf):
    """`ip` with f's rewrite `rf`."""
    return InstrumentedProgram(ip.program, ip.mode, {**ip.functions, "f": rf})


def test_claims_find_a_chase_where_edge_dead_is_inverted():
    # edge_dead's `>= 2` made `< 2`: LIGHT chases the edge into b2, not b3
    p, analysis, plan, _ = _chase_edges()
    fp = plan.per_function["f"]
    fp.edge_dead = {edge: not dead for edge, dead in fp.edge_dead.items()}
    plan.rewrites.clear()
    assert check_rewrites(apply_plan(p, plan, "LIGHT"), p, analysis) == [
        ("f", "b2000[0]: push is chased where the input has fewer than two dead registers")
    ]


def test_claims_find_a_chase_the_mode_or_the_registers_do_not_allow():
    # the chase choice's `and` made `or`: PO chases where the input has two
    # dead registers, and LIGHT on every edge
    p, analysis, plan, outputs = _chase_edges()
    po, light = outputs["PO"], outputs["LIGHT"]
    chased_po = _rechased(po.functions["f"], plan.per_function["f"].edge_dead.get)
    assert check_rewrites(_with_f(po, chased_po), p, analysis) == [
        ("f", "chased push under PO, a mode without mechanisms")
    ]
    chased_light = _rechased(light.functions["f"], lambda edge: True)
    assert check_rewrites(_with_f(light, chased_light), p, analysis) == [
        ("f", "b2000[0]: push is chased where the input has fewer than two dead registers")
    ]


def test_claims_find_a_shifted_or_wrong_cost():
    p, analysis, _, outputs = _chase_edges()
    full = outputs["FULL"].functions["f"]
    # the entry push's op_costs index shifted by one
    shifted = {((0, 1) if at == (0, 0) else at): cost for at, cost in full.op_costs.items()}
    assert check_rewrites(_with_f(outputs["FULL"], dataclasses.replace(full, op_costs=shifted)), p, analysis) == [
        ("f", "shadow instructions and op_costs differ at [(0, 0), (0, 1)]"),
        ("f", "b0[0]: push costs (9, 6), op_costs charges None, its kind and flags give (9, 6)"),
    ]
    # a cost that the push's kind and flags do not give
    push = full.shadow_ops[0]._replace(cost=(9, 9))
    recosted = dataclasses.replace(
        full, shadow_ops=(push,) + full.shadow_ops[1:], op_costs={**full.op_costs, (0, 0): (9, 9)}
    )
    assert check_rewrites(_with_f(outputs["FULL"], recosted), p, analysis) == [
        ("f", "b0[0]: push costs (9, 9), op_costs charges (9, 9), its kind and flags give (9, 6)")
    ]


def _edited(ip, *edits):
    """`ip` with each (old, new) of `edits` made to its printed program, each
    `old` found once, under the same rewrites."""
    text = print_program(ip.program)
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return InstrumentedProgram(parse_program(text), ip.mode, ip.functions)


def test_every_walk_of_a_full_or_register_frame_function_runs_one_push_and_pop():
    # main halts under FULL; rleaf is a register frame under MO
    _, plan = planned(inline := parse_program(FIXTURE_INLINE))
    full = apply_plan(inline, plan, "FULL")
    assert check_rewrites(full) == []
    # a halt after the push with no pop
    assert check_rewrites(_edited(full, ("  spop\n  halt\n", "  halt\n"))) == [
        ("main", "shadow instructions and op_costs differ at [(0, 4)]"),
        ("main", "shadow instructions ['spush'] where shadow_ops has ['spush', 'spop']"),
        ("main", "tainted walk executed 1 pushes, 0 pops"),
    ]
    # the pop first
    popped = _edited(full, ("  spush 0\n  movi r1, 41\n", "  spop\n  spush 0\n  movi r1, 41\n"), ("  spop\n  halt\n", "  halt\n"))
    assert check_rewrites(popped)[-1] == ("main", "pop before push")
    _, plan = planned(regframe := parse_program(FIXTURE_REGFRAME))
    mo = apply_plan(regframe, plan, "MO")
    assert mo.functions["rleaf"].mode == FN_REGFRAME and check_rewrites(mo) == []
    assert check_rewrites(_edited(mo, ("  rfpop r9\n", "")))[-1] == ("rleaf", "tainted walk executed 1 pushes, 0 pops")
    # the unsafe store moved before the push
    moved = _edited(mo, ("  rfpush r9\n", ""), ("  store.reg r1\n  rfpop r9\n", "  store.reg r1\n  rfpush r9\n  rfpop r9\n"))
    assert check_rewrites(moved)[-1] == ("rleaf", "unsafe store before the covering push")


def _bench_corpus():
    """bench/corpus.py, which builds the vm-long programs, loaded by path."""
    spec = importlib.util.spec_from_file_location("_bench_corpus", Path(__file__).parents[1] / "bench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_rewrite_of_the_long_and_acceptance_corpora_checks_clean():
    from test_acceptance import CAMPAIGN_CFG

    corpus = _bench_corpus()
    programs = [parse_program(lp.text) for seed in (1, 2, 3) for lp in corpus.build_long_programs(seed)]
    for seed, count, density in ((CAMPAIGN_CFG.seed, CAMPAIGN_CFG.benign_count, 0.0),
                                 (CAMPAIGN_CFG.seed + 1, CAMPAIGN_CFG.adversarial_count, 1.0)):
        programs += [p for _, p in generate_corpus(GenConfig(seed=seed, count=count, attack_density=density))]
    for p in programs:
        analysis, plan = planned(p)
        for mode in MODES:
            assert check_rewrites(apply_plan(p, plan, mode), p, analysis) == [], mode
