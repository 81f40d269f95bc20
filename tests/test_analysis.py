import hashlib
import json
from collections import deque

from hypothesis import assume, given, settings, strategies as st

from shadowlab.mir import NUM_REGS, Block, Function, Instr, parse_program
from shadowlab.analysis import (
    ALL_BOTTOM,
    ALL_MASK,
    BOTTOM,
    TOP,
    GLOBAL,
    SAFE_STACK,
    UNSAFE,
    classify_writes,
    dead_register_findings,
    dead_registers,
    instr_masks,
    is_safe_height,
    join_height,
    stack_heights,
    write_class,
    _step,
)
from shadowlab.mir import sccs
from shadowlab.gen import GenConfig, generate_corpus, generate_program


def regs(mask):
    """The registers of a dead-register mask, bit r for r<r>."""
    return frozenset(r for r in range(NUM_REGS) if mask >> r & 1)


def heights_of(text, name=None):
    p = parse_program(text)
    fn = p.functions[name or next(iter(p.functions))]
    return fn, stack_heights(fn)


def test_join_is_flat_lattice():
    assert join_height(BOTTOM, 5) == 5
    assert join_height(5, BOTTOM) == 5
    assert join_height(5, 5) == 5
    assert join_height(5, 6) is TOP
    assert join_height(TOP, 5) is TOP
    assert join_height(BOTTOM, BOTTOM) is BOTTOM


def test_store_after_frame_setup():
    _, h = heights_of("fn t {\nb0:\n  spadd -16\n  store.sp 8\n  ret\n}")
    assert h.stores[(0, 1)] == -8


def test_store_hits_return_slot():
    _, h = heights_of("fn t {\nb0:\n  spadd -16\n  store.sp 16\n  ret\n}")
    assert h.stores[(0, 1)] == 0


def test_loop_growth_goes_top():
    # stack grows inside a loop: the height at the post-loop store is unknown
    _, h = heights_of(
        "fn l {\nb0:\n  br b1\nb1:\n  spadd -8\n  brc b1, b2\nb2:\n  store.sp 0\n  ret\n}"
    )
    assert h.stores[(2, 0)] is TOP


def test_store_through_lea_register():
    _, h = heights_of("fn t {\nb0:\n  spadd -16\n  lea.sp r3, 4\n  store.reg r3\n  ret\n}")
    assert h.stores[(0, 2)] == -12


def test_store_through_constant_register_is_top():
    _, h = heights_of("fn t {\nb0:\n  movi r3, 256\n  store.reg r3\n  ret\n}")
    assert h.stores[(0, 1)] is TOP


def test_arithmetic_taints_stack_pointer_copy():
    _, h = heights_of(
        "fn t {\nb0:\n  lea.sp r3, -16\n  movi r4, 0\n  binop r3, r4\n  store.reg r3\n  ret\n}"
    )
    assert h.stores[(0, 3)] is TOP


def test_spmov_concrete_and_tainted():
    _, h = heights_of(
        "fn t {\nb0:\n  lea.sp r3, -16\n  spmov r3\n  store.sp 0\n  ret\n}"
    )
    assert h.stores[(0, 2)] == -16
    _, h2 = heights_of(
        "fn t {\nb0:\n  movi r3, 100\n  spmov r3\n  store.sp 0\n  ret\n}"
    )
    assert h2.stores[(0, 2)] is TOP


def test_call_clobbers_register_heights_but_not_sp():
    fn, h = heights_of(
        "fn t {\nb0:\n  spadd -16\n  lea.sp r3, 0\n  call u\n  store.reg r3\n  store.sp 8\n  ret\n}\n"
        "fn u { b0: ret }",
        "t",
    )
    assert h.stores[(0, 3)] is TOP   # register heights do not survive a call
    assert h.stores[(0, 4)] == -8    # the stack pointer does


def test_branch_join_of_unequal_heights():
    _, h = heights_of(
        "fn t {\nb0:\n  brc b1, b2\nb1:\n  spadd -8\n  br b3\nb2:\n  spadd -16\n  br b3\n"
        "b3:\n  store.sp 0\n  ret\n}"
    )
    assert h.stores[(3, 0)] is TOP


def test_classify_boundary_cases():
    fn, h = heights_of(
        "fn t {\nb0:\n  spadd -16\n  store.sp 8\n  store.sp 16\n  store.global g\n  ret\n}"
    )
    classes = classify_writes(fn, h)
    assert classes[(0, 1)] == SAFE_STACK   # height -8: word strictly below the slot
    assert classes[(0, 2)] == UNSAFE       # height 0: the return-address slot itself
    assert classes[(0, 3)] == GLOBAL
    assert len(classes) == 3


def test_classify_top_is_unsafe():
    fn, h = heights_of("fn t {\nb0:\n  movi r3, 256\n  store.reg r3\n  ret\n}")
    classes = classify_writes(fn, h)
    assert classes[(0, 1)] == UNSAFE


def test_classify_corrupt_as_unknown_store():
    fn, h = heights_of("#adversarial true\nfn t {\nb0:\n  corrupt 0, 5\n  ret\n}")
    classes = classify_writes(fn, h)
    assert classes[(0, 0)] == UNSAFE


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_classification_is_total(seed):
    p = generate_program(seed, GenConfig(), adversarial=seed % 2 == 0)
    for fn in p.functions.values():
        classes = classify_writes(fn, stack_heights(fn))
        stores = [(b, i) for b, block in fn.blocks.items() for i, ins in enumerate(block.instrs) if ins.is_store]
        assert sorted(classes) == sorted(stores)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_height_fixpoint_is_stable(seed):
    # applying the transfer functions once more on the fixpoint changes nothing
    p = generate_program(seed, GenConfig(), adversarial=False)
    for fn in p.functions.values():
        h = stack_heights(fn)
        replayed = {}
        for bid, (sp, regs) in h.entries.items():
            block = fn.blocks[bid]
            for idx, ins in enumerate(block.instrs):
                sp, regs, dest = _step(sp, regs, ins)
                if ins.is_store:
                    replayed[(bid, idx)] = dest
            for succ in block.successors:
                entry_sp, entry_regs = h.entries[succ]
                assert join_height(entry_sp, sp) == entry_sp
                for r in range(NUM_REGS):
                    assert join_height(entry_regs[r], regs[r]) == entry_regs[r]
        # every store of a reached block has the height its block's entry state gives it
        assert replayed == h.stores


def test_is_safe_height_boundary():
    assert is_safe_height(-8)
    assert is_safe_height(-64)
    assert not is_safe_height(0)
    assert not is_safe_height(-7)
    assert not is_safe_height(TOP)
    assert not is_safe_height(BOTTOM)


def test_write_class_of_each_height():
    # None is the height of a store in a block the fixpoint never reached
    assert [write_class(h) for h in (-8, -64, -7, 0, 8, TOP, BOTTOM, None)] == [
        SAFE_STACK, SAFE_STACK, UNSAFE, UNSAFE, UNSAFE, UNSAFE, GLOBAL, UNSAFE,
    ]


def test_classify_store_in_unreached_block_as_unsafe():
    fn, h = heights_of("fn t {\nb0:\n  ret\nb1:\n  store.sp -8\n  store.global g\n  br b0\n}")
    assert h.stores == {}
    assert classify_writes(fn, h) == {(1, 0): UNSAFE, (1, 1): UNSAFE}


def test_dead_after_write_before_read():
    p = parse_program("fn x {\nb0:\n  movi r1, 5\n  store.global g\n  ret\n}")
    lm = dead_registers(p.functions["x"])
    assert 1 in regs(lm[0][2])   # at ret
    assert 1 in regs(lm[0][0])   # written before any read


def test_all_but_return_register_dead_at_ret():
    p = parse_program("fn y { b0: ret }")
    lm = dead_registers(p.functions["y"])
    assert len(regs(lm[0][0])) == 15
    assert 0 not in regs(lm[0][0])


def test_saved_then_overwritten_registers(fixture_chase):
    # no dead registers at entry, exactly two once the saves are past
    lm = dead_registers(fixture_chase.functions["chasefn"])
    assert len(regs(lm[0][0])) == 0
    assert len(regs(lm[0][1])) == 0
    assert regs(lm[0][2]) == frozenset({1, 2})


def test_calls_keep_registers_live():
    p = parse_program("fn t {\nb0:\n  movi r5, 1\n  call u\n  ret\n}\nfn u { b0: ret }")
    lm = dead_registers(p.functions["t"])
    # r5 is written at 0, but everything else stays live into the call
    assert regs(lm[0][0]) == frozenset({5})


def test_stores_read_the_value_register():
    p = parse_program("fn t {\nb0:\n  store.sp -8\n  ret\n}")
    lm = dead_registers(p.functions["t"])
    assert 0 not in regs(lm[0][0])


def _reference_dead(fn) -> dict:
    """Liveness by round-robin sweeps over the blocks in declaration order
    until nothing changes, on frozensets: the oracle for the worklist."""
    live_in = {bid: frozenset() for bid in fn.blocks}
    live_out = dict(live_in)
    changed = True
    while changed:
        changed = False
        for bid, block in fn.blocks.items():
            out = frozenset().union(*(live_in[s] for s in block.successors))
            live = out
            for ins in reversed(block.instrs):
                uses, defs = map(regs, instr_masks(ins))
                live = (live - defs) | uses
            if (out, live) != (live_out[bid], live_in[bid]):
                live_out[bid], live_in[bid] = out, live
                changed = True
    dead = {}
    for bid, block in fn.blocks.items():
        live = live_out[bid]
        for idx in range(len(block.instrs) - 1, -1, -1):
            uses, defs = map(regs, instr_masks(block.instrs[idx]))
            live = (live - defs) | uses
            dead[(bid, idx)] = frozenset(range(NUM_REGS)) - live
    return dead


_REG = st.integers(0, NUM_REGS - 1)
_BODY_INSTR = st.one_of(
    st.builds(lambda r: Instr("movi", (r, 1)), _REG),
    st.builds(lambda a, b: Instr("movr", (a, b)), _REG, _REG),
    st.builds(lambda a, b: Instr("binop", (a, b)), _REG, _REG),
    st.builds(lambda a, b: Instr("load.reg", (a, b)), _REG, _REG),
    st.builds(lambda r: Instr("store.reg", (r,)), _REG),
    st.builds(lambda r: Instr("rfpush", (r,)), _REG),
    st.just(Instr("store.sp", (-8,))),
    st.just(Instr("call", ("g",))),
)


@st.composite
def _random_cfgs(draw):
    """Any shape of CFG: loops, self-loops, unreachable blocks, several exits,
    and blocks declared in an order unrelated to the edges."""
    n = draw(st.integers(1, 12))
    target = st.integers(0, n - 1)
    blocks = {}
    for bid in [0] + draw(st.permutations(range(1, n))):
        kind = draw(st.sampled_from(("br", "brc", "ret", "halt")))
        if kind == "br":
            term = Instr("br", (draw(target),))
        elif kind == "brc":
            term = Instr("brc", (draw(target), draw(target)))
        else:
            term = Instr(kind)
        blocks[bid] = Block(bid, tuple(draw(st.lists(_BODY_INSTR, max_size=4))) + (term,))
    return Function("f", blocks)


@settings(max_examples=300, deadline=None)
@given(_random_cfgs())
def test_liveness_matches_round_robin_reference(fn):
    assert {(bid, idx): regs(m) for bid, masks in dead_registers(fn).items() for idx, m in enumerate(masks)} == _reference_dead(fn)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_liveness_matches_reference_on_generated_programs(seed):
    p = generate_program(seed, GenConfig(), adversarial=seed % 2 == 0)
    for fn in p.functions.values():
        assert {(bid, idx): regs(m) for bid, masks in dead_registers(fn).items() for idx, m in enumerate(masks)} == _reference_dead(fn)


@settings(max_examples=100, deadline=None)
@given(_random_cfgs(), st.data())
def test_dead_register_findings_flag_any_live_register_called_dead(fn, data):
    # the analysis's own masks pass; a register the reference calls live,
    # added to any one mask, is flagged at that instruction
    dead = dead_registers(fn)
    assert dead_register_findings(fn, dead) == []
    reference = _reference_dead(fn)
    places = [at for at, d in sorted(reference.items()) if len(d) < NUM_REGS]
    assume(places)
    bid, idx = data.draw(st.sampled_from(places))
    r = data.draw(st.sampled_from(sorted(set(range(NUM_REGS)) - reference[(bid, idx)])))
    masks = dead[bid]
    skewed = {**dead, bid: masks[:idx] + (masks[idx] | 1 << r,) + masks[idx + 1:]}
    assert any(f[:3] == ("f", bid, idx) and r in f[3] for f in dead_register_findings(fn, skewed))


def test_no_dead_register_findings_over_the_acceptance_corpora():
    from test_acceptance import CAMPAIGN_CFG as cfg

    for seed, count, density in ((cfg.seed, cfg.benign_count, 0.0), (cfg.seed + 1, cfg.adversarial_count, 1.0)):
        for name, p in generate_corpus(GenConfig(seed=seed, count=count, attack_density=density, budget=cfg.budget)):
            for fn in p.functions.values():
                assert dead_register_findings(fn, dead_registers(fn)) == [], (name, fn.name)


# ---- equivalence pin: every analysis result over a fixed corpus ----

# sha256 of the per-instruction heights (sp, dest and every register), the
# dead sets, the write classes and the safety verdicts of the programs below,
# recorded before the analyses moved to dense state: a change here means an
# analysis result changed.  The pin reads only `sp`, `dest`, `reg(r)`,
# `dead_at` and the class and safety maps.
PINNED_ANALYSIS_DIGEST = "a3639a2f9d19bf4065c5c396828bb15b8381d6b337ef2c85bc2171b76e84aeaa"


def _diamond_chain(n: int) -> str:
    """n diamonds in a row whose branches set registers differently; the
    frames of the two branches differ once, ten diamonds from the end, and
    one block is unreachable."""
    lines = ["fn diamonds {"]
    for i in range(n):
        a, b, c = i % 15 + 1, (i * 7) % 15 + 1, (i * 3) % 15 + 1
        lines += [f"b{3 * i}:", f"  movr r{a}, r{b}", f"  brc b{3 * i + 1}, b{3 * i + 2}"]
        lines += [f"b{3 * i + 1}:", f"  lea.sp r{a}, {-8 * (i % 4 + 1)}", f"  store.reg r{a}"]
        if i % 5 == 0:
            lines.append("  spadd -8")
        if i % 11 == 0:
            lines.append("  call leaf")
        lines += [f"  br b{3 * i + 3}"]
        lines += [f"b{3 * i + 2}:", f"  movi r{c}, {i}", "  store.sp -8", f"  load.reg r{b}, r{c}"]
        if i % 5 == 0:
            lines.append("  spadd -16" if i == n - 10 else "  spadd -8")
        lines += [f"  br b{3 * i + 3}"]
    lines += [f"b{3 * n}:", "  store.reg r5", "  movr r0, r3", "  ret"]
    lines += [f"b{3 * n + 1}:", "  movi r2, 1", f"  br b{3 * n}", "}", "", "fn leaf {", "b0:", "  ret", "}"]
    return "\n".join(lines)


def _loop_chain(n: int) -> str:
    """n loops in a row, each a header and a body that branches back; the
    frame grows in one loop, five from the end."""
    lines = ["fn loops {", "b0:", "  spadd -64", "  lea.sp r1, 8", "  br b1"]
    for i in range(n):
        a, b, c = i % 15 + 1, (i * 5) % 15 + 1, (i * 11) % 15 + 1
        head, body = 2 * i + 1, 2 * i + 2
        lines += [f"b{head}:", f"  binop r{a}, r{b}", f"  brc b{body}, b{head + 2}"]
        lines += [f"b{body}:", f"  load.sp r{c}, -8", f"  store.reg r{a}"]
        if i % 6 == 0:
            lines += ["  spadd -8", "  store.sp 0", "  spadd 8"]
        if i == n - 5:
            lines.append("  spadd -8")
        if i % 9 == 0:
            lines.append(f"  lea.sp r{c}, -16")
        lines += [f"  br b{head}"]
    lines += [f"b{2 * n + 1}:", "  store.reg r1", "  movr r0, r7", "  spadd 64", "  ret", "}"]
    return "\n".join(lines)


def _pinned_analysis_programs():
    from conftest import CALL_TREE, FIXTURE_CHASE, FIXTURE_DIAMOND, FIXTURE_INLINE, FIXTURE_REGFRAME, MEMO_CFG

    from shadowlab.gen import generate_corpus
    from shadowlab.transform import apply_plan, plan_program

    corpus = generate_corpus(GenConfig(seed=41, count=20, attack_density=0.5))
    yield from corpus
    # instrumented programs, as the fresh-analysis oracles analyse every
    # target: shadow and register-frame operations, clones and transition
    # blocks
    for name, p in corpus[:6]:
        _, plan = plan_program(p)
        for mode in ("MO", "LIGHT"):
            yield f"{name}/{mode}", apply_plan(p, plan, mode).program
    fixtures = [CALL_TREE, MEMO_CFG, FIXTURE_CHASE, FIXTURE_REGFRAME, FIXTURE_INLINE, FIXTURE_DIAMOND]
    fixtures += [_diamond_chain(300), _loop_chain(450)]
    for i, text in enumerate(fixtures):
        yield f"fixture{i}", parse_program(text)


def _height_json(h):
    return h if isinstance(h, int) else repr(h)


def _analysis_record(program) -> list:
    from shadowlab.transform import analyze_program

    analysis = analyze_program(program)
    record = []
    for name, fn in program.functions.items():
        entries, lmap = analysis.heights[name].entries, analysis.liveness[name]
        instrs = []
        for bid, block in fn.blocks.items():
            # the state before each instruction of a reached block, replayed
            # from the block's entry state; an unreached block has none
            state = entries.get(bid)
            for idx, ins in enumerate(block.instrs):
                heights = None
                if state is not None:
                    sp, reg_state = state
                    sp_after, regs_after, dest = _step(sp, reg_state, ins)
                    reg_heights = [_height_json(reg_state[r]) for r in range(16)]
                    heights = [_height_json(sp), _height_json(dest), reg_heights]
                    state = sp_after, regs_after
                instrs.append([bid, idx, heights, sorted(regs(lmap[bid][idx]))])
        classes = sorted([b, i, c] for (b, i), c in classify_writes(fn, analysis.heights[name]).items())
        record.append([name, instrs, classes])
    return [record, analysis.safety.to_json()]


def test_analysis_equivalence_pin():
    digest = hashlib.sha256()
    for name, program in _pinned_analysis_programs():
        digest.update(json.dumps([name, _analysis_record(program)], sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_ANALYSIS_DIGEST


# ---- differential test: the per-block facts against per-instruction ones ----

def _per_instruction_heights(fn) -> dict:
    """The height fixpoint as it was when it kept one record per
    instruction: (block id, index) -> (sp, regs, dest), the state before
    the instruction and the height it writes, as of its block's last visit."""
    facts = {}
    in_states = {fn.entry_block: (0, ALL_BOTTOM)}
    work, queued = deque([fn.entry_block]), {fn.entry_block}
    while work:
        bid = work.popleft()
        queued.discard(bid)
        sp, regs = in_states[bid]
        for idx, ins in enumerate(fn.blocks[bid].instrs):
            sp_after, regs_after, dest = _step(sp, regs, ins)
            facts[(bid, idx)] = (sp, regs, dest)
            sp, regs = sp_after, regs_after
        for succ in fn.blocks[bid].successors:
            cur = in_states.get(succ)
            if cur is not None:
                new = (join_height(cur[0], sp), tuple(map(join_height, cur[1], regs)))
                if new == cur:
                    continue
                in_states[succ] = new
            else:
                in_states[succ] = (sp, regs)
            if succ not in queued:
                work.append(succ)
                queued.add(succ)
    return facts


def _per_instruction_dead(fn) -> dict:
    """The liveness worklist as it was when it kept one dict entry per
    instruction: (block id, index) -> the mask of registers dead before it."""
    succs = {bid: block.successors for bid, block in fn.blocks.items()}
    preds = {bid: [] for bid in fn.blocks}
    block_use, block_def = {}, {}
    for bid, block in fn.blocks.items():
        for succ in succs[bid]:
            preds[succ].append(bid)
        use = defs = 0
        for uses, defines in map(instr_masks, block.instrs):
            use |= uses & ~defs
            defs |= defines
        block_use[bid], block_def[bid] = use, defs
    order = [bid for comp in sccs([fn.entry_block], succs) for bid in comp]
    reached = set(order)
    order += [bid for bid in fn.blocks if bid not in reached]
    live_in = dict.fromkeys(fn.blocks, 0)
    live_out = dict.fromkeys(fn.blocks, 0)
    work, queued = deque(order), set(order)
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
    dead = {}
    for bid, block in fn.blocks.items():
        live = live_out[bid]
        for idx in range(len(block.instrs) - 1, -1, -1):
            uses, defs = instr_masks(block.instrs[idx])
            live = live & ~defs | uses
            dead[(bid, idx)] = ALL_MASK & ~live
    return dead


def _assert_block_facts_match(fn):
    """Replaying `_step` from each block entry gives the per-instruction
    heights, the stores' heights among them, and the dead tuples flatten to
    the per-instruction masks, position for position."""
    h, oracle = stack_heights(fn), _per_instruction_heights(fn)
    replayed = {}
    for bid, (sp, regs_at) in h.entries.items():
        for idx, ins in enumerate(fn.blocks[bid].instrs):
            sp_after, regs_after, dest = _step(sp, regs_at, ins)
            replayed[(bid, idx)] = (sp, regs_at, dest)
            sp, regs_at = sp_after, regs_after
    assert replayed == oracle, fn.name
    assert h.stores == {at: f[2] for at, f in oracle.items() if fn.blocks[at[0]].instrs[at[1]].is_store}, fn.name
    dead = dead_registers(fn)
    assert list(dead) == list(fn.blocks) and all(len(dead[b]) == len(fn.blocks[b].instrs) for b in fn.blocks)
    flat = {(bid, idx): m for bid, masks in dead.items() for idx, m in enumerate(masks)}
    assert flat == _per_instruction_dead(fn), fn.name


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_block_facts_match_per_instruction_facts(seed, adversarial):
    p = generate_program(seed, GenConfig(), adversarial=adversarial)
    for fn in p.functions.values():
        _assert_block_facts_match(fn)


def test_block_facts_match_per_instruction_facts_on_chains():
    for text in (_diamond_chain(300), _loop_chain(450)):
        for fn in parse_program(text).functions.values():
            _assert_block_facts_match(fn)
