from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from collections import Counter
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.analysis import UNSAFE, AnalysisChecks, dead_register_findings, write_class
from shadowlab.mir import (
    NUM_REGS, RETURN_REG, Block, Function, Instr, Program, parse_program, print_program, validate_program,
)
from shadowlab.transform import (
    FN_LOWERED,
    MODES,
    CheckMappingError,
    InstrumentedProgram,
    PlanError,
    activation_walks,
    analyze_program,
    apply_plan,
    check_rewrites,
    plan_program,
)
from shadowlab.shadowvm import (
    ABORTED,
    BINOP,
    BR,
    BRC,
    BUDGET,
    CALL,
    COMPLETED,
    CORRUPT,
    EXIT_COOKIE,
    FAULT,
    HALT,
    ICALL,
    LEA_SP,
    LOAD_REG,
    LOAD_SP,
    MASK,
    MAX_COUNTEREXAMPLES,
    MAX_VIOLATIONS,
    MEM_BYTES,
    MOVI,
    MOVR,
    RET,
    RFPOP,
    RFPUSH,
    SHADOW_CAPACITY,
    SPADD,
    SPUSH,
    STACK_FLOOR,
    STORE_GLOBAL,
    STORE_REG,
    STORE_SP,
    UNDETECTED,
    UNKNOWN,
    CampaignCase,
    CampaignReport,
    CompiledProgram,
    ExecInput,
    Finding,
    Outcome,
    Trace,
    _bad_address,
    _Fn,
    _VmFault,
    build_checks,
    check_activations,
    compile,
    execute,
    observables,
    run_campaign,
)
from shadowlab.gen import GenConfig, generate_corpus, generate_inputs, generate_program

from conftest import MEMO_CFG, unwind_fixture


ADVERSARIAL = """\
#entry main
#adversarial true

fn main {
b0:
  spadd -16
  call victim
  ret
}

fn victim {
b0:
  corrupt 0, 12345
  ret
}
"""

PARENT_ATTACK = """\
#entry main
#adversarial true

fn main {
b0:
  spadd -16
  call mid
  ret
}

fn mid {
b0:
  call deep
  ret
}

fn deep {
b0:
  corrupt 1, 777777
  ret
}
"""


def instrument(text, mode):
    p = parse_program(text)
    _, plan = plan_program(p)
    return p, apply_plan(p, plan, mode)


def test_uninstrumented_benign_run(call_tree):
    trace, outcome = execute(call_tree, ExecInput((True, False)), 1000)
    assert outcome.kind == COMPLETED
    assert trace.shadow_ops == 0 and trace.shadow_instr == 0
    assert trace.final_shadow_top == 0


def test_corruption_aborts_at_pop_under_full():
    _, ip = instrument(ADVERSARIAL, "FULL")
    trace, outcome = execute(ip, ExecInput(), 1000, record=True)
    assert outcome.kind == ABORTED
    assert outcome.site[0] == "victim"
    assert any(e[0] == "abort" for e in trace.log)


def test_corruption_undetected_without_instrumentation():
    _, ip = instrument(ADVERSARIAL, "ELIDE-ALL")
    trace, outcome = execute(ip, ExecInput(), 1000)
    assert outcome.kind == UNDETECTED
    assert outcome.evidence[2] == 12345


def test_parent_frame_attack_detected_in_ancestor():
    _, ip = instrument(PARENT_ATTACK, "LIGHT")
    trace, outcome = execute(ip, ExecInput(), 1000, record=True)
    assert outcome.kind == ABORTED
    # ("corrupt", act, depth, target_act) and ("abort", act, fn, bid, idx)
    corrupt = next(e for e in trace.log if e[0] == "corrupt")
    abort = next(e for e in trace.log if e[0] == "abort")
    # the aborting check runs in an ancestor activation, not the corruptor's
    assert abort[1] == corrupt[3]
    assert abort[1] < corrupt[1]
    assert abort[2] == "mid"


def test_lowered_paths_memo_cfg(memo_cfg):
    _, plan = plan_program(memo_cfg)
    ip = apply_plan(memo_cfg, plan, "PO")
    compiled = compile(ip, analyze_program(ip.program))
    for decisions, ops in [((False,), 0), ((True, False), 0), ((True, True, False), 2)]:
        trace, outcome = execute(compiled, ExecInput(decisions), 1000)
        assert outcome.kind == COMPLETED
        assert trace.shadow_ops == ops
        assert not trace.height_violations


def test_unwind_matches_after_k():
    for k in (1, 2, 3):
        p = parse_program(unwind_fixture(k))
        _, plan = plan_program(p)
        ip = apply_plan(p, plan, "FULL")
        trace, outcome = execute(ip, ExecInput(), 1000, record=True)
        assert outcome.kind == COMPLETED
        matched = [e[5] for e in trace.log if e[0] == "pop"]     # e[5]: matched_after
        assert max(matched) == k
        assert not any(e[0] == "abort" for e in trace.log)
        assert trace.final_shadow_top == 0


def test_determinism():
    p = generate_program(424242, GenConfig(), adversarial=True)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "LIGHT")
    inp = generate_inputs(7, 1)[0]
    t1, o1 = execute(ip, inp, 5000, record=True)
    t2, o2 = execute(ip, inp, 5000, record=True)
    assert t1.log and t1.log == t2.log and o1 == o2


def test_budget_exhaustion():
    p = parse_program("fn main {\nb0:\n  br b1\nb1:\n  br b0\n}")
    _, outcome = execute(p, ExecInput(), 100)
    assert outcome.kind == BUDGET


def test_fault_on_bad_address():
    p = parse_program("fn main {\nb0:\n  movi r1, 3\n  store.reg r1\n  halt\n}")
    trace, outcome = execute(p, ExecInput(), 100)
    assert outcome.kind == FAULT
    assert "address" in outcome.evidence[0]


def test_fault_on_bad_icall_target():
    p = parse_program("fn main {\nb0:\n  movi r1, 99\n  icall r1\n  halt\n}")
    _, outcome = execute(p, ExecInput(), 100)
    assert outcome.kind == FAULT


def test_exhausted_decisions_take_false_branch():
    p = parse_program("fn main {\nb0:\n  brc b1, b2\nb1:\n  movi r0, 1\n  halt\nb2:\n  movi r0, 2\n  halt\n}")
    _, outcome = execute(p, ExecInput(()), 100)
    assert outcome.r0 == 2
    _, outcome = execute(p, ExecInput((True,)), 100)
    assert outcome.r0 == 1


def test_entry_function_return_completes():
    p = parse_program("fn main {\nb0:\n  movi r0, 9\n  ret\n}")
    _, outcome = execute(p, ExecInput(), 100)
    assert outcome.kind == COMPLETED and outcome.r0 == 9


def test_observables_capture_global_sequence():
    p = parse_program(
        "fn main {\nb0:\n  movi r0, 1\n  store.global a\n  movi r0, 2\n  store.global b\n  halt\n}"
    )
    trace, outcome = execute(p, ExecInput(), 100)
    assert observables(trace, outcome) == (COMPLETED, 2, (("a", 1), ("b", 2)))


def test_shadow_costs_charged_from_plan(memo_cfg):
    _, plan = plan_program(memo_cfg)
    ip = apply_plan(memo_cfg, plan, "PO")
    trace, _ = execute(ip, ExecInput((True, True, False)), 1000)
    # transition push (9+1, 6) plus pop (11, 6)
    assert trace.shadow_instr == 10 + 11
    assert trace.shadow_mem == 6 + 6


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_transparency_on_generated_programs(seed):
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=False)
    _, plan = plan_program(p)
    base_inp = generate_inputs(seed, 2)
    for mode in ("FULL", "SFE", "PO", "MO", "LIGHT"):
        ip = apply_plan(p, plan, mode)
        for inp in base_inp:
            assert observables(*execute(p, inp, 20000)) == observables(*execute(ip, inp, 20000))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_shadow_balance_and_height_checks(seed):
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=False)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "FULL")
    compiled = compile(ip, analyze_program(ip.program))
    for inp in generate_inputs(seed ^ 0x5EED, 2):
        trace, outcome = execute(compiled, inp, 20000)
        assert outcome.kind == COMPLETED
        assert trace.final_shadow_top == 0
        assert not trace.height_violations


# ---- a run's activation findings: the log walk is the reference ----

def _planned(target) -> set[str]:
    """The functions of `target` that a plan placed."""
    if isinstance(target, CompiledProgram):
        return {fn.name for fn in target.functions if fn.planned}
    return set(target.functions) if isinstance(target, InstrumentedProgram) else set()


def reference_activations(case, trace, outcome) -> list[str]:
    """The run's findings `check_activations` reports, as a walk over a
    recorded trace's event log: a planned function's activation returns
    with the shadow as deep as its call found it, and a completed run leaves
    the shadow empty."""
    where = f"{case.name}/{case.mode}"
    planned, calls, problems = _planned(case.target), {}, []
    # every call and ret event is (kind, act, fn, ..., shadow_top); the log is read by position
    for e in trace.log:
        if e[0] == "call":
            calls[e[1]] = e[-1]
        elif e[0] == "ret" and e[1] in calls and e[2] in planned and e[-1] != calls[e[1]]:
            message = f"shadow depth {e[-1]} at return, {calls[e[1]]} at call"
            problems.append((e[1], f"activation: {where} act {e[1]} fn {e[2]}: {message}"))
    problems = [m for _, m in sorted(problems, key=itemgetter(0))]
    if outcome.kind == COMPLETED and trace.final_shadow_top != 0:
        problems.append(f"activation: {where}: shadow not balanced at completion")
    return problems


def checked_run(case, compiled, budget):
    """Run `compiled` on the case's input unrecorded and recorded, and check
    the pair as `check_recording` does."""
    recorded = execute(compiled, case.inp, budget, record=True)
    return check_recording(case, execute(compiled, case.inp, budget), recorded, reference_activations(case, *recorded))


def check_recording(case, plain_run, recorded_run, reference):
    """Assert that recording changed nothing but the log, and that
    `check_activations` gives `reference`, the log walk's findings, first.
    Returns its messages."""
    (plain, outcome), (recorded, recorded_outcome) = plain_run, recorded_run
    assert plain.log == []
    assert recorded_outcome == outcome
    assert dataclasses.replace(recorded, log=[]) == plain
    problems = check_activations(case, plain, outcome)
    assert problems[:len(reference)] == reference, case.name
    return problems


def test_online_checks_and_recording_over_pinned_corpus(pinned_runs):
    runs, _ = pinned_runs
    for case, plain_run, recorded_run, reference in runs:
        assert check_recording(case, plain_run, recorded_run, reference) == reference


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.one_of(st.integers(1, 120), st.just(20000)))
def test_online_checks_match_log_walk_on_generated_programs(seed, adversarial, budget):
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=adversarial)
    _, plan = plan_program(p)
    inputs = generate_inputs(seed, 2)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        compiled = compile(ip, analyze_program(ip.program))
        for inp in inputs:
            checked_run(CampaignCase(f"g{seed}", mode, ip, inp, adversarial), compiled, budget)


def test_campaign_benign_has_no_aborts():
    cases = []
    for seed in range(5):
        p = generate_program(seed, GenConfig(max_functions=6), adversarial=False)
        _, plan = plan_program(p)
        for mode in ("FULL", "LIGHT"):
            ip = apply_plan(p, plan, mode)
            for inp in generate_inputs(seed, 2):
                cases.append(CampaignCase(f"p{seed}", mode, ip, inp, False))
    report = run_campaign(cases)
    assert report.fired == 0
    assert report.detected == 0 and report.undetected == 0
    assert not report.findings and not report.counts


def test_campaign_detects_under_light():
    cases = []
    for seed in range(8):
        p = generate_program(seed, GenConfig(max_functions=6), adversarial=True)
        _, plan = plan_program(p)
        ip = apply_plan(p, plan, "LIGHT")
        for inp in generate_inputs(seed, 3):
            cases.append(CampaignCase(f"p{seed}", "LIGHT", ip, inp, True))
    report = run_campaign(cases)
    assert report.fired > 0
    assert report.detected == report.fired
    assert report.undetected == 0


def _campaign_view(report):
    """The report with each counterexample's case as (name, mode, input), so
    reports over differently held targets compare equal."""
    return dataclasses.replace(
        report, counterexamples=[((c.name, c.mode, c.inp), trace) for c, trace in report.counterexamples]
    )


def test_campaign_runs_compiled_and_uncompiled_targets_alike():
    # a case runs its target as execute runs it: an InstrumentedProgram is
    # compiled without checks for each run, a compiled one is shared by its cases
    held, compiled = [], []
    for name, p in generate_corpus(GenConfig(seed=41, count=6, attack_density=0.5)):
        _, plan = plan_program(p)
        inputs = generate_inputs(len(name), 3)
        for mode in ("FULL", "LIGHT", "ELIDE-ALL"):
            ip = apply_plan(p, plan, mode)
            target = compile(ip)
            held += [CampaignCase(name, mode, ip, inp, p.adversarial) for inp in inputs]
            compiled += [CampaignCase(name, mode, target, inp, p.adversarial) for inp in inputs]
    report = run_campaign(held)
    assert report.fired and report.undetected and report.counterexamples
    assert _campaign_view(report) == _campaign_view(run_campaign(compiled))


def test_campaign_consumes_any_iterable_once_in_order():
    # an iterator of cases gives the report the list gives: benign and
    # adversarial programs, sound modes and the ELIDE-ALL control
    cases = []
    for name, p in generate_corpus(GenConfig(seed=41, count=6, attack_density=0.5)):
        _, plan = plan_program(p)
        inputs = generate_inputs(len(name), 3)
        for mode in ("FULL", "LIGHT", "ELIDE-ALL"):
            target = compile(apply_plan(p, plan, mode))
            cases += [CampaignCase(name, mode, target, inp, p.adversarial) for inp in inputs]
    assert {c.adversarial for c in cases} == {False, True}
    report = run_campaign(cases)
    assert report.cases == len(cases) and report.fired and report.undetected and report.counterexamples
    assert _campaign_view(run_campaign(iter(cases))) == _campaign_view(report)


def test_campaign_keeps_first_violations_and_counts_all():
    # past MAX_VIOLATIONS findings a campaign only counts them, per kind, activation problems too
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    push = "b2000:\n  spush -16\n"
    doubled = parse_program(print_program(ip.program).replace(push, push + "  spush -16\n"))
    tainted = ExecInput((True, True, False))
    # each run of the first case has one height violation, of the second, activation problems
    skewed = CampaignCase("memo", "BASE", compile(p, analyze_program(_twin(p))), tainted, False)
    target = compile(InstrumentedProgram(doubled, ip.mode, ip.functions), analyze_program(doubled))
    cases = [skewed] * MAX_VIOLATIONS + [CampaignCase("memo", "PO", target, tainted, False)] * 3
    every = [f for case in cases for f in run_campaign([case]).findings]
    report = run_campaign(cases)
    assert report.findings == every[:MAX_VIOLATIONS] and sum(report.counts.values()) == len(every)
    assert report.counts == Counter(f.kind for f in every)
    assert report.counts["activation"] == sum(f.text.startswith("activation: ") for f in every) > 0
    assert not any(f.text.startswith("activation: ") for f in report.findings)


def test_campaign_keeps_first_counterexamples_only():
    # every miss is counted, but only the first three keep their whole trace
    _, ip = instrument(ADVERSARIAL, "ELIDE-ALL")
    cases = [CampaignCase(f"p{i}", "ELIDE-ALL", ip, ExecInput(), True, budget=1000) for i in range(5)]
    report = run_campaign(cases)
    assert report.fired == report.undetected == 5
    assert [case.name for case, _ in report.counterexamples] == ["p0", "p1", "p2"]
    assert all(trace.corruptions for _, trace in report.counterexamples)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans())
def test_checks_share_input_facts(seed, adversarial):
    # a function the mode left alone keeps the input's fact objects; mapped
    # rewrites, inlined ones included, are compared with fresh analysis in
    # test_transform
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=adversarial)
    analysis, plan = plan_program(p)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        checks = build_checks(ip, p, analysis)
        assert checks.liveness == {} and list(checks.heights) == list(ip.program.functions)
        for name, fn in ip.program.functions.items():
            if fn is p.functions[name]:
                assert checks.heights[name] is analysis.heights[name], (mode, name)


def _retouched(ip, name, bid, idx, ins):
    """`ip` with instruction `idx` of block `bid` of function `name` replaced
    by `ins`; nothing `ip` holds is changed."""
    fn = ip.program.functions[name]
    block = fn.blocks[bid]
    blocks = {**fn.blocks, bid: Block(bid, block.instrs[:idx] + (ins,) + block.instrs[idx + 1:])}
    functions = {**ip.program.functions, name: Function(name, blocks)}
    return InstrumentedProgram(Program(functions, ip.program.entry, ip.program.adversarial), ip.mode, ip.functions)


def test_mapped_checks_catch_a_moved_store(call_tree):
    # b stores at height -8 (store.sp 8 after spadd -16).  An apply_plan that
    # moved the store to -16 is not its input, so no checks map onto it.
    # Re-analysis describes the moved store, and reports nothing.
    analysis, plan = plan_program(call_tree)
    ip = apply_plan(call_tree, plan, "FULL")
    idx = next(i for i, ins in enumerate(ip.program.functions["b"].blocks[0].instrs) if ins.opcode == "store.sp")
    moved = _retouched(ip, "b", 0, idx, Instr("store.sp", (0,)))
    inp = ExecInput((True, False))
    trace, outcome = execute(compile(ip, build_checks(ip, call_tree, analysis)), inp, 1000)
    assert outcome.kind == COMPLETED and trace.height_violations == []
    with pytest.raises(CheckMappingError, match=rf"^b\.b0\[{idx}\]: store\.sp 0 where input b0\[1\] has store\.sp 8$"):
        build_checks(moved, call_tree, analysis)
    trace, _ = execute(compile(moved, analyze_program(moved.program)), inp, 1000)
    assert trace.height_violations == []


def test_unmappable_rewrite_raises(call_tree):
    # an output instruction that is not its input's, shadow operations aside
    analysis, plan = plan_program(call_tree)
    ip = apply_plan(call_tree, plan, "FULL")
    last = len(ip.program.functions["b"].blocks[0].instrs) - 1
    halts = _retouched(ip, "b", 0, last, Instr("halt"))
    with pytest.raises(CheckMappingError, match=rf"^b\.b0\[{last}\]: halt where input b0\[4\] has ret$"):
        build_checks(halts, call_tree, analysis)
    assert [i.opcode for i in ip.program.functions["b"].blocks[0].instrs[:2]] == ["spush", "spadd"]
    dropped = _retouched(ip, "b", 0, 1, Instr("spop"))
    with pytest.raises(CheckMappingError, match=r"^b\.b0\[2\]: store\.sp where input b0\[0\] has spadd$"):
        build_checks(dropped, call_tree, analysis)


def test_mapping_failures_name_what_is_missing(call_tree):
    # the mapping's other refusals: an input without the function or block,
    # a transition block with more than its push and branch, a block cut short
    analysis, plan = plan_program(call_tree)
    ip = apply_plan(call_tree, plan, "FULL")
    without_b = Program({n: fn for n, fn in call_tree.functions.items() if n != "b"}, call_tree.entry)
    with pytest.raises(CheckMappingError, match=r"^b: no input function to map checks from$"):
        build_checks(ip, without_b, analysis)

    def with_b(blocks):
        functions = {**ip.program.functions, "b": Function("b", blocks)}
        return InstrumentedProgram(Program(functions, ip.program.entry, ip.program.adversarial), ip.mode, ip.functions)

    b0 = ip.program.functions["b"].blocks[0]
    with pytest.raises(CheckMappingError, match=r"^b\.b9: no input block b9$"):
        build_checks(with_b({0: b0, 9: Block(9, (Instr("ret"),))}), call_tree, analysis)
    assert [i.opcode for i in b0.instrs[-2:]] == ["spop", "ret"]
    with pytest.raises(CheckMappingError, match=r"^b\.b0: ends where input b0\[4\] has ret$"):
        build_checks(with_b({0: Block(0, b0.instrs[:-1])}), call_tree, analysis)

    p = parse_program(MEMO_CALLER)
    analysis, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    assert [i.opcode for i in ip.program.functions["memo"].blocks[2000].instrs] == ["spush", "br"]
    with pytest.raises(CheckMappingError, match=r"^memo\.b2000: transition block holds more than a push and a branch$"):
        build_checks(_retouched(ip, "memo", 2000, 0, Instr("movi", (1, 1))), p, analysis)


def test_retouched_operand_in_a_clone_block_raises():
    # memo's clone b1004 holds its unsafe store.  A changed operand keeps
    # every opcode, and the mapping compares whole instructions
    p = parse_program(MEMO_CALLER)
    analysis, plan = plan_program(p)
    ip = apply_plan(p, plan, "LIGHT")
    clone = ip.program.functions["memo"].blocks[1004].instrs
    assert [i.text for i in clone] == ["movi r9, 512", "store.reg r9", "brc b1002, b1007"]
    with pytest.raises(CheckMappingError, match=r"^memo\.b1004\[1\]: store\.reg r8 where input b4\[1\] has store\.reg r9$"):
        build_checks(_retouched(ip, "memo", 1004, 1, Instr("store.reg", (8,))), p, analysis)
    # a branch target is compared once mapped back to its input block
    with pytest.raises(CheckMappingError, match=r"^memo\.b1004\[2\]: brc b1002, b1004 where input b4\[2\] has brc b2, b7$"):
        build_checks(_retouched(ip, "memo", 1004, 2, Instr("brc", (1002, 1004))), p, analysis)
    # the transition block of the edge b3 -> b4 enters b4's clone, not b4
    assert ip.functions["memo"].transition_blocks == {2000: (3, 4)}
    with pytest.raises(CheckMappingError, match=r"^memo\.b2000: transition block does not branch to the clone of b4$"):
        build_checks(_retouched(ip, "memo", 2000, 1, Instr("br", (4,))), p, analysis)


@pytest.mark.parametrize("mode", ["MO", "LIGHT"])
def test_tampered_inlined_body_raises(mode):
    # the store main inlines from tiny is checked against tiny's own facts,
    # not analysed again on the tampered output
    p = parse_program(
        "#entry main\nfn main {\nb0:\n  spadd -16\n  call tiny\n  spadd 16\n  halt\n}\n"
        "fn tiny {\nb0:\n  movi r3, 256\n  store.reg r3\n  ret\n}"
    )
    analysis, plan = plan_program(p)
    ip = apply_plan(p, plan, mode)
    assert ip.functions["main"].inlined_calls == ((0, 1, "tiny"),)
    main = ip.program.functions["main"].blocks[0].instrs
    idx = next(i for i, ins in enumerate(main) if ins.opcode == "store.reg")
    tampered = _retouched(ip, "main", 0, idx, Instr("store.sp", (8,)))
    with pytest.raises(CheckMappingError, match=rf"^main\.b0\[{idx}\]: store\.sp where input tiny\.b0\[1\] has store\.reg$"):
        build_checks(tampered, p, analysis)
    checks = build_checks(ip, p, analysis)
    assert checks.heights["main"].stores[(0, idx)] == analysis.heights["tiny"].stores[(0, 1)]
    assert checks.heights["main"] is not analysis.heights["tiny"]
    assert write_class(checks.heights["main"].stores[(0, idx)]) == UNSAFE


def test_each_rewrite_is_mapped_once_and_never_served_stale_facts(monkeypatch, call_tree):
    from shadowlab import cli, transform

    # every function object a verify pass maps, and every rewritten one its
    # targets hold, kept alive so no id is reused
    walked, rewritten, visits = [], {}, [0]
    mapped_facts, checks_of = transform._mapped_facts, cli.build_checks

    def walk(originals, fn, rf, analysis):
        walked.append(fn)
        return mapped_facts(originals, fn, rf, analysis)

    def checks(ip, source, analysis):
        fns = [fn for name, fn in ip.program.functions.items() if fn is not source.functions[name]]
        visits[0] += len(fns)
        rewritten.update((id(fn), fn) for fn in fns)
        return checks_of(ip, source, analysis)

    monkeypatch.setattr(transform, "_mapped_facts", walk)
    monkeypatch.setattr(cli, "build_checks", checks)
    report, _ = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    # modes share rewrites, and each is walked once
    assert report["checks"]["height_soundness"] and len(walked) == len(rewritten) < visits[0]
    assert len({id(fn) for fn in walked}) == len(walked)

    # a rewrite's facts serve only its own output function ...
    analysis, plan = plan_program(call_tree)
    ip = apply_plan(call_tree, plan, "FULL")
    honest = build_checks(ip, call_tree, analysis)
    idx = next(i for i, ins in enumerate(ip.program.functions["b"].blocks[0].instrs) if ins.opcode == "store.sp")
    with pytest.raises(CheckMappingError, match=rf"^b\.b0\[{idx}\]: store\.sp 0 where input b0\[1\] has store\.sp 8$"):
        build_checks(_retouched(ip, "b", 0, idx, Instr("store.sp", (0,))), call_tree, analysis)
    assert build_checks(ip, call_tree, analysis).heights["b"] is honest.heights["b"]
    assert honest.heights["b"].stores[(0, idx)] == analysis.heights["b"].stores[(0, 1)]
    assert honest.heights["b"] is not analysis.heights["b"]
    # ... and only the input program they came from
    moved = _retouched(InstrumentedProgram(call_tree, "BASE", {}), "b", 0, 1, Instr("store.sp", (0,))).program
    with pytest.raises(CheckMappingError, match=rf"^b\.b0\[{idx}\]: store\.sp 8 where input b0\[1\] has store\.sp 0$"):
        build_checks(ip, moved, analysis)
    # ... and only the analysis they came from
    fresh = analyze_program(call_tree)
    again = build_checks(ip, call_tree, fresh)
    assert again.heights["b"].stores[(0, idx)] == fresh.heights["b"].stores[(0, 1)]
    assert again.heights["b"] is not honest.heights["b"]


# main calls MEMO_CFG's memo, which PO lowers: its tainted walk goes through
# the transition block b2000 (push) and, for the input (1, 1, 0), the clones
# b1004 (an unsafe store) and b1007 (pop); the input (0,) takes the safe walk
# b1 -> b6.  main is fully instrumented.
MEMO_CALLER = (
    "#entry main\n\nfn main {\nb0:\n  spadd -16\n  call memo\n  spadd 16\n  ret\n}\n\n"
    + MEMO_CFG.replace("#entry memo\n", "")
)


_MEMO_TAINTED, _MEMO_SAFE = ExecInput((True, True, False)), ExecInput((False,))


def _edited_memo_po(edits):
    """MEMO_CALLER under PO with `edits` made to its text, as a target that
    runs under the unedited plan, compiled with its own analyses."""
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    edited = print_program(ip.program)
    for old, new in edits:
        assert edited.count(old) == 1, old
        edited = edited.replace(old, new)
    program = parse_program(edited)
    target = InstrumentedProgram(program, ip.mode, ip.functions)
    return target, compile(target, analyze_program(program))


def _memo_walks(target):
    """What the static walk finds of memo's output function in `target`, its
    unsafe stores as the target's own analysis classes them."""
    stores = analyze_program(target.program).heights["memo"].stores
    return activation_walks(target.program.functions["memo"], target.functions["memo"], stores)


_PUSH, _POP = "b2000:\n  spush -16\n", "b1007:\n  spop\n"
_STORE = "b1004:\n  movi r9, 512\n  store.reg r9\n"
_SAFE_EXIT = "  store.sp 0\n  ret\nb2000:"
# hand edits of memo's walks under PO, each with an input, what the static
# walk finds of memo's output function, sorted, and what the run finds of
# memo's activation.  The walk takes every path: b1004 -> b1002 -> b1003 -> b1004
# loops in the tainted region, and the clone b1006 pops too.
MEMO_EDITS = [
    # an extra push: two pushes, and one more shadow entry at the return
    ([(_PUSH, _PUSH + "  spush -16\n")], _MEMO_TAINTED,
     ["tainted walk executed 2 pushes, 1 pops"], ["shadow depth 2 at return, 1 at call"]),
    # no push: the run's pop finds no match and aborts
    ([(_PUSH, "b2000:\n")], _MEMO_TAINTED, ["tainted walk executed 0 pushes, 1 pops"], []),
    ([(_POP, "b1007:\n")], _MEMO_TAINTED,
     ["tainted walk executed 1 pushes, 0 pops"], ["shadow depth 2 at return, 1 at call"]),
    # the pop, a register-frame one fed the on-stack address, comes first
    ([(_PUSH, "b2000:\n  load.sp r9, 16\n  rfpop r9\n  rfpush r9\n"), (_POP, "b1007:\n")], _MEMO_TAINTED,
     ["pop before push", "tainted walk executed 1 pushes, 2 pops", "unsafe store after the covering pop"], []),
    ([(_PUSH, "b2000:\n"), (_STORE, _STORE + "  spush -16\n")], _MEMO_TAINTED,
     ["tainted walk executed 2 pushes, 1 pops", "unsafe store before the covering push"], []),
    ([(_POP, "b1007:\n"), (_STORE, "b1004:\n  movi r9, 512\n  spop\n  store.reg r9\n")], _MEMO_TAINTED,
     ["tainted walk executed 1 pushes, 2 pops", "unsafe store after the covering pop"], []),
    # a register-frame pop leaves the walk's shadow push in place
    ([(_POP, "b1007:\n  load.sp r9, 16\n  rfpop r9\n")], _MEMO_TAINTED, [], ["shadow depth 2 at return, 1 at call"]),
    ([(_SAFE_EXIT, "  store.sp 0\n  spush -16\n  spop\n  ret\nb2000:")], _MEMO_SAFE,
     ["safe walk executed shadow operations"], []),
    ([(_SAFE_EXIT, "  movi r9, 512\n  store.reg r9\n  ret\nb2000:")], _MEMO_SAFE,
     ["unsafe store on a walk that never left safe blocks"], []),
]
# main's pop dropped: every activation passes, but the completed run leaves
# the shadow unbalanced
MEMO_UNBALANCED = [("  spadd 16\n  spop\n", "  spadd 16\n")]


def test_activation_problems_are_reported():
    where = "memo/PO act 1 fn memo"

    def problems(edits, inp=_MEMO_TAINTED, budget=1000):
        target, compiled = _edited_memo_po(edits)
        return _memo_walks(target), checked_run(CampaignCase("memo", "PO", compiled, inp, False), compiled, budget)

    assert problems([]) == ([], []) and problems([], _MEMO_SAFE) == ([], [])
    # cut off after the push in b2000, which its `brc` entered, before b2000's `br`
    assert problems([], budget=10) == ([], [])
    for edits, inp, walks, runs in MEMO_EDITS:
        assert problems(edits, inp) == (walks, [f"activation: {where}: {m}" for m in runs]), edits
    assert problems(MEMO_UNBALANCED) == ([], ["activation: memo/PO: shadow not balanced at completion"])
    # check_activations adds the static findings of an instrumented target:
    # the claims', of the push no shadow operation places, then the walk's
    target, compiled = _edited_memo_po(MEMO_EDITS[0][0])
    case = CampaignCase("memo", "PO", target, _MEMO_TAINTED, False)
    assert checked_run(case, compiled, 1000) == [
        f"activation: {where}: shadow depth 2 at return, 1 at call",
        "activation: memo/PO fn memo: shadow instructions and op_costs differ at [(2000, 1)]",
        "activation: memo/PO fn memo: shadow instructions ['spush', 'spush', 'spop', 'spop'] where shadow_ops has"
        " ['spush', 'spop', 'spop']",
        "activation: memo/PO fn memo: tainted walk executed 2 pushes, 1 pops",
    ]
    # ... and raises where they cannot be mapped
    target, compiled = _edited_memo_po(MEMO_EDITS[3][0])
    with pytest.raises(CheckMappingError, match=r"^memo\.b2000: transition block holds more than a push and a branch$"):
        checked_run(dataclasses.replace(case, target=target), compiled, 1000)


def reference_run_campaign(cases: list[CampaignCase]) -> CampaignReport:
    """`run_campaign` with every run's activation findings from the log walk
    of its recorded run, each finding counted and kept here."""
    report = CampaignReport()

    def found(kind, *texts):
        for text in texts:
            report.counts[kind] += 1
            if len(report.findings) < MAX_VIOLATIONS:
                report.findings.append(Finding(kind, case.name, case.mode, text))

    for case in cases:
        trace, outcome = execute(case.target, case.inp, case.budget)
        report.cases += 1
        if trace.corruptions:
            report.fired += 1
            if outcome.kind == ABORTED:
                report.detected += 1
            elif outcome.kind == UNDETECTED:
                report.undetected += 1
                if len(report.counterexamples) < MAX_COUNTEREXAMPLES:
                    report.counterexamples.append((case, trace))
            else:
                found("outcome", f"{case.name}/{case.mode}: corruption fired but run ended {outcome.kind}")
        elif outcome.kind not in (COMPLETED,):
            found("outcome", f"{case.name}/{case.mode}: benign-path run ended {outcome.kind}")

        for v in trace.height_violations:
            found("height", f"{case.name}/{case.mode}: height violation {v}")
        found("activation", *reference_activations(case, *execute(case.target, case.inp, case.budget, record=True)))
    return report


# an uninstrumented main that pushes and never pops: no planned activation,
# so no activation problem, but the completed run leaves the shadow unbalanced
PUSH_ONLY = "#entry main\n\nfn main {\nb0:\n  spush 0\n  ret\n}\n"


def test_campaign_checks_activations_only_where_they_report():
    # activation problems, unbalanced completions without one, and clean
    # runs: skipping check_activations on a run it has nothing to say about
    # changes nothing in the report
    cases = []
    for edits, inp, _, _ in MEMO_EDITS:
        target, compiled = _edited_memo_po(edits)
        cases += [CampaignCase("memo", "PO", compiled, inp, False), CampaignCase("memo", "PO", target, inp, False)]
    _, compiled = _edited_memo_po(MEMO_UNBALANCED)
    cases.append(CampaignCase("memo", "PO", compiled, _MEMO_TAINTED, False))
    cases.append(CampaignCase("push-only", "BASE", parse_program(PUSH_ONLY), ExecInput(), False))
    # one run with height violations and activation problems: memo's extra
    # push, checked against its twin's analyses
    target, _ = _edited_memo_po(MEMO_EDITS[0][0])
    twin = compile(target, analyze_program(_twin(target.program)))
    cases.append(CampaignCase("memo-twin", "PO", twin, _MEMO_TAINTED, False))
    alone = run_campaign(cases[-1:])
    assert alone.counts["height"] and alone.counts["activation"]
    for name, p in generate_corpus(GenConfig(seed=7, count=4, attack_density=0.5)):
        _, plan = plan_program(p)
        for mode in ("FULL", "LIGHT", "ELIDE-ALL"):
            ip = apply_plan(p, plan, mode)
            target = compile(ip, analyze_program(ip.program))
            cases += [CampaignCase(name, mode, target, inp, p.adversarial) for inp in generate_inputs(len(name), 3)]
    expected = reference_run_campaign(cases)
    unbalanced = [f.text for f in expected.findings if f.text.endswith(": shadow not balanced at completion")]
    assert [m.split(":")[1].strip() for m in unbalanced] == ["memo/PO", "push-only/BASE"]
    assert expected.counts["activation"] > len(unbalanced) and expected.fired
    assert sum(expected.counts.values()) < MAX_VIOLATIONS
    assert _campaign_view(run_campaign(cases)) == _campaign_view(expected)


def test_second_push_is_found_by_the_walk_whatever_cuts_the_run():
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    tainted = ExecInput((True, True, False))
    # step 9 enters memo's transition block b2000, step 10 is its push: a run
    # cut there finds nothing, and neither does the walk
    compiled = compile(ip, analyze_program(ip.program))
    case = CampaignCase("memo", "PO", compiled, tainted, False)
    for budget in (9, 10):
        assert execute(compiled, tainted, budget)[1].kind == BUDGET
        assert checked_run(case, compiled, budget) == [], budget
    assert _memo_walks(ip) == []
    # a second push: no run cut before memo returns finds it, the walk does
    text = print_program(ip.program)
    assert text.count("b2000:\n  spush -16\n") == 1
    doubled = parse_program(text.replace("b2000:\n  spush -16\n", "b2000:\n  spush -16\n  spush -16\n"))
    target = InstrumentedProgram(doubled, ip.mode, ip.functions)
    compiled = compile(target, analyze_program(doubled))
    case = CampaignCase("memo", "PO", compiled, tainted, False)
    assert checked_run(case, compiled, 10) == checked_run(case, compiled, 11) == []
    assert _memo_walks(target) == ["tainted walk executed 2 pushes, 1 pops"]


# f's tainted walk starts at an unconditional `br` into its transition block;
# on the input (1, 1) g unwinds past f, so f's walk never pops, yet the run
# completes.
BR_TAINTED_WALK = """\
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
  brc b1, b3
b1:
  movi r1, 1
  br b2
b2:
  movi r9, 512
  store.reg r9
  call g
  spadd 16
  ret
b3:
  spadd 16
  ret
}

fn g {
b0:
  brc b1, b2
b1:
  unwind 2
  ret
b2:
  ret
}
"""


def test_activation_checks_follow_br_entry_and_unwind():
    p = parse_program(BR_TAINTED_WALK)
    analysis, plan = plan_program(p)
    for mode in ("PO", "LIGHT"):
        ip = apply_plan(p, plan, mode)
        assert ip.functions["f"].mode == FN_LOWERED
        assert check_rewrites(ip, p, analysis) == []
        compiled = compile(ip, analyze_program(ip.program))
        # the walk into the transition block through f's `br` is tainted
        text = print_program(ip.program)
        assert text.count("b2000:\n  spush -16\n") == 1
        unpushed = InstrumentedProgram(parse_program(text.replace("b2000:\n  spush -16\n", "b2000:\n")), mode, ip.functions)
        assert check_rewrites(unpushed) == [
            ("f", "shadow instructions and op_costs differ at [(2000, 0)]"),
            ("f", "shadow instructions ['spop'] where shadow_ops has ['spush', 'spop']"),
            ("f", "tainted walk executed 0 pushes, 1 pops"),
        ]
        # f's walk through g's unwind never pops, which only the run sees:
        # the shadow is left unbalanced
        expected = {
            (True, False): [],
            (False,): [],
            (True, True): [f"activation: br/{mode}: shadow not balanced at completion"],
        }
        for decisions, problems in expected.items():
            case = CampaignCase("br", mode, ip, ExecInput(decisions), False)
            assert checked_run(case, compiled, 1000) == problems, decisions
    # g, which no mode instruments, edited to leave a shadow entry behind
    text = print_program(ip.program)
    assert text.count("b2:\n  ret\n}") == 1
    target = InstrumentedProgram(parse_program(text.replace("b2:\n  ret\n}", "b2:\n  spush 0\n  ret\n}")), mode, ip.functions)
    case = CampaignCase("br", mode, target, ExecInput((True, False)), False)
    assert checked_run(case, compile(target, analyze_program(target.program)), 1000) == [
        f"activation: br/{mode} act 2 fn g: shadow depth 3 at return, 2 at call"
    ]


def test_trace_serialization_forms(call_tree):
    trace, outcome = execute(call_tree, ExecInput((True,)), 1000, record=True)
    lines = trace.to_lines()
    assert lines and all(isinstance(l, str) for l in lines)
    blob = trace.to_json()
    assert blob["instr_count"] == trace.instr_count
    assert isinstance(blob["events"], list)


# ---- equivalence pin: VM behaviour over a fixed corpus, every mode ----

# sha256 of every run's trace, height violations, final shadow depth and
# outcome below, recorded before the VM was split into compile and run: a
# change here means the VM's observable behaviour changed.  Re-recorded once,
# when the step loop stopped checking dead registers: the value is the
# earlier digest's computation with each run's liveness violations dropped
# from its record.  Its runs come from the `pinned_runs` fixture, which
# compiles each target once for all its inputs.
PINNED_VM_DIGEST = "e74fa9f6a203559f1dcd31cdf5e36fdd67772c38755eb1ecbb9d57eba5cdfe82"


def _pinned_programs():
    from conftest import CALL_TREE, FIXTURE_CHASE, FIXTURE_DIAMOND, FIXTURE_INLINE, FIXTURE_REGFRAME, MEMO_CFG

    yield from generate_corpus(GenConfig(seed=31, count=20, attack_density=0.5))
    fixtures = [CALL_TREE, MEMO_CFG, FIXTURE_CHASE, FIXTURE_REGFRAME, FIXTURE_INLINE, FIXTURE_DIAMOND]
    fixtures += [ADVERSARIAL, PARENT_ATTACK] + [unwind_fixture(k) for k in (1, 2, 3)]
    fixtures += [
        "fn main {\nb0:\n  movi r1, 3\n  store.reg r1\n  halt\n}",
        "fn main {\nb0:\n  movi r1, 99\n  icall r1\n  halt\n}",
        "fn main {\nb0:\n  call main\n  ret\n}",
        # checks stop at an unwind: after it this store's analysed height no
        # longer fits
        "fn main {\nb0:\n  call u1\n  movi r0, 0\n  halt\n}\n\nfn u1 {\nb0:\n  call u2\n  ret\n}\n\n"
        "fn u2 {\nb0:\n  spadd -16\n  unwind 1\n  movr r0, r2\n  store.sp 8\n  spadd 16\n  ret\n}",
        "fn main {\nb0:\n  call u1\n  halt\n}\n\nfn u1 {\nb0:\n  unwind 2\n  ret\n}",
    ]
    for i, text in enumerate(fixtures):
        yield f"fixture{i}", parse_program(text)


def _twin(p):
    """Same blocks and indices, other frame sizes and registers: its analyses
    do not fit `p`, so checking `p` against them records violations."""
    text = re.sub(r"spadd (-?\d+)", lambda m: f"spadd {int(m[1]) - 8}", print_program(p))
    return parse_program(re.sub(r"\br([1-9]\d*)\b", lambda m: f"r{int(m[1]) % 15 + 1}", text))


def _pinned_runs():
    """(label, target, checks, inputs, budget) for each program and mode, with
    and without checks; one short budget so the budget outcome shows too."""
    for name, p in _pinned_programs():
        _, plan = plan_program(p)
        inputs = generate_inputs(len(name) * 101 + len(p.functions), 3)
        yield f"{name}/BASE/twin", p, analyze_program(_twin(p)), inputs, 20000
        targets = [("BASE", p)] + [(m, apply_plan(p, plan, m)) for m in MODES]
        for mode, target in targets:
            checks = analyze_program(target if mode == "BASE" else target.program)
            for with_checks in (False, True):
                yield f"{name}/{mode}/{with_checks}", target, checks if with_checks else None, inputs, 20000
            yield f"{name}/{mode}/short", target, checks, inputs[:1], 12


@pytest.fixture(scope="module")
def pinned_runs():
    """Every run of `_pinned_runs`, executed once for the tests that read it.

    Returns the runs and the sha256 the VM pin checks.  Each run is (case,
    unrecorded run, recorded run, the log walk's problems), a run being a
    (trace, outcome).  A recorded trace is hashed and walked here, then kept
    without its log: 660k live events would make every later collection of
    the cyclic GC slow."""
    runs, digest = [], hashlib.sha256()
    for label, target, checks, inputs, budget in _pinned_runs():
        ip = target if isinstance(target, InstrumentedProgram) else InstrumentedProgram(target, "BASE", {})
        compiled = compile(ip, checks)
        for inp in inputs:
            case = CampaignCase(label, ip.mode, ip, inp, False, budget=budget)
            recorded, outcome = execute(compiled, inp, budget, record=True)
            digest.update(json.dumps([label, _run_record(recorded, outcome)], sort_keys=True).encode())
            reference = reference_activations(case, recorded, outcome)
            recorded_run = (dataclasses.replace(recorded, log=[]), outcome)
            runs.append((case, execute(compiled, inp, budget), recorded_run, reference))
    return runs, digest.hexdigest()


def _run_record(trace, outcome) -> list:
    return [
        trace.to_json(),
        [list(v) for v in trace.height_violations],
        trace.final_shadow_top,
        [outcome.kind, outcome.site, outcome.evidence, outcome.r0],
    ]


def test_vm_equivalence_pin(pinned_runs):
    _, digest = pinned_runs
    assert digest == PINNED_VM_DIGEST


# The functions, per program of `_pinned_runs`, in whose runs the step loop
# found a read of a register the dead masks called dead, while it checked
# them on every step: all of them checked against the twin's analyses.
PINNED_LIVENESS_VIOLATIONS = {
    "fixture0": "a f", "fixture2": "chasefn", "fixture3": "rleaf", "fixture4": "id main", "fixture5": "main",
    "fixture11": "main", "fixture12": "main", "prog_0000": "f1 f2 main", "prog_0001": "f1 f7 f8 f9 main",
    "prog_0002": "f1 f2", "prog_0003": "f5 f7 main", "prog_0004": "f3 f4 f7 f8 f9", "prog_0005": "f2 f3 main",
    "prog_0006": "f2 f4 main", "prog_0007": "f1 f2 main", "prog_0008": "f2 f3 f4 f5 f6 f7 main",
    "prog_0009": "f1 f2 f4 main", "prog_0010": "f3 f4 main", "prog_0011": "f1 f2 f6 f7 main", "prog_0012": "f5 f6",
    "prog_0013": "f5 f9", "prog_0014": "f1 f2 f3 main", "prog_0015": "f1 f3 main", "prog_0016": "f4 f5 f6 f7 main",
    "prog_0017": "f2 f3 f4", "prog_0018": "f2 f4 main", "prog_0019": "f2 f4 f5 f6 f7 main",
}


def test_dead_register_findings_flag_every_read_the_step_loop_found():
    # the static check flags each of them, and no function checked against
    # its own analysis, instrumented or not
    flagged = set()
    for label, target, checks, _, _ in _pinned_runs():
        program = target.program if isinstance(target, InstrumentedProgram) else target
        if checks is not None:
            flagged.update(
                (label, name) for name, fn in program.functions.items()
                if dead_register_findings(fn, checks.liveness[name])
            )
    found = {(f"{name}/BASE/twin", fn) for name, fns in PINNED_LIVENESS_VIOLATIONS.items() for fn in fns.split()}
    assert len(found) == 83 and found <= flagged
    assert all(label.endswith("/BASE/twin") for label, _ in flagged)


def test_compiled_program_reused_across_inputs():
    programs = list(generate_corpus(GenConfig(seed=37, count=6, attack_density=0.5)))
    programs.append(("unwind", parse_program(unwind_fixture(2))))
    for name, p in programs:
        _, plan = plan_program(p)
        inputs = generate_inputs(len(name), 12)
        targets = [(p, analyze_program(_twin(p)))]
        for mode in ("FULL", "MO", "LIGHT"):
            ip = apply_plan(p, plan, mode)
            targets += [(ip, None), (ip, analyze_program(ip.program))]
        for target, checks in targets:
            compiled = compile(target, checks)
            for inp in inputs:
                fresh = execute(compile(target, checks), inp, 20000, record=True)
                assert execute(compiled, inp, 20000, record=True) == fresh, name


# ---- decoded functions shared between compiles ----

def _alone(ip: InstrumentedProgram) -> InstrumentedProgram:
    """`ip` with fresh ResolvedFunctions, so compiling it reuses no decode."""
    return InstrumentedProgram(
        ip.program, ip.mode, {n: dataclasses.replace(rf) for n, rf in ip.functions.items()}
    )


def test_a_replaced_rewrite_or_plan_keeps_none_of_the_originals_memos():
    # main is fully instrumented: one push and one pop, 9 + 11 shadow
    # instructions at the costs FULL gives them
    p = parse_program("#entry main\n\nfn main {\nb0:\n  movi r0, 7\n  halt\n}\n")
    analysis, plan = plan_program(p)
    ip = apply_plan(p, plan, "FULL")
    assert check_rewrites(ip, p, analysis) == []
    trace, outcome = execute(compile(ip, build_checks(ip, p, analysis)), ExecInput(()), 100)
    assert outcome.kind == COMPLETED and trace.shadow_instr == 20
    # a copy with ten times the costs runs and is checked at its own costs,
    # although the original was compiled and checked first
    rf = ip.functions["main"]
    tenfold = dataclasses.replace(rf, op_costs={at: (10 * i, 10 * m) for at, (i, m) in rf.op_costs.items()})
    copy = InstrumentedProgram(ip.program, "FULL", {"main": tenfold})
    trace, outcome = execute(compile(copy, build_checks(copy, p, analysis)), ExecInput(()), 100)
    assert outcome.kind == COMPLETED and trace.shadow_instr == 200
    assert check_rewrites(copy, p, analysis) == [
        ("main", "b0[0]: push costs (9, 6), op_costs charges (90, 60), its kind and flags give (9, 6)"),
        ("main", "b0[2]: pop costs (11, 6), op_costs charges (110, 60), its kind and flags give (11, 6)"),
    ]
    # a copy of the plan builds its own rewrites
    assert plan.rewrites and plan.spushes
    again = dataclasses.replace(plan, per_function=dict(plan.per_function))
    assert again.rewrites == {} and again.spushes == {}


def _decoded(compiled: CompiledProgram) -> list:
    return [(fn.name, fn.entry, fn.planned, fn.blocks) for fn in compiled.functions]


def _assert_runs_alone(compiled, ip, checks, inputs, label) -> None:
    """`compiled`, decoded from `ip` by a compile that may reuse decodes,
    decodes and runs as `ip` compiled alone."""
    alone = compile(_alone(ip), checks)
    assert _decoded(compiled) == _decoded(alone), label
    for inp in inputs:
        assert _run_view(execute(compiled, inp, 20000, True)) == _run_view(execute(alone, inp, 20000, True)), label


def _reuse_keys(ip: InstrumentedProgram, checks) -> list[tuple]:
    """Per function of `ip`, what a decode of it may be reused for: its
    ResolvedFunction, output function, store heights (by identity), first
    cookie, and callee indices."""
    index = {name: i for i, name in enumerate(ip.program.functions)}
    keys, cookie = [], 0
    for name, fn in ip.program.functions.items():
        calls = [ins for block in fn.blocks.values() for ins in block.instrs if ins.opcode in ("call", "icall")]
        hmap = checks.heights[name].stores if name in checks.heights else None
        callees = tuple(index.get(ins.args[0]) for ins in calls if ins.opcode == "call")
        keys.append((id(ip.functions[name]), id(fn), id(hmap), cookie, callees))
        cookie += len(calls)
    return keys


def test_prepared_modes_share_decodes_exactly_where_the_reuse_key_agrees(monkeypatch):
    # over both acceptance corpora in every mode, as verify prepares them
    from shadowlab import cli
    from test_acceptance import CAMPAIGN_CFG

    compiles = []

    def recording(target, checks=None):
        compiled = compile(target, checks)
        compiles.append((target, checks, compiled))
        return compiled

    monkeypatch.setattr(cli, "compile", recording)
    cfg = CAMPAIGN_CFG
    corpora = [(cfg.seed, cfg.benign_count, 0.0), (cfg.seed + 1, cfg.adversarial_count, 1.0)]
    shared = decoded = recookied = 0
    for seed, count, density in corpora:
        for name, p in generate_corpus(GenConfig(seed=seed, count=count, attack_density=density, budget=cfg.budget)):
            compiles.clear()
            prepared, _ = cli._prepare(name, p, cfg, MODES)
            assert len(compiles) == len(prepared.targets) == len(MODES), name
            # one decode per reuse key: equal keys share their blocks, other keys do not
            first = {}
            for ip, checks, compiled in compiles:
                for key, fn in zip(_reuse_keys(ip, checks), compiled.functions):
                    assert first.setdefault(key, fn.blocks) is fn.blocks, (name, ip.mode, fn.name)
            blocks = [fn.blocks for _, _, compiled in compiles for fn in compiled.functions]
            assert len({id(b) for b in blocks}) == len(first), name
            decoded += len(blocks)
            shared += len(blocks) - len(first)
            cookies = {}    # ResolvedFunction -> the first cookies it was decoded at
            for key in first:
                cookies.setdefault(key[0], set()).add(key[3])
            recookied += sum(len(c) > 1 for c in cookies.values())
            for ip, checks, compiled in compiles:
                _assert_runs_alone(compiled, ip, checks, prepared.inputs[:1], f"{name}/{ip.mode}")
    # some rewrites are decoded at two first cookies: a mode that inlines an
    # earlier function's calls numbers their calls from lower
    assert 0 < shared < decoded and recookied


# f2 is safe and calls d, which no mode inlines, so SFE and LIGHT give f2 the
# one elided rewrite; LIGHT inlines main's call to id, so f2's call there
# takes a cookie one lower.  id and d come last and make no call: swapping
# them moves no cookie, only the callee indices of main and f2.
DECODE_REUSE = """\
#entry main

fn main {
b0:
  movi r1, 41
  call id
  call f2
  store.global out
  halt
}

fn f2 {
b0:
  spadd -16
  call d
  spadd 16
  ret
}

fn id {
b0:
  movr r0, r1
  ret
}

fn d {
b0:
  spadd -8
  movi r0, 7
  spadd 8
  ret
}
"""


def test_decode_reuse_is_never_stale():
    p = parse_program(DECODE_REUSE)
    analysis, plan = plan_program(p)
    inputs = [ExecInput(), *generate_inputs(5, 2)]

    def recompiled(first, then, label):
        """Compile (target, checks) `first`, then `then`: return the shared
        function names of the two, after checking `then` runs alone."""
        before = {fn.name: fn.blocks for fn in compile(*first).functions}
        after = compile(*then)
        _assert_runs_alone(after, *then, inputs, label)
        return {fn.name for fn in after.functions if fn.blocks is before[fn.name]}

    sfe, light = apply_plan(p, plan, "SFE"), apply_plan(p, plan, "LIGHT")
    sfe_checks, light_checks = build_checks(sfe, p, analysis), build_checks(light, p, analysis)
    assert sfe.functions["f2"] is light.functions["f2"]
    assert sfe.program.functions["f2"] is light.program.functions["f2"]
    assert sfe_checks.heights["f2"].stores is light_checks.heights["f2"].stores
    # another first cookie, for every function after main: SFE's decodes do not serve LIGHT
    assert recompiled((sfe, sfe_checks), (light, light_checks), "cookie") == set()
    assert recompiled((light, light_checks), (light, light_checks), "same") == {"main", "f2", "id", "d"}
    f2_sfe, f2_light = (compile(ip, c).functions[1].blocks for ip, c in ((sfe, sfe_checks), (light, light_checks)))
    assert f2_sfe != f2_light

    for mode in ("FULL", "PO", "LIGHT"):
        ip = apply_plan(p, plan, mode)
        own = analyze_program(ip.program)
        twin = analyze_program(_twin(ip.program))
        # another analysis; other dead masks beside the same heights are not
        # read, so every decode is reused
        assert recompiled((ip, own), (ip, twin), f"{mode}/twin") == set()
        other = AnalysisChecks(own.heights, twin.liveness)
        assert recompiled((ip, own), (ip, other), f"{mode}/dead masks") == {"main", "f2", "id", "d"}
        assert recompiled((ip, own), (ip, AnalysisChecks(own.heights, {})), f"{mode}/no masks") == {"main", "f2", "id", "d"}
        # other store heights beside the same dead masks
        other = AnalysisChecks(twin.heights, own.liveness)
        assert recompiled((ip, own), (ip, other), f"{mode}/heights") == set()
        # without checks, as execute compiles an InstrumentedProgram: every
        # decode is reused, but not for another output function of the same
        # ResolvedFunctions
        assert recompiled((ip, None), (ip, None), f"{mode}/unchecked") == {"main", "f2", "id", "d"}
        edited = parse_program(print_program(ip.program).replace("movi r1, 41", "movi r1, 42"))
        edited = InstrumentedProgram(edited, ip.mode, ip.functions)
        assert recompiled((ip, None), (edited, None), f"{mode}/edited") == set()
        # the same functions and ResolvedFunctions, id and d swapped: the
        # callers of either decode afresh, as main does unless LIGHT inlined
        # its call to id
        functions = ip.program.functions
        swapped = InstrumentedProgram(
            Program({n: functions[n] for n in ("main", "f2", "d", "id")}, entry="main"), ip.mode, ip.functions
        )
        kept = {"id", "d", "main"} if mode == "LIGHT" else {"id", "d"}
        assert recompiled((ip, own), (swapped, own), f"{mode}/swapped") == kept


def test_determinism_check_runs_targets_that_share_no_decode(monkeypatch):
    # the determinism phase plans each spot case's program again, so its
    # second target is decoded afresh: a shared decode would hide a
    # nondeterministic one
    from shadowlab import cli

    spots, again = [], []
    phase, prepare = cli._determinism_phase, cli._prepare

    def preparing(*args):
        again.append(prepare(*args))
        return again[-1]

    def determinism(cfg, corpus, spot):
        spots.extend(case for case, _ in spot)
        monkeypatch.setattr(cli, "_prepare", preparing)
        return phase(cfg, corpus, spot)

    monkeypatch.setattr(cli, "_determinism_phase", determinism)
    _, ok = cli.verify_run(cli.VerifyConfig(benign_count=4, adversarial_count=6, inputs_per_program=3))
    assert ok and len(spots) == len(again) == 3
    for case, (prepared, _) in zip(spots, again):
        first = {id(fn.blocks) for fn in case.target.functions}
        assert not first & {id(fn.blocks) for fn in prepared.targets[case.mode].functions}, case.name


# ---- the step loop with one Frame object per activation is the reference ----

@dataclasses.dataclass(slots=True)
class _Frame:
    act: int
    ra_slot: int
    cookie: int
    ret_to: tuple | None    # (fn name, joined blocks, bid, joined block, idx) to resume at
    fn: _Fn                 # the called function: a planned one's return checks the depth
    call_top: int | None    # shadow depth at the call; None for the entry activation


def reference_execute(
    target: CompiledProgram | InstrumentedProgram | Program,
    inp: ExecInput = ExecInput(),
    budget: int = 10000,
    record: bool = False,
) -> tuple[Trace, Outcome]:
    """`execute` as it was with one _Frame object per activation, charging
    the budget one instruction at a time, on each block's segments joined."""
    if not isinstance(target, CompiledProgram):
        target = compile(target)
    by_index = target.functions
    joined = _joined_blocks(target)

    mem: dict[int, int] = {}    # word index -> value; unwritten words read 0
    regs = [v & MASK for v in inp.regs] + [0] * (16 - len(inp.regs))
    decisions = inp.decisions
    n_decisions = len(decisions)
    di = 0

    sp = MEM_BYTES - 8
    mem[sp >> 3] = EXIT_COOKIE
    fn = target.entry
    frame = _Frame(0, sp, EXIT_COOKIE, None, fn, None)
    frames = [frame]
    act = 0
    next_act = 1

    shadow: list[int] = []
    scratch = 0

    trace = Trace(log=[])
    ev = trace.log.append
    problems = trace.activation_problems
    fname, code, bid, idx = fn.name, joined[fn.name], fn.entry, 0
    block = code[bid]
    if record:
        ev(("enter", 0, fname, bid))
    steps = shadow_ops = shadow_instr = shadow_mem = mem_accesses = corruptions = 0
    checking = True   # off after an unwind: frame/function pairing no longer matches the analyses

    outcome: Outcome | None = None
    try:
        while True:
            if steps >= budget:
                outcome = Outcome(BUDGET)
                break
            steps += 1
            op, a, b, c, _ = block[idx]

            if op < RET:
                if op == MOVI:
                    regs[a] = b
                elif op == SPADD:
                    sp += a
                elif op == STORE_REG or op == STORE_SP:
                    addr = sp + a if op == STORE_SP else regs[a]
                    if addr & 7 or not 0 <= addr < MEM_BYTES:
                        raise _bad_address(addr)
                    mem[addr >> 3] = regs[RETURN_REG]
                    mem_accesses += 1
                    height = addr - frame.ra_slot
                    if c is not None and checking and height != c:
                        trace.height_violations.append((fname, bid, idx, c, height))
                    if record:
                        ev(("store", act, fname, bid, idx, b, addr, height))
                elif op == BINOP:
                    regs[a] = (regs[a] + regs[b]) & MASK
                elif op == LEA_SP:
                    regs[a] = (sp + b) & MASK
                elif op == MOVR:
                    regs[a] = regs[b]
                elif op == STORE_GLOBAL:
                    trace.globals_log.append((a, regs[RETURN_REG]))
                    mem_accesses += 1
                    if record:
                        ev(("store", act, fname, bid, idx, "global", -1, None))
                elif op == CORRUPT:
                    depth = min(a, len(frames) - 1)
                    victim = frames[-1 - depth]
                    mem[victim.ra_slot >> 3] = b
                    mem_accesses += 1
                    corruptions += 1
                    if record:
                        ev(("corrupt", act, depth, victim.act))
                elif op == LOAD_SP or op == LOAD_REG:
                    addr = sp + b if op == LOAD_SP else regs[b]
                    if addr & 7 or not 0 <= addr < MEM_BYTES:
                        raise _bad_address(addr)
                    regs[a] = mem.get(addr >> 3, 0)
                    mem_accesses += 1
                else:  # SPMOV
                    sp = regs[a]
                idx += 1
            elif op < SPUSH:
                if op == RET:
                    value = mem.get(frame.ra_slot >> 3, 0)
                    mem_accesses += 1
                    frames.pop()
                    sp = frame.ra_slot + 8
                    ok = value == frame.cookie
                    if frame.fn.planned and frame.call_top is not None and frame.call_top != len(shadow):
                        problems.append(
                            (act, fname, f"shadow depth {len(shadow)} at return, {frame.call_top} at call")
                        )
                    if record:
                        ev(("ret", act, fname, ok, len(shadow)))
                    if not ok:
                        outcome = Outcome(UNDETECTED, evidence=(fname, frame.cookie, value))
                        break
                    if frame.ret_to is None:
                        outcome = Outcome(COMPLETED, r0=regs[RETURN_REG])
                        break
                    fname, code, bid, block, idx = frame.ret_to
                    frame = frames[-1]
                    act = frame.act
                elif op == BR:
                    bid, block, idx = a, code[a], 0
                    if record:
                        ev(("enter", act, fname, bid))
                elif op == BRC:
                    bid = (a if decisions[di] else b) if di < n_decisions else b
                    di += 1
                    block, idx = code[bid], 0
                    if record:
                        ev(("enter", act, fname, bid))
                elif op == CALL or op == ICALL:
                    if op == CALL:
                        callee = by_index[a]
                    else:
                        address = regs[a]
                        if not 0 <= address < len(by_index):
                            raise _VmFault(f"indirect call to invalid address {address}")
                        callee = by_index[address]
                    sp -= 8
                    if sp < STACK_FLOOR:
                        raise _VmFault("stack overflow")
                    if sp & 7 or sp >= MEM_BYTES:
                        raise _bad_address(sp)
                    mem[sp >> 3] = b
                    mem_accesses += 1
                    act = next_act
                    next_act += 1
                    frame = _Frame(act, sp, b, (fname, code, bid, block, idx + 1), callee, len(shadow))
                    frames.append(frame)
                    fname, code, bid, idx = callee.name, joined[callee.name], callee.entry, 0
                    block = code[bid]
                    if record:
                        ev(("call", act, fname, len(shadow)))
                        ev(("enter", act, fname, bid))
                elif op == HALT:
                    if record:
                        ev(("halt", regs[RETURN_REG]))
                    outcome = Outcome(COMPLETED, r0=regs[RETURN_REG])
                    break
                else:  # UNWIND
                    if a >= len(frames):
                        raise _VmFault(f"unwind {a} with {len(frames)} frames")
                    del frames[-a:]
                    frame = frames[-1]
                    sp = frame.ra_slot
                    checking = False
                    if record:
                        ev(("unwind", act, a))
                    act = frame.act
                    idx += 1
            elif op == UNKNOWN:
                raise _VmFault(a)
            else:
                shadow_instr += b
                shadow_mem += c
                shadow_ops += 1
                if op == SPUSH:
                    ra_addr = sp - a
                    if ra_addr & 7 or not 0 <= ra_addr < MEM_BYTES:
                        raise _bad_address(ra_addr)
                    if len(shadow) >= SHADOW_CAPACITY:
                        raise _VmFault("shadow region overflow")
                    shadow.append(mem.get(ra_addr >> 3, 0))
                    if record:
                        ev(("push", act, fname, bid, idx, False))
                elif op == RFPUSH:
                    scratch = regs[a]
                    regs[a] = mem.get(frame.ra_slot >> 3, 0)
                    if record:
                        ev(("push", act, fname, bid, idx, True))
                else:  # SPOP, or RFPOP
                    ra = mem.get(frame.ra_slot >> 3, 0)
                    rf = op == RFPOP
                    if rf and regs[a] == ra:
                        matched = 0
                    else:
                        # unwind the shadow until the on-stack address matches
                        matched = -1
                        k = 0
                        while shadow:
                            if shadow.pop() == ra:
                                matched = k
                                break
                            k += 1
                        if matched < 0:
                            if record:
                                ev(("abort", act, fname, bid, idx))
                            outcome = Outcome(ABORTED, site=(fname, bid, idx))
                            break
                    if rf:
                        regs[a] = scratch
                    if record:
                        ev(("pop", act, fname, bid, idx, matched, rf))
                idx += 1
    except _VmFault as fault:
        if record:
            ev(("fault", fault.reason))
        outcome = Outcome(FAULT, evidence=(fault.reason,))

    problems.sort(key=itemgetter(0))

    trace.instr_count = steps - shadow_ops
    trace.shadow_instr = shadow_instr
    trace.shadow_mem = shadow_mem
    trace.shadow_ops = shadow_ops
    trace.mem_accesses = mem_accesses
    trace.corruptions = corruptions
    trace.final_shadow_top = len(shadow)
    return trace, outcome


def _joined_blocks(target: CompiledProgram) -> dict[str, dict[int, tuple]]:
    """Per function name, each decoded block as one tuple: its first segment,
    then each segment a call at the end of the last one resumes in."""
    joined = {}
    for fn in target.functions:
        blocks = joined[fn.name] = {}
        for bid, seg in fn.blocks.items():
            block = list(seg)
            while block and block[-1][0] in (CALL, ICALL):
                block += block[-1][3]
            blocks[bid] = tuple(block)
    return joined


def _run_view(run):
    """Everything a run shows: its whole trace (event log, counters, height
    violations, activation problems, final shadow depth) and its outcome's
    fields."""
    trace, outcome = run
    return trace, (outcome.kind, outcome.site, outcome.evidence, outcome.r0)


def _budgets(steps: int) -> list[int]:
    """Budgets below a run's full length: -1 and 0, which run nothing, every
    one up to 32, then the powers of two up to 1,024.  Every longer run of
    the pinned corpus is the `call main` recursion, whose later steps repeat
    its first ones."""
    return sorted({-1, 0, *range(1, min(steps, 33)), *(1 << k for k in range(6, min(steps - 1, 1024).bit_length()))})


def check_against_reference(compiled, inp, budget, label, sweep=True):
    """execute runs as reference_execute does on one input: at `budget`, and,
    with `sweep`, at budgets from 1 below the run's full length, unrecorded
    and recorded in turn.  PINNED_VM_DIGEST pins the recorded runs of the
    pinned corpus at their full length."""
    expected = reference_execute(compiled, inp, budget)
    assert _run_view(execute(compiled, inp, budget)) == _run_view(expected), label
    if not sweep:
        return
    for i, cut in enumerate(_budgets(expected[0].instr_count + expected[0].shadow_ops)):
        record = i % 2 == 1
        assert _run_view(execute(compiled, inp, cut, record)) == _run_view(
            reference_execute(compiled, inp, cut, record)
        ), (label, cut, record)


def test_step_loop_matches_reference_over_pinned_corpus():
    # budgets are swept on the runs with checks; a run without them steps
    # alike but for the checks, and a short run is a prefix of a checked one
    for label, target, checks, inputs, budget in _pinned_runs():
        compiled = compile(target, checks)
        for inp in inputs:
            check_against_reference(compiled, inp, budget, label, sweep=label.endswith(("/True", "/twin")))


# corrupt at depth 0 with no caller (main's b1), and in leaf at depth 0, 1
# and 7, deeper than the two callers below it
CORRUPT_DEPTHS = """\
#entry main
#adversarial true

fn main {
b0:
  spadd -16
  brc b1, b2
b1:
  corrupt 0, 4242
  br b2
b2:
  call mid
  spadd 16
  ret
}

fn mid {
b0:
  call leaf
  ret
}

fn leaf {
b0:
  brc b1, b2
b1:
  corrupt 0, 1111
  ret
b2:
  brc b3, b4
b3:
  corrupt 1, 2222
  ret
b4:
  corrupt 7, 3333
  ret
}
"""


def unwind_then_calls(k: int) -> str:
    """h unwinds k activations of main -> f -> g -> h, then calls and
    returns on as the one below them; k = 4 unwinds past main and faults."""
    return f"""\
#entry main

fn main {{
b0:
  spadd -16
  call f
  call leaf
  movi r0, 1
  spadd 16
  ret
}}

fn f {{
b0:
  spadd -16
  call g
  call leaf
  movi r9, 512
  store.reg r9
  spadd 16
  ret
}}

fn g {{
b0:
  call h
  ret
}}

fn h {{
b0:
  spadd -16
  brc b1, b2
b1:
  unwind {k}
  call leaf
  spadd 16
  ret
b2:
  spadd 16
  ret
}}

fn leaf {{
b0:
  movi r0, 7
  store.global out
  ret
}}
"""


# unbounded recursion through an unsafe store: the shadow region overflows
# where main is instrumented, the stack where it is not
OVERFLOW = "fn main {\nb0:\n  spadd -16\n  movi r1, 512\n  store.reg r1\n  call main\n  spadd 16\n  ret\n}\n"

# a store.reg to a misaligned address faults in the segment after a call,
# with three instructions of it still to run
FAULT_AFTER_CALL = """\
fn main {
b0:
  spadd -16
  call leaf
  movi r1, 3
  store.reg r1
  movi r0, 1
  spadd 16
  ret
}

fn leaf {
b0:
  movi r0, 7
  ret
}
"""

# main's own return address is overwritten between its hand-written push and
# pop, so the pop aborts with three instructions of its segment still to run
ABORT_MID_SEGMENT = """\
#entry main
#adversarial true

fn main {
b0:
  spadd -16
  call leaf
  spush -16
  corrupt 0, 99
  spop
  movi r0, 5
  spadd 16
  ret
}

fn leaf {
b0:
  movi r0, 7
  ret
}
"""

# each call's continuation runs several instructions, so the budget sweep
# cuts the run inside both continuations and inside the callee
CONTINUATIONS = """\
fn main {
b0:
  spadd -16
  call leaf
  movi r1, 1
  movi r2, 2
  binop r1, r2
  store.global out
  call leaf
  movr r0, r1
  store.global out
  spadd 16
  ret
}

fn leaf {
b0:
  movi r0, 7
  store.global out
  ret
}
"""

_NEW_PATHS = [
    # a lowered function that calls another between its push and its pop
    ("br-walk", BR_TAINTED_WALK, [(True, False), (False,), (True, True)]),
    ("memo-caller", MEMO_CALLER, [(True, True, False), (False,), (True, False)]),
    ("corrupt", CORRUPT_DEPTHS, [(True, True), (False, True), (False, False, True), (False, False, False)]),
    *((f"unwind{k}", unwind_then_calls(k), [(True,), (False,)]) for k in (1, 2, 3, 4)),
    ("overflow", OVERFLOW, [()]),
    ("fault-after-call", FAULT_AFTER_CALL, [()]),
    ("abort-mid-segment", ABORT_MID_SEGMENT, [()]),
    ("continuations", CONTINUATIONS, [()]),
]


@pytest.mark.parametrize("name, text, decisions", _NEW_PATHS, ids=[n for n, _, _ in _NEW_PATHS])
def test_step_loop_matches_reference_on_new_paths(name, text, decisions):
    # abort-mid-segment holds a hand-written push and pop, which
    # plan_program refuses in a plain program: it runs as BASE only
    p = parse_program(text)
    targets = [("BASE", p)]
    if name != "abort-mid-segment":
        _, plan = plan_program(p)
        targets += [(m, apply_plan(p, plan, m)) for m in MODES]
    inputs = [ExecInput(d, tuple(range(16))) for d in decisions]
    for mode, target in targets:
        program = target if mode == "BASE" else target.program
        for checks in (None, analyze_program(program)):
            compiled = compile(target, checks)
            for inp in inputs:
                label = f"{name}/{mode}/{inp.decisions}"
                check_against_reference(compiled, inp, 100_000, label)
                recorded = execute(compiled, inp, 100_000, True)
                assert _run_view(recorded) == _run_view(reference_execute(compiled, inp, 100_000, True)), label


def test_block_without_terminator_faults():
    # only the library API runs such a block: validate_program rejects it.
    # main's block ends in a call, so the fault comes once leaf returns into
    # the empty segment after it; a budget that runs out first is BUDGET
    p = parse_program("fn main {\nb0:\n  movi r0, 1\n  call leaf\n}\n\nfn leaf {\nb0:\n  movi r0, 2\n  ret\n}\n")
    reason = "main.b0: block does not end with a control transfer"
    assert [d.reason for d in validate_program(p)] == [reason]
    for budget in (5, 100):
        trace, outcome = execute(p, ExecInput(), budget, record=True)
        assert outcome == Outcome(FAULT, evidence=(reason,)) and trace.instr_count == 4
        assert trace.log[-2:] == [("ret", 1, "leaf", True, 0), ("fault", reason)]
    for budget in (-1, 0, 4):
        trace, outcome = execute(p, ExecInput(), budget)
        assert outcome == Outcome(BUDGET) and trace.instr_count == max(budget, 0)
    one = parse_program("fn main {\nb0:\n  movi r0, 1\n}\n")
    trace, outcome = execute(one, ExecInput(), 100)
    assert outcome.evidence == (reason,) and trace.instr_count == 1


@pytest.mark.parametrize("body, reason, steps", [
    ("  br b7\n", "main.b0: branch to unknown block b7", 1),
    ("  movi r0, 1\n  call ghost\n  halt\n", "main.b0: call to unknown function 'ghost'", 2),
    ("  brc b9, b1\nb1:\n  halt\n", "main.b0: branch to unknown block b9", 1),
])
def test_broken_reference_faults_where_it_is_reached(body, reason, steps):
    # only the library API runs such a program: validate_program rejects it.
    # compile decodes the broken reference as a fault op, whichever arm a
    # brc would take, and a block the run never enters does not fault
    p = parse_program(f"fn main {{\nb0:\n{body}}}\n")
    assert validate_program(p)
    for decisions in ((), (True,), (False,)):
        trace, outcome = execute(p, ExecInput(decisions), 100, record=True)
        assert outcome == Outcome(FAULT, evidence=(reason,)) and trace.instr_count == steps
        assert trace.log[-1] == ("fault", reason)
        check_against_reference(compile(p), ExecInput(decisions), 100, reason)
    unreached = parse_program(f"fn main {{\nb0:\n  movi r0, 3\n  halt\nb5:\n{body}}}\n")
    assert execute(unreached, ExecInput(), 100)[1] == Outcome(COMPLETED, None, None, 3)


def test_unhandled_opcode_faults_with_its_name():
    p = Program({"main": Function("main", {0: Block(0, (Instr("nop"), Instr("halt")))})}, entry="main")
    trace, outcome = execute(p, ExecInput(), 100)
    assert outcome == Outcome(FAULT, evidence=("unhandled opcode nop",)) and trace.instr_count == 1


def test_store_the_height_fixpoint_never_reaches_is_unsafe_and_runs_in_every_mode():
    # b1 is unreachable, so validate_program rejects the program and
    # plan_program refuses it: it runs only as a base run, through the
    # library API.  Its store has no height, so it is unsafe, and it decodes
    # with no expected height and no write class
    p = parse_program("fn main {\nb0:\n  halt\nb1:\n  store.sp -8\n  br b0\n}\n")
    assert [d.reason for d in validate_program(p)] == ["main.b1: unreachable block"]
    with pytest.raises(PlanError, match=r"^invalid program: main\.b1: unreachable block$"):
        plan_program(p)
    analysis = analyze_program(p)
    assert analysis.heights["main"].stores == {}
    assert analysis.safety.to_json()["blocks"] == {"main.b0": "safe", "main.b1": "unsafe"}
    target = compile(p, analysis)
    main, = target.functions
    stores = [ins for seg in main.blocks.values() for ins in seg if ins[0] == STORE_SP]
    assert len(stores) == 1 and stores[0][2] is None and stores[0][3] is None
    assert execute(target, ExecInput())[1].kind == COMPLETED


def test_step_loop_matches_reference_on_a_miscounted_walk():
    # memo's walk pushes twice: the walk finds it, and a run through the push
    # returns with the shadow one deeper, cut by any budget or not
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    push = "b2000:\n  spush -16\n"
    doubled = parse_program(print_program(ip.program).replace(push, push + "  spush -16\n"))
    target = InstrumentedProgram(doubled, ip.mode, ip.functions)
    assert _memo_walks(target) == ["tainted walk executed 2 pushes, 1 pops"]
    compiled = compile(target, analyze_program(doubled))
    for decisions in ((True, True, False), (True, False), (False,)):
        check_against_reference(compiled, ExecInput(decisions), 1000, f"doubled/{decisions}")
    trace, _ = execute(compiled, ExecInput((True, True, False)), 1000)
    assert trace.activation_problems == [(1, "memo", "shadow depth 2 at return, 1 at call")]


def test_exec_input_masks_and_pads_registers_once():
    assert ExecInput().regs == (0,) * NUM_REGS
    inp = ExecInput((True,), (-5, (1 << 64) | 3))
    assert inp.regs == (MASK - 4, 3) + (0,) * (NUM_REGS - 2)
    assert ExecInput(inp.decisions, inp.regs) == inp
    with pytest.raises(ValueError, match=f"{NUM_REGS + 1} registers"):
        ExecInput((), (0,) * (NUM_REGS + 1))


def test_outcome_fields_and_defaults():
    assert Outcome._fields == ("kind", "site", "evidence", "r0")
    assert Outcome(BUDGET) == Outcome(BUDGET, None, None, None)
    assert Outcome(COMPLETED, r0=3).r0 == 3 and Outcome(FAULT, evidence=("x",)).evidence == ("x",)
