import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.analysis import UNSAFE
from shadowlab.mir import parse_program, print_program
from shadowlab.transform import FN_LOWERED, MODES, InstrumentedProgram, apply_plan, plan_program
from shadowlab.shadowvm import (
    ABORTED,
    BUDGET,
    COMPLETED,
    FAULT,
    MAX_VIOLATIONS,
    UNDETECTED,
    AnalysisChecks,
    CampaignCase,
    ExecInput,
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
    compiled = compile(ip, build_checks(ip.program))
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
    compiled = compile(ip, build_checks(ip.program))
    for inp in generate_inputs(seed ^ 0x5EED, 2):
        trace, outcome = execute(compiled, inp, 20000)
        assert outcome.kind == COMPLETED
        assert trace.final_shadow_top == 0
        assert not trace.height_violations


# ---- activation checks: the log walk they replaced is the reference ----

class _Activation:
    """What one activation did, for reference_activations."""

    __slots__ = ("fn", "push", "pop", "clone", "unsafe", "call_top", "ret_top")

    def __init__(self, fn: str):
        self.fn = fn
        self.push: list[int] = []
        self.pop: list[int] = []
        self.clone = False          # entered a clone or transition block: a tainted walk
        self.unsafe: list[int] = []
        self.call_top: int | None = None
        self.ret_top: int | None = None


_ACTIVATION_KINDS = frozenset(("call", "enter", "push", "pop", "store", "ret"))


def reference_activations(case, trace, outcome) -> list[str]:
    """check_activations as a walk over a recorded trace's event log."""
    problems: list[str] = []
    acts: dict[int, _Activation] = {}
    plans = case.target.functions

    # every activation event is (kind, act, fn, ...); the log is read by position
    for pos, e in enumerate(trace.log):
        kind = e[0]
        if kind not in _ACTIVATION_KINDS or (kind == "store" and e[5] != UNSAFE):   # e[5]: wclass
            continue
        r = acts.get(e[1])
        if r is None:
            r = acts[e[1]] = _Activation(e[2])
        if kind == "enter":
            rf = plans.get(e[2])
            if rf is not None and e[3] in rf.tainted_blocks:      # e[3]: bid
                r.clone = True
        elif kind == "store":
            r.unsafe.append(pos)
        elif kind == "push":
            r.push.append(pos)
        elif kind == "pop":
            r.pop.append(pos)
        elif kind == "call":
            r.call_top = e[-1]      # shadow_top, last in call and ret
        else:
            r.ret_top = e[-1]

    for act, r in acts.items():
        fn = r.fn
        if fn not in plans:
            continue
        where = f"{case.name}/{case.mode} act {act} fn {fn}"
        if plans[fn].mode == FN_LOWERED:
            if r.clone:
                if r.ret_top is None and outcome.kind == BUDGET:
                    # cut short, perhaps before its push: only a second push is wrong
                    miscounted = len(r.push) > 1
                else:
                    completed = r.ret_top is not None or outcome.kind == COMPLETED
                    miscounted = len(r.push) != 1 or (completed and len(r.pop) != 1)
                if miscounted:
                    problems.append(
                        f"activation: {where}: tainted walk executed {len(r.push)} pushes, {len(r.pop)} pops"
                    )
                elif r.pop and (not r.push or r.pop[0] < r.push[0]):
                    problems.append(f"activation: {where}: pop before push")
                for pos in r.unsafe:
                    if r.push and pos < r.push[0]:
                        problems.append(f"activation: {where}: unsafe store before the covering push")
                    if r.pop and pos > r.pop[0]:
                        problems.append(f"activation: {where}: unsafe store after the covering pop")
            else:
                if r.push or r.pop:
                    problems.append(f"activation: {where}: safe walk executed shadow operations")
                if r.unsafe:
                    problems.append(f"activation: {where}: unsafe store on a walk that never left safe blocks")
        if r.call_top is not None and r.ret_top is not None and r.call_top != r.ret_top:
            problems.append(f"activation: {where}: shadow depth {r.ret_top} at return, {r.call_top} at call")
    if outcome.kind == COMPLETED and trace.final_shadow_top != 0:
        problems.append(f"activation: {case.name}/{case.mode}: shadow not balanced at completion")
    return problems


def checked_run(case, compiled, budget):
    """Run `compiled` on the case's input unrecorded and recorded, and check
    the pair as `check_recording` does."""
    recorded = execute(compiled, case.inp, budget, record=True)
    return check_recording(case, execute(compiled, case.inp, budget), recorded, reference_activations(case, *recorded))


def check_recording(case, plain_run, recorded_run, reference):
    """Assert that recording changed nothing but the log and that the online
    activation checks equal `reference`, the log walk's problems.  Returns
    the unrecorded run's problems."""
    (plain, outcome), (recorded, recorded_outcome) = plain_run, recorded_run
    assert plain.log == []
    assert recorded_outcome == outcome
    assert dataclasses.replace(recorded, log=[]) == plain
    problems = check_activations(case, plain, outcome)
    assert problems == reference, case.name
    return problems


def test_online_checks_and_recording_over_pinned_corpus(pinned_runs):
    runs, _ = pinned_runs
    for case, plain_run, recorded_run, reference in runs:
        check_recording(case, plain_run, recorded_run, reference)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.one_of(st.integers(1, 120), st.just(20000)))
def test_online_checks_match_log_walk_on_generated_programs(seed, adversarial, budget):
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=adversarial)
    _, plan = plan_program(p)
    inputs = generate_inputs(seed, 2)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        compiled = compile(ip, build_checks(ip.program))
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
    assert not report.violations


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


def test_campaign_keeps_first_violations_and_counts_all():
    # past MAX_VIOLATIONS messages a campaign only counts, activation problems too
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    push = "b2000:\n  spush -16\n"
    doubled = parse_program(print_program(ip.program).replace(push, push + "  spush -16\n"))
    tainted = ExecInput((True, True, False))
    # each run of the first case has one height violation, of the second, activation problems
    skewed = CampaignCase("memo", "BASE", compile(p, build_checks(_twin(p))), tainted, False)
    target = compile(InstrumentedProgram(doubled, ip.mode, ip.functions), build_checks(doubled))
    cases = [skewed] * MAX_VIOLATIONS + [CampaignCase("memo", "PO", target, tainted, False)] * 3
    every = [m for case in cases for m in run_campaign([case]).violations]
    report = run_campaign(cases)
    assert report.violations == every[:MAX_VIOLATIONS] and report.violation_count == len(every)
    assert report.activation_count == sum(m.startswith("activation: ") for m in every) > 0
    assert not any(m.startswith("activation: ") for m in report.violations)


def test_campaign_keeps_first_counterexamples_only():
    # every miss is counted, but only the first three keep their whole trace
    _, ip = instrument(ADVERSARIAL, "ELIDE-ALL")
    cases = [CampaignCase(f"p{i}", "ELIDE-ALL", ip, ExecInput(), True, budget=1000) for i in range(5)]
    report = run_campaign(cases)
    assert report.fired == report.undetected == 5
    assert [case.name for case, _ in report.counterexamples] == ["p0", "p1", "p2"]
    assert all(trace.corruptions for _, trace in report.counterexamples)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.booleans(), st.booleans(), st.booleans())
def test_reused_checks_equal_fresh_ones(seed, adversarial, with_liveness, known_liveness):
    p = generate_program(seed, GenConfig(max_functions=7), adversarial=adversarial)
    analysis, plan = plan_program(p)
    known = AnalysisChecks(analysis.heights, analysis.liveness if known_liveness else None, analysis.classes)
    for mode in MODES:
        ip = apply_plan(p, plan, mode)
        reused = build_checks(ip.program, with_liveness, reuse=(p, known))
        assert reused == build_checks(ip.program, with_liveness), mode
        for name, fn in ip.program.functions.items():
            if fn is p.functions[name]:
                assert reused.heights[name] is analysis.heights[name]
                assert reused.classes[name] is analysis.classes[name]


# main calls MEMO_CFG's memo, which PO lowers: its tainted walk goes through
# the transition block b2000 (push) and, for the input (1, 1, 0), the clones
# b1004 (an unsafe store) and b1007 (pop); the input (0,) takes the safe walk
# b1 -> b6.  main is fully instrumented.
MEMO_CALLER = (
    "#entry main\n\nfn main {\nb0:\n  spadd -16\n  call memo\n  spadd 16\n  ret\n}\n\n"
    + MEMO_CFG.replace("#entry memo\n", "")
)


def test_activation_problems_are_reported():
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    text = print_program(ip.program)
    tainted, safe = ExecInput((True, True, False)), ExecInput((False,))
    where = "memo/PO act 1 fn memo"

    def problems(edits, inp=tainted, budget=1000):
        edited = text
        for old, new in edits:
            assert edited.count(old) == 1, old
            edited = edited.replace(old, new)
        # the edited code runs under the unedited plan, checked against its own analyses
        program = parse_program(edited)
        target = InstrumentedProgram(program, ip.mode, ip.functions)
        return checked_run(CampaignCase("memo", "PO", target, inp, False), compile(target, build_checks(program)), budget)

    push, pop = "b2000:\n  spush -16\n", "b1007:\n  spop\n"
    store = "b1004:\n  movi r9, 512\n  store.reg r9\n"
    assert problems([]) == [] and problems([], safe) == []
    # cut off after the push in b2000, which its `brc` entered, before b2000's `br`
    assert problems([], budget=10) == []
    safe_exit = "  store.sp 0\n  ret\nb2000:"
    cases = [
        # an extra push: two pushes, and one more shadow entry at the return
        ([(push, push + "  spush -16\n")], tainted,
         ["tainted walk executed 2 pushes, 1 pops", "shadow depth 2 at return, 1 at call"]),
        # no push: the pop finds no match and aborts
        ([(push, "b2000:\n")], tainted, ["tainted walk executed 0 pushes, 0 pops"]),
        ([(pop, "b1007:\n")], tainted,
         ["tainted walk executed 1 pushes, 0 pops", "shadow depth 2 at return, 1 at call"]),
        # the pop, a register-frame one fed the on-stack address, comes first
        ([(push, "b2000:\n  load.sp r9, 16\n  rfpop r9\n  rfpush r9\n"), (pop, "b1007:\n")], tainted,
         ["pop before push", "unsafe store after the covering pop"]),
        ([(push, "b2000:\n"), (store, store + "  spush -16\n")], tainted,
         ["unsafe store before the covering push"]),
        ([(pop, "b1007:\n"), (store, "b1004:\n  movi r9, 512\n  spop\n  store.reg r9\n")], tainted,
         ["unsafe store after the covering pop"]),
        # a register-frame pop leaves the walk's shadow push in place
        ([(pop, "b1007:\n  load.sp r9, 16\n  rfpop r9\n")], tainted, ["shadow depth 2 at return, 1 at call"]),
        ([(safe_exit, "  store.sp 0\n  spush -16\n  spop\n  ret\nb2000:")], safe,
         ["safe walk executed shadow operations"]),
        ([(safe_exit, "  movi r9, 512\n  store.reg r9\n  ret\nb2000:")], safe,
         ["unsafe store on a walk that never left safe blocks"]),
    ]
    for edits, inp, expected in cases:
        assert problems(edits, inp) == [f"activation: {where}: {m}" for m in expected], edits
    assert problems([("  spadd 16\n  spop\n", "  spadd 16\n")]) == [
        "activation: memo/PO: shadow not balanced at completion"
    ]


def test_budget_cut_walk_is_checked_only_for_a_second_push():
    p = parse_program(MEMO_CALLER)
    _, plan = plan_program(p)
    ip = apply_plan(p, plan, "PO")
    tainted = ExecInput((True, True, False))
    # step 9 enters memo's transition block b2000, step 10 is its push
    case = CampaignCase("memo", "PO", ip, tainted, False)
    compiled = compile(ip, build_checks(ip.program))
    for budget in (9, 10):
        assert execute(compiled, tainted, budget)[1].kind == BUDGET
        assert checked_run(case, compiled, budget) == [], budget
    text = print_program(ip.program)
    assert text.count("b2000:\n  spush -16\n") == 1
    doubled = parse_program(text.replace("b2000:\n  spush -16\n", "b2000:\n  spush -16\n  spush -16\n"))
    target = InstrumentedProgram(doubled, ip.mode, ip.functions)
    case = CampaignCase("memo", "PO", target, tainted, False)
    compiled = compile(target, build_checks(doubled))
    assert checked_run(case, compiled, 10) == []
    assert checked_run(case, compiled, 11) == ["activation: memo/PO act 1 fn memo: tainted walk executed 2 pushes, 0 pops"]


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
    _, plan = plan_program(p)
    for mode in ("PO", "LIGHT"):
        ip = apply_plan(p, plan, mode)
        assert ip.functions["f"].mode == FN_LOWERED
        compiled = compile(ip, build_checks(ip.program))
        expected = {
            (True, False): [],
            (False,): [],
            (True, True): [
                f"activation: br/{mode} act 1 fn f: tainted walk executed 1 pushes, 0 pops",
                f"activation: br/{mode}: shadow not balanced at completion",
            ],
        }
        for decisions, problems in expected.items():
            case = CampaignCase("br", mode, ip, ExecInput(decisions), False)
            assert checked_run(case, compiled, 1000) == problems, decisions
    # g, which no mode instruments, edited to leave a shadow entry behind
    text = print_program(ip.program)
    assert text.count("b2:\n  ret\n}") == 1
    target = InstrumentedProgram(parse_program(text.replace("b2:\n  ret\n}", "b2:\n  spush 0\n  ret\n}")), mode, ip.functions)
    case = CampaignCase("br", mode, target, ExecInput((True, False)), False)
    assert checked_run(case, compile(target, build_checks(target.program)), 1000) == [
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

# sha256 of every run's trace, violations, final shadow depth and outcome
# below, recorded before the VM was split into compile and run: a change
# here means the VM's observable behaviour changed.  Its runs come from the
# `pinned_runs` fixture, which compiles each target once for all its inputs.
PINNED_VM_DIGEST = "5cc1562c8f7df3b4b18074369b28ea13805adc10e11d8a99070af5b5b36bd37e"


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
        # longer fits, nor (against the twin's analyses) the read of r2
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
        yield f"{name}/BASE/twin", p, build_checks(_twin(p), with_liveness=True), inputs, 20000
        targets = [("BASE", p)] + [(m, apply_plan(p, plan, m)) for m in MODES]
        for mode, target in targets:
            checks = build_checks(target if mode == "BASE" else target.program, with_liveness=True)
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
        [[*v[:3], list(v[3])] for v in trace.liveness_violations],
        trace.final_shadow_top,
        [outcome.kind, outcome.site, outcome.evidence, outcome.r0],
    ]


def test_vm_equivalence_pin(pinned_runs):
    _, digest = pinned_runs
    assert digest == PINNED_VM_DIGEST


def test_compiled_program_reused_across_inputs():
    programs = list(generate_corpus(GenConfig(seed=37, count=6, attack_density=0.5)))
    programs.append(("unwind", parse_program(unwind_fixture(2))))
    for name, p in programs:
        _, plan = plan_program(p)
        inputs = generate_inputs(len(name), 12)
        targets = [(p, build_checks(_twin(p), with_liveness=True))]
        for mode in ("FULL", "MO", "LIGHT"):
            ip = apply_plan(p, plan, mode)
            targets += [(ip, None), (ip, build_checks(ip.program, with_liveness=True))]
        for target, checks in targets:
            compiled = compile(target, checks)
            for inp in inputs:
                fresh = execute(compile(target, checks), inp, 20000, record=True)
                assert execute(compiled, inp, 20000, record=True) == fresh, name
