import hashlib
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.mir import parse_program, print_program
from shadowlab.transform import MODES, InstrumentedProgram, apply_plan, plan_program
from shadowlab.shadowvm import (
    ABORTED,
    BUDGET,
    COMPLETED,
    FAULT,
    UNDETECTED,
    CampaignCase,
    ExecInput,
    build_checks,
    check_activations,
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
    trace, outcome = execute(ip, ExecInput(), 1000)
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
    trace, outcome = execute(ip, ExecInput(), 1000)
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
    checks = build_checks(ip.program)
    for decisions, ops in [((False,), 0), ((True, False), 0), ((True, True, False), 2)]:
        trace, outcome = execute(ip, ExecInput(decisions), 1000, checks)
        assert outcome.kind == COMPLETED
        assert trace.shadow_ops == ops
        assert not trace.height_violations


def test_unwind_matches_after_k():
    for k in (1, 2, 3):
        p = parse_program(unwind_fixture(k))
        _, plan = plan_program(p)
        ip = apply_plan(p, plan, "FULL")
        trace, outcome = execute(ip, ExecInput(), 1000)
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
    t1, o1 = execute(ip, inp, 5000)
    t2, o2 = execute(ip, inp, 5000)
    assert t1.log == t2.log and o1 == o2


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
    checks = build_checks(ip.program)
    for inp in generate_inputs(seed ^ 0x5EED, 2):
        trace, outcome = execute(ip, inp, 20000, checks)
        assert outcome.kind == COMPLETED
        assert trace.final_shadow_top == 0
        assert not trace.height_violations


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


def test_campaign_keeps_first_counterexamples_only():
    # every miss is counted, but only the first three keep their whole trace
    _, ip = instrument(ADVERSARIAL, "ELIDE-ALL")
    cases = [CampaignCase(f"p{i}", "ELIDE-ALL", ip, ExecInput(), True, budget=1000) for i in range(5)]
    report = run_campaign(cases)
    assert report.fired == report.undetected == 5
    assert [c["case"] for c in report.counterexamples] == ["p0", "p1", "p2"]
    assert all(c["trace"].corruptions for c in report.counterexamples)


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

    def problems(edits, inp=tainted):
        edited = text
        for old, new in edits:
            assert edited.count(old) == 1, old
            edited = edited.replace(old, new)
        # the edited code runs under the unedited plan, checked against its own analyses
        program = parse_program(edited)
        target = InstrumentedProgram(program, ip.mode, ip.functions)
        trace, outcome = execute(target, inp, 1000, build_checks(program))
        return check_activations(CampaignCase("memo", "PO", target, inp, False), trace, outcome)

    push, pop = "b2000:\n  spush -16\n", "b1007:\n  spop\n"
    store = "b1004:\n  movi r9, 512\n  store.reg r9\n"
    assert problems([]) == [] and problems([], safe) == []
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


def test_trace_serialization_forms(call_tree):
    trace, outcome = execute(call_tree, ExecInput((True,)), 1000)
    lines = trace.to_lines()
    assert lines and all(isinstance(l, str) for l in lines)
    blob = trace.to_json()
    assert blob["instr_count"] == trace.instr_count
    assert isinstance(blob["events"], list)


# ---- equivalence pin: VM behaviour over a fixed corpus, every mode ----

# sha256 of every run's trace, violations, final shadow depth and outcome
# below, recorded before the VM was split into compile and run: a change
# here means the VM's observable behaviour changed.  The pin uses nothing
# newer than `execute`, so it runs against that interpreter too.
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


def _run_record(trace, outcome) -> list:
    return [
        trace.to_json(),
        [list(v) for v in trace.height_violations],
        [[*v[:3], list(v[3])] for v in trace.liveness_violations],
        trace.final_shadow_top,
        [outcome.kind, outcome.site, outcome.evidence, outcome.r0],
    ]


def test_vm_equivalence_pin():
    digest = hashlib.sha256()
    for label, target, checks, inputs, budget in _pinned_runs():
        for inp in inputs:
            record = [label, _run_record(*execute(target, inp, budget, checks))]
            digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_VM_DIGEST


def test_compiled_program_reused_across_inputs():
    from shadowlab.shadowvm import compile
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
                assert execute(compiled, inp, 20000) == execute(target, inp, 20000, checks), name


def test_compiled_program_carries_its_checks(call_tree):
    from shadowlab.shadowvm import compile
    checks = build_checks(call_tree)
    with pytest.raises(ValueError):
        execute(compile(call_tree), ExecInput(), 100, checks)
