"""Command-line surface: analyze, instrument, run, gen, verify, stats."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import zlib
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Mapping, NoReturn

from .mir import NUM_REGS, SHADOW_OPCODES, Diagnostic, MirError, Program, parse_program, print_program, validate_program
from .analysis import GLOBAL, SAFE_STACK, UNSAFE, Heights, classify_writes, dead_register_findings
from .transform import (
    FN_ELIDED,
    FN_FULL,
    FN_LOWERED,
    FN_REGFRAME,
    MODE_FLAGS,
    MODES,
    CheckMappingError,
    InstrumentationPlan,
    InstrumentedProgram,
    PlanError,
    ProgramAnalysis,
    ResolvedFunction,
    apply_plan,
    build_checks,
    check_rewrites,
    plan_program,
    resolve_mode,
)
from .shadowvm import (
    COMPLETED,
    FAULT,
    MAX_VIOLATIONS,
    CampaignCase,
    CampaignReport,
    CompiledProgram,
    ExecInput,
    Finding,
    compile,
    execute,
    observables,
    run_campaign,
)
from .gen import GenConfig, generate_corpus, generate_inputs

SOUND_MODES = tuple(MODE_FLAGS)
# the sidecar key naming the program it describes: the sha256 of its text
STAMP = "program_sha256"
# the overhead ladder: sound modes from the most shadow operations to the fewest
LADDER = ("FULL", "SFE", "PO", "LIGHT")


def _atomic_write(path: Path, text: str) -> None:
    """Write `text` to `path` through a temporary file beside it, which gets
    the mode `open` would give a new file, 0o666 less the umask, not
    `mkstemp`'s 0o600.  A path that cannot be written exits 1 with one error
    line, as `_load` does for an unreadable input."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise SystemExit(f"error: cannot write {path}: {exc.strerror or exc}") from None
        raise


def _load(path: str, allow_shadow: bool = False) -> Program:
    """The parsed and validated program at `path`.  Only `run` takes shadow
    instructions; every other command rejects an instrumented program."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SystemExit(f"error: {exc}")
    except UnicodeDecodeError as exc:
        raise SystemExit(f"error: cannot read {path} as text: {exc}")
    try:
        program = parse_program(text)
    except MirError as exc:
        raise SystemExit(Diagnostic(exc.msg, exc.line).render(path))
    diags = validate_program(program, allow_shadow=allow_shadow)
    if diags:
        for d in diags:
            print(d.render(path), file=sys.stderr)
        raise SystemExit(1)
    return program


def _plan(path: str, program: Program) -> tuple[ProgramAnalysis, InstrumentationPlan]:
    try:
        return plan_program(program)
    except PlanError as exc:
        _usage_error(f"{path}: {exc}")


def _instr_stats(plan: InstrumentationPlan) -> dict:
    """Shares of functions per mode in the fully optimized configuration."""
    modes = [resolve_mode(fp, "LIGHT") for fp in plan.per_function.values()]
    total = len(modes)
    pct = lambda m: 100.0 * modes.count(m) / total if total else 0.0
    return {
        "sfe_pct": pct(FN_ELIDED),
        "spe_pct": pct(FN_LOWERED),
        "rf_pct": pct(FN_REGFRAME),
        "total": total,
    }


def _write_stats(program: Program, heights: Mapping[str, Heights]) -> dict:
    """Shares of the program's stores per write class."""
    counts = Counter(c for name, fn in program.functions.items() for c in classify_writes(fn, heights[name]).values())
    total = sum(counts.values())
    pct = lambda n: 100.0 * n / total if total else 0.0
    return {
        "stack_pct": pct(counts[SAFE_STACK]),
        "global_pct": pct(counts[GLOBAL]),
        "unsafe_pct": pct(counts[UNSAFE]),
        "total": total,
    }


def cmd_analyze(args) -> int:
    program = _load(args.file)
    analysis, plan = _plan(args.file, program)
    out = {
        "safety": analysis.safety.to_json(),
        "instrumentation": _instr_stats(plan),
        "writes": _write_stats(program, analysis.heights),
        "safe_paths": {name: fp.safe_paths for name, fp in plan.per_function.items()},
    }
    if args.json:
        print(json.dumps(out, sort_keys=True, indent=2))
        return 0
    verdicts = out["safety"]["functions"]
    safe = sorted(n for n, v in verdicts.items() if v == "safe")
    unsafe = sorted(n for n, v in verdicts.items() if v == "unsafe")
    print(f"functions safe: {', '.join(safe) or '-'}")
    print(f"functions unsafe: {', '.join(unsafe) or '-'}")
    ist = out["instrumentation"]
    print(
        f"instrumentation: SFE {ist['sfe_pct']:.1f}%  SPE {ist['spe_pct']:.1f}%  "
        f"RF {ist['rf_pct']:.1f}%  of {ist['total']} functions"
    )
    wst = out["writes"]
    print(
        f"writes: stack {wst['stack_pct']:.1f}%  global {wst['global_pct']:.1f}%  "
        f"unsafe {wst['unsafe_pct']:.1f}%  of {wst['total']} stores"
    )
    return 0


def cmd_instrument(args) -> int:
    program = _load(args.file)
    _, plan = _plan(args.file, program)
    ip = apply_plan(program, plan, args.mode)
    diags = validate_program(ip.program, allow_shadow=True)
    if diags:
        for d in diags:
            print(d.render(args.file), file=sys.stderr)
        return 1
    out, text = Path(args.out), print_program(ip.program)
    _atomic_write(out, text)
    sidecar = {**ip.to_json(), STAMP: hashlib.sha256(text.encode()).hexdigest()}
    _atomic_write(out.with_suffix(out.suffix + ".plan.json"), json.dumps(sidecar, sort_keys=True))
    print(f"wrote {out} ({args.mode})")
    return 0


def _usage_error(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _positive(flag: str, value: int) -> int:
    if value < 1:
        _usage_error(f"{flag} {value}: must be a positive integer")
    return value


def _parse_input(args) -> ExecInput:
    decisions = ()
    if args.input:
        try:
            decisions = tuple(bool(int(tok)) for tok in args.input.split(",") if tok.strip())
        except ValueError:
            _usage_error(f"--input {args.input!r}: expected comma-separated integers, e.g. 1,0,1")
    regs = [0] * NUM_REGS
    for spec in args.reg or ():
        name, _, value = spec.partition("=")
        try:
            reg, val = int(name.lstrip("r")), int(value)
        except ValueError:
            _usage_error(f"--reg {spec!r}: expected rN=VALUE with integers, e.g. r1=5")
        if not 0 <= reg < NUM_REGS:
            _usage_error(f"--reg {spec!r}: registers are r0 to r{NUM_REGS - 1}")
        regs[reg] = val
    return ExecInput(decisions, tuple(regs))


def _load_plan(sidecar: Path, program: Program) -> InstrumentedProgram:
    """The instrumented program described by `program`'s .plan.json sidecar.
    A well-formed sidecar must also carry the stamp `instrument` wrote, the
    sha256 of `program`'s printed text."""
    try:
        data = json.loads(sidecar.read_text())
        target = InstrumentedProgram(
            program,
            data["mode"],
            {n: ResolvedFunction.from_json(d) for n, d in data["functions"].items()},
        )
    except OSError as exc:
        _usage_error(f"cannot read plan sidecar {sidecar}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, AttributeError, IndexError, RecursionError) as exc:
        _usage_error(f"malformed plan sidecar {sidecar}: {type(exc).__name__}: {exc}")
    stamp = data.get(STAMP)
    if not stamp:
        _usage_error(f"plan sidecar {sidecar} carries no {STAMP}: instrument the program again")
    if stamp != hashlib.sha256(print_program(program).encode()).hexdigest():
        _usage_error(f"plan sidecar {sidecar} was written for another program")
    return target


def cmd_run(args) -> int:
    budget = _positive("--budget", args.budget)
    program = _load(args.file, allow_shadow=True)
    inp = _parse_input(args)
    target: Program | InstrumentedProgram = program
    sidecar = Path(args.file + ".plan.json")
    if sidecar.exists():
        target = _load_plan(sidecar, program)
    elif any(i.opcode in SHADOW_OPCODES for f in program.functions.values() for b in f.blocks.values() for i in b.instrs):
        # run at default costs, its shadow counts would not be its plan's
        _usage_error(f"{args.file} holds shadow instructions but no plan sidecar {sidecar}")
    trace, outcome = execute(target, inp, budget, record=args.json or args.trace)
    if args.json:
        print(
            json.dumps(
                {
                    "outcome": outcome.kind,
                    "r0": outcome.r0,
                    "site": list(outcome.site) if outcome.site else None,
                    "trace": trace.to_json(),
                },
                sort_keys=True,
            )
        )
        return 0
    if args.trace:
        for line in trace.to_lines():
            print(line)
    extra = f" r0={outcome.r0}" if outcome.kind == COMPLETED else ""
    if outcome.site:
        extra = f" at {outcome.site[0]}.b{outcome.site[1]}"
    if outcome.kind == FAULT:
        extra = f": {outcome.evidence[0]}"
    print(f"outcome: {outcome.kind}{extra}")
    print(
        f"instructions: {trace.instr_count}  shadow: {trace.shadow_instr}  "
        f"memory accesses: {trace.mem_accesses}"
    )
    return 0


def _seed(args) -> int:
    env = os.environ.get("SHADOWLAB_SEED")
    try:
        return int(env) if env else args.seed
    except ValueError:
        _usage_error(f"SHADOWLAB_SEED {env!r}: expected an integer")


def cmd_gen(args) -> int:
    if not 0.0 <= args.attack_density <= 1.0:
        _usage_error(f"--attack-density {args.attack_density}: must be a probability from 0 to 1")
    cfg = GenConfig(
        seed=_seed(args), count=_positive("--count", args.count), attack_density=args.attack_density
    )
    out_dir = Path(args.out)
    names = []
    for name, program in generate_corpus(cfg):
        _atomic_write(out_dir / f"{name}.mir", print_program(program))
        names.append(f"{name}.mir")
    manifest = {
        "seed": cfg.seed,
        "count": cfg.count,
        "attack_density": cfg.attack_density,
        "files": names,
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, sort_keys=True, indent=2))
    print(f"wrote {len(names)} programs to {out_dir}")
    return 0


def cmd_stats(args) -> int:
    rows = []
    for path in sorted(Path(args.dir).glob("*.mir")):
        program = _load(str(path))
        analysis, plan = _plan(str(path), program)
        rows.append(
            {
                "name": path.stem,
                "instrumentation": _instr_stats(plan),
                "writes": _write_stats(program, analysis.heights),
            }
        )
    if not rows:
        print("no .mir files found", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(rows, sort_keys=True, indent=2))
        return 0
    header = f"{'program':<12} {'SFE%':>6} {'SPE%':>6} {'RF%':>6} {'fns':>4}  {'stack%':>7} {'global%':>8} {'unsafe%':>8} {'writes':>7}"
    print(header)
    for r in rows:
        ist, wst = r["instrumentation"], r["writes"]
        print(
            f"{r['name']:<12} {ist['sfe_pct']:>6.1f} {ist['spe_pct']:>6.1f} {ist['rf_pct']:>6.1f} "
            f"{ist['total']:>4}  {wst['stack_pct']:>7.1f} {wst['global_pct']:>8.1f} "
            f"{wst['unsafe_pct']:>8.1f} {wst['total']:>7}"
        )
    return 0


@dataclass
class VerifyConfig:
    seed: int = 1
    benign_count: int = 30
    adversarial_count: int = 40
    inputs_per_program: int = 6
    budget: int = 20000


@dataclass
class _Prepared:
    analysis: ProgramAnalysis   # the input program's
    plan: InstrumentationPlan
    targets: dict[str, CompiledProgram]   # each mode's valid output, compiled with its checks
    inputs: list[ExecInput]


def _input_seed(cfg: VerifyConfig, name: str) -> int:
    return cfg.seed * 7_919 + zlib.crc32(name.encode())


def _prepare(name: str, program: Program, cfg: VerifyConfig, modes: tuple[str, ...]) -> tuple[_Prepared | None, list[Finding]]:
    """`program` prepared under each of `modes`, or None if it is invalid, and its findings."""
    diags = validate_program(program)
    if diags:
        return None, [Finding("validation", name, None, f"{name}: {d.reason}") for d in diags]
    analysis, plan = plan_program(program)
    targets, found = {}, []
    # functions that passed: the input's, which apply_plan shares, then each
    # valid output's, so a rewrite modes share is walked once
    passed = {id(fn): fn for fn in program.functions.values()}
    for mode in modes:
        ip = apply_plan(program, plan, mode)
        bad = validate_program(ip.program, allow_shadow=True, checked=passed)
        if bad:
            found += [Finding("validation", name, mode, f"{name}/{mode}: {d.reason}") for d in bad]
            continue
        passed.update((id(fn), fn) for fn in ip.program.functions.values())
        try:
            # store heights map from the input's analysis by position; the rewrites are checked on them
            mapped = build_checks(ip, program, analysis)
            findings = check_rewrites(ip, program, analysis)
        except CheckMappingError as exc:
            found.append(Finding("mapping", name, mode, f"{name}/{mode}: {exc}"))
            continue
        found += [Finding("activation", name, mode, f"activation: {name}/{mode} fn {fn}: {m}") for fn, m in findings]
        targets[mode] = compile(ip, mapped)
    inputs = generate_inputs(_input_seed(cfg, name), cfg.inputs_per_program)
    return _Prepared(analysis, plan, targets, inputs), found


def _benign_phase(cfg: VerifyConfig, corpus) -> tuple[CampaignReport, dict]:
    """Check each benign program's dead register masks on every path, then run
    its base and every sound mode's target on its inputs.  Returns the phase's
    report and its report fields: pairs run, overhead ratios, plan coverage."""
    report = CampaignReport()
    shadow, total = Counter(), Counter()   # instructions per mode over every run
    pairs = 0
    coverage = dict.fromkeys((FN_ELIDED, FN_FULL, FN_LOWERED, FN_REGFRAME), 0)
    for name, program in corpus:
        prepared, found = _prepare(name, program, cfg, SOUND_MODES)
        report.add(*found)
        if prepared is None:
            continue
        if "LIGHT" in prepared.targets:
            for fp in prepared.plan.per_function.values():
                coverage[resolve_mode(fp, "LIGHT")] += 1
        live = prepared.analysis.liveness
        report.add(*(Finding("liveness", name, "BASE", f"{name}/BASE: liveness violation {f}")
                     for fn in program.functions.values() for f in dead_register_findings(fn, live[fn.name])))
        base = compile(program, prepared.analysis)
        for i, inp in enumerate(prepared.inputs):
            run = f"{name}[{i}]"
            base_trace, base_outcome = execute(base, inp, cfg.budget)
            report.check(run, "BASE", base_trace, base_outcome)
            if base_outcome.kind != COMPLETED:
                report.add(Finding("outcome", run, "BASE", f"{run}: benign base run ended {base_outcome.kind}"))
                continue
            base_obs = observables(base_trace, base_outcome)
            ops = {}
            for mode, target in prepared.targets.items():
                trace, outcome = execute(target, inp, cfg.budget)
                report.check(run, mode, trace, outcome)
                pairs += 1
                if observables(trace, outcome) != base_obs:
                    report.add(Finding("transparency", run, mode, f"{run}/{mode}: observables diverge from base"))
                ops[mode] = trace.shadow_ops
                shadow[mode] += trace.shadow_instr
                total[mode] += trace.total_instr
            if all(m in ops for m in LADDER) and not all(ops[a] >= ops[b] for a, b in zip(LADDER, LADDER[1:])):
                report.add(Finding("monotone", run, None, f"{run}: shadow-op counts not monotone {ops}"))
    ratios = {m: shadow[m] / total[m] if total[m] else 0.0 for m in SOUND_MODES}
    if not all(ratios[a] > ratios[b] for a, b in zip(LADDER, LADDER[1:])):
        report.add(Finding("ladder", None, None, f"aggregate overhead ratios not strictly decreasing: {ratios}"))
    return report, {"transparency_pairs": pairs, "overhead_ratios": ratios, "plan_coverage": coverage}


def _program_cases(name: str, program: Program, cfg: VerifyConfig, report: CampaignReport, control: list, spot: list):
    """Prepare one adversarial program, yield its detection cases mode by mode
    down the ladder, and append its ELIDE-ALL cases to `control`.  The first
    three detection cases of all go to `spot` too, each with its program's
    findings.  Its targets are freed once its last case is consumed."""
    prepared, found = _prepare(name, program, cfg, LADDER + ("ELIDE-ALL",))
    report.add(*found)
    if prepared is None:
        return
    for mode, target in prepared.targets.items():   # in the order of the modes prepared
        cases = [CampaignCase(name, mode, target, inp, True, cfg.budget) for inp in prepared.inputs]
        if mode == "ELIDE-ALL":
            control.extend(cases)
        if mode in LADDER:
            spot.extend((case, found) for case in cases[: 3 - len(spot)])
            yield from cases


def _adversarial_phase(cfg: VerifyConfig, corpus) -> tuple[CampaignReport, CampaignReport, CampaignReport, list]:
    """Run the detection campaign over the sound modes, preparing each program
    as the campaign reaches it, then the control campaign over ELIDE-ALL.
    Returns the preparation report, the detection and control reports, and the
    first three detection cases with their programs' findings, for determinism."""
    preparation, control, spot = CampaignReport(), [], []
    detection = run_campaign(chain.from_iterable(_program_cases(*p, cfg, preparation, control, spot) for p in corpus))
    return preparation, detection, run_campaign(control), spot


def _determinism_phase(cfg: VerifyConfig, corpus, spot: list) -> CampaignReport:
    """Prepare each spot case's program again for the case's mode alone, and run
    the case on both targets, recorded.  A case fails if the second findings
    for its mode differ from the first, which are compared and never counted,
    if there is no second target, or if the two runs differ."""
    programs, report = dict(corpus), CampaignReport()
    for case, first in spot:
        fail = lambda why: report.add(Finding("determinism", case.name, case.mode, f"{case.name}/{case.mode}: {why}"))
        again, found = _prepare(case.name, programs[case.name], cfg, (case.mode,))
        first = [f for f in first if f.mode in (None, case.mode)]
        if found != first:
            fail(f"nondeterministic preparation: {[f.text for f in found]} the second time, {[f.text for f in first]} the first")
        if again is None or case.mode not in again.targets:
            fail("nondeterministic preparation: no target the second time")
            continue
        t1, o1 = execute(case.target, case.inp, cfg.budget, record=True)
        t2, o2 = execute(again.targets[case.mode], case.inp, cfg.budget, record=True)
        if t1.log != t2.log or t1.activation_problems != t2.activation_problems or o1 != o2:
            fail("nondeterministic trace")
    return report


def verify_run(cfg: VerifyConfig) -> tuple[dict, bool]:
    """Generate corpora, instrument under every mode, execute, and check the
    whole invariant suite.  Returns (report, all-invariants-hold).

    Each adversarial program is prepared when the detection campaign reaches
    it: only its detection targets, the control targets and the first three
    detection cases, kept for the determinism check, are alive at once."""
    benign_corpus = generate_corpus(GenConfig(cfg.seed, cfg.benign_count, attack_density=0.0, budget=cfg.budget))
    adversarial = generate_corpus(GenConfig(cfg.seed + 1, cfg.adversarial_count, attack_density=1.0, budget=cfg.budget))
    benign, fields = _benign_phase(cfg, benign_corpus)
    preparation, detection, control, spot = _adversarial_phase(cfg, adversarial)
    reports = (benign, preparation, detection, control, _determinism_phase(cfg, adversarial, spot))   # phase order
    counts = sum((r.counts for r in reports), Counter())   # findings per kind, over every phase
    checks = {
        "validation_soundness": detection.undetected == 0 and detection.fired > 0,
        "detection_rate": detection.fired > 0 and detection.detected == detection.fired,
        "control_detects_missing_instrumentation": control.undetected > 0,
        "transparency": not counts["transparency"] and fields["transparency_pairs"] > 0,
        "shadow_op_monotonicity": not counts["monotone"],
        "aggregate_overhead_ladder": not counts["ladder"],
        "height_soundness": not counts["height"],
        "liveness_soundness": not counts["liveness"],
        "exactly_one_check_and_balance": not counts["activation"],
        "plan_mode_coverage": all(fields["plan_coverage"].values()),
        "determinism": not counts["determinism"],
        "no_other_violations": not counts,
    }
    out = {
        "seed": cfg.seed,
        "adversarial_executions": detection.cases,
        "fired": detection.fired,
        "detected": detection.detected,
        "undetected": detection.undetected,
        "control_undetected": control.undetected,
        **fields,
        "checks": checks,
        "violations": [f.text for r in reports for f in r.findings][:MAX_VIOLATIONS],
        # the campaign ran unrecorded: run each reported miss again for its trace
        "counterexamples": [
            {
                "case": case.name,
                "mode": case.mode,
                "trace": execute(case.target, case.inp, case.budget, record=True)[0].to_json(),
            }
            for case, _ in detection.counterexamples
        ],
    }
    return out, all(checks.values())


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        seed=_seed(args),
        benign_count=_positive("--benign", args.benign),
        adversarial_count=_positive("--count", args.count),
        inputs_per_program=_positive("--inputs", args.inputs),
        budget=_positive("--budget", args.budget),
    )
    report, ok = verify_run(cfg)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for check, passed in report["checks"].items():
            print(f"{'PASS' if passed else 'FAIL'}: {check}")
        print(
            f"adversarial executions: {report['adversarial_executions']} "
            f"(fired {report['fired']}, detected {report['detected']}, "
            f"undetected {report['undetected']}, control undetected {report['control_undetected']})"
        )
        print("overhead ratios: " + "  ".join(f"{m}={r:.4f}" for m, r in report["overhead_ratios"].items()))
        for v in report["violations"][:10]:
            print(f"  violation: {v}")
    if args.out:
        _atomic_write(Path(args.out), json.dumps(report, sort_keys=True, indent=2))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="shadowlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="safety verdicts and statistics for one program")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("instrument", help="write an instrumented program")
    p.add_argument("file")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_instrument)

    p = sub.add_parser("run", help="execute a program")
    p.add_argument("file")
    p.add_argument("--input", default="", help="comma-separated branch decisions, e.g. 1,0,1")
    p.add_argument("--reg", action="append", help="initial register, e.g. --reg r1=5")
    p.add_argument("--budget", type=int, default=100000)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("gen", help="generate a corpus directory")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--out", required=True)
    p.add_argument("--attack-density", type=float, default=0.0)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("verify", help="run the full verification campaign")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=40, help="adversarial programs")
    p.add_argument("--benign", type=int, default=30, help="benign programs")
    p.add_argument("--inputs", type=int, default=6, help="inputs per program")
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("stats", help="aggregate statistics over a corpus directory")
    p.add_argument("dir")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_stats)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: what is still buffered
        # goes nowhere, so flushing it at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
