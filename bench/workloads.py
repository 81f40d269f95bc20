"""The three workloads.  Each has a set-up step (make the inputs from the
seed), a pass (the timed unit of work, one closed-loop caller) and output
checks that run outside the timed region.

The benchmark only calls shadowlab's public functions, through the module
objects it is handed, so a traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import traceback
from dataclasses import dataclass, field

import corpus

SOUND_MODES = ("FULL", "SFE", "PO", "MO", "LIGHT")

# tests/test_acceptance.py::CAMPAIGN_CFG and the numbers it reproduces
ACCEPTANCE_CFG = dict(seed=20260810, benign_count=40, adversarial_count=150, inputs_per_program=26, budget=20000)
ACCEPTANCE_NUMBERS = {
    "adversarial_executions": 15600,
    "fired": 12452,
    "detected": 12452,
    "transparency_pairs": 5200,
}
ACCEPTANCE_RATIOS = {"FULL": 0.7044, "SFE": 0.5574, "PO": 0.5194, "MO": 0.6023, "LIGHT": 0.4840}


@dataclass
class PassResult:
    items: list[float]      # seconds per timed item; the same items, in the same order, every pass
    costs: list[float]      # the same times in units of the speed probe's loop
    work: float             # executions, instructions or steps done by the timed items
    attempted: int          # operations, timed or not
    detail: object = None
    failed: int = 0         # set by the workload's check

    @property
    def seconds(self) -> float:
        return sum(self.items)


@dataclass
class Outcome:
    """What the checks found, and the values the workload reports."""

    light_cost: float = 0.0     # the paper's modeled cost of LIGHT on this workload
    failures: list[dict] = field(default_factory=list)
    report: dict = field(default_factory=dict)
    fingerprint: dict = field(default_factory=dict)

    def fail(self, item: str, reason: str, known: bool = False) -> None:
        self.failures.append({"item": item, "reason": reason, "known_defect": known})


def _describe(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1] if exc.__traceback__ else None
    where = f" ({frame.filename.rsplit('/', 1)[-1]}:{frame.lineno} in {frame.name})" if frame else ""
    return f"{type(exc).__name__}: {exc}{where}"


# ---------------------------------------------------------------- campaign

class Campaign:
    """cli.verify_run at the acceptance config.  The config is pinned, seed
    included: the workload is defined by it and its outputs must reproduce
    the acceptance numbers exactly, so --seed does not change the inputs."""

    name = "campaign"
    work_unit = "executions"

    def __init__(self, sl, seed: int, tiny: bool = False):
        self.sl = sl
        cfg = dict(ACCEPTANCE_CFG)
        if tiny:
            cfg.update(benign_count=3, adversarial_count=4, inputs_per_program=4)
        self.cfg = sl.cli.VerifyConfig(**cfg)
        self.pinned = not tiny

    def setup(self) -> dict:
        """Generate the two corpora verify_run will build, to state the input size."""
        gen, cfg = self.sl.gen, self.cfg
        size = {"programs": 0, "functions": 0, "instrs": 0, "config": dataclasses.asdict(cfg)}
        corpora = ((cfg.seed, cfg.benign_count, 0.0), (cfg.seed + 1, cfg.adversarial_count, 1.0))
        for seed, count, density in corpora:
            config = gen.GenConfig(seed=seed, count=count, attack_density=density, budget=cfg.budget)
            for _, program in gen.generate_corpus(config):
                size["programs"] += 1
                size["functions"] += len(program.functions)
                size["instrs"] += sum(len(b.instrs) for f in program.functions.values() for b in f.blocks.values())
        return size

    def executions(self, report: dict) -> int:
        """Every execute call one verify_run makes: base and instrumented
        benign runs, the detection and control campaigns, the determinism pairs."""
        cfg = self.cfg
        base_runs = cfg.benign_count * cfg.inputs_per_program
        control_runs = cfg.adversarial_count * cfg.inputs_per_program
        adversarial = report["adversarial_executions"]
        return base_runs + report["transparency_pairs"] + adversarial + control_runs + 2 * min(3, adversarial)

    def run_pass(self, probe) -> PassResult:
        result, seconds, cost = probe.measure(self.sl.cli.verify_run, self.cfg)
        if isinstance(result, Exception):
            raise result
        return PassResult([seconds], [cost], self.executions(result[0]), 1, result)

    def check(self, passes: list[PassResult], out: Outcome) -> None:
        first, _ = passes[0].detail
        for i, p in enumerate(passes):
            report, ok = p.detail
            problems = []
            if not ok or not all(report["checks"].values()):
                problems.append(f"failed checks {sorted(k for k, v in report['checks'].items() if not v)}")
            if report["detected"] != report["fired"]:
                problems.append(f"detected {report['detected']} != fired {report['fired']}")
            if report["control_undetected"] <= 0:
                problems.append("the unsound control missed nothing")
            if self.pinned:
                for key, want in ACCEPTANCE_NUMBERS.items():
                    if report[key] != want:
                        problems.append(f"{key} {report[key]} != {want}")
                got = {m: round(r, 4) for m, r in report["overhead_ratios"].items()}
                if got != ACCEPTANCE_RATIOS:
                    problems.append(f"overhead ratios {got} != {ACCEPTANCE_RATIOS}")
            if json.dumps(report, sort_keys=True) != json.dumps(first, sort_keys=True):
                problems.append("report differs from the first pass")
            for reason in problems:
                out.fail(f"verify_run pass {i}", reason)
            p.failed = 1 if problems else 0
        ratios = first["overhead_ratios"]
        out.light_cost = ratios["LIGHT"]
        out.report["overhead_ratio.FULL"] = (ratios["FULL"], "ratio")
        out.report["overhead_ratio.LIGHT"] = (ratios["LIGHT"], "ratio")
        out.fingerprint.update(
            {
                "overhead_ratios": ratios,
                "light_plan_coverage": first["plan_coverage"],
                **{k: first[k] for k in ("adversarial_executions", "fired", "detected", "control_undetected",
                                         "transparency_pairs")},
            }
        )

    def trace_checks(self, layer: dict, passes: list[PassResult], out: Outcome) -> None:
        """The execution count the metrics assume is the count the trace saw."""
        if layer["shadowvm.execute_calls"] != passes[0].work:
            out.fail("execute calls", f"traced {layer['shadowvm.execute_calls']} per pass, expected {passes[0].work}")


# ---------------------------------------------------------------- compile-scale

def _digest(texts: dict[str, str]) -> str:
    return hashlib.sha256("\0".join(texts[m] for m in sorted(texts)).encode()).hexdigest()


def _known_defect(program: corpus.ScaleProgram, reason: str) -> bool:
    """transform's cap on lowering (ROADMAP item 4): PlanError on a function
    with a block id at or above the clone offset of 1000."""
    return program.over_cap and reason.startswith("PlanError:") and "block ids must be below" in reason


class CompileScale:
    """The scale corpus as MIR text through parse, validate, plan, apply for
    all six modes and print.  No execution."""

    name = "compile-scale"
    work_unit = "instructions"
    TINY_SHAPES = (("gen-dag", 12), ("diamond-chain", 10), ("diamond-chain", 400), ("loop-chain", 10), ("ring", 12))

    def __init__(self, sl, seed: int, tiny: bool = False):
        self.sl, self.seed = sl, seed
        self.shapes = self.TINY_SHAPES if tiny else corpus.SCALE_SHAPES

    def setup(self) -> dict:
        self.programs = corpus.build_scale_corpus(self.seed, self.sl.gen, self.sl.mir, self.shapes)
        self.work = sum(p.instrs for p in self.programs if not p.over_cap)
        return {"programs": [p.describe() for p in self.programs], "timed_instrs": self.work}

    def compile(self, text: str):
        mir, transform = self.sl.mir, self.sl.transform
        program = mir.parse_program(text)
        diags = mir.validate_program(program)
        if diags:
            raise ValueError(f"invalid input program: {diags[0].reason}")
        _, plan = transform.plan_program(program)
        instrumented = {mode: transform.apply_plan(program, plan, mode) for mode in transform.MODES}
        texts = {mode: mir.print_program(ip.program) for mode, ip in instrumented.items()}
        return program, plan, instrumented, texts

    def run_pass(self, probe) -> PassResult:
        """Programs over the block-id cap run in every pass but stay out of the
        timed items, so fixing the cap does not move the timed metrics."""
        items, costs, errors, digests, over_cap_s = [], [], {}, {}, 0.0
        for p in self.programs:
            result, seconds, cost = probe.measure(self.compile, p.text)
            if p.over_cap:
                over_cap_s += seconds
            else:
                items.append(seconds)
                costs.append(cost)
            if isinstance(result, Exception):
                errors[p.name] = _describe(result)
            else:
                digests[p.name] = _digest(result[3])
        return PassResult(items, costs, self.work, len(self.programs), (errors, digests, over_cap_s))

    def check(self, passes: list[PassResult], out: Outcome) -> None:
        mir, transform = self.sl.mir, self.sl.transform
        bad: dict[str, tuple[str, bool]] = {}
        outputs = {}
        for p in self.programs:
            failed = [ps.detail[0][p.name] for ps in passes if p.name in ps.detail[0]]
            if failed:
                bad[p.name] = (failed[0], _known_defect(p, failed[0]))
                continue
            program, plan, instrumented, texts = outputs[p.name] = self.compile(p.text)
            problems = []
            if any(ps.detail[1][p.name] != _digest(texts) for ps in passes):
                problems.append("a timed pass printed other output than the checked compile")
            if mir.print_program(program) != p.text:
                problems.append("input text is not in canonical form")
            stripped = {}
            for mode, ip in instrumented.items():
                diags = mir.validate_program(ip.program, allow_shadow=True)
                if diags:
                    problems.append(f"{mode}: revalidation failed: {diags[0].reason}")
                reparsed = mir.parse_program(texts[mode])
                if reparsed != ip.program or mir.print_program(reparsed) != texts[mode]:
                    problems.append(f"{mode}: print/parse does not round-trip")
                stripped[mode] = mir.print_program(transform.strip_instrumentation(ip))
            # MO and LIGHT inline call sites, which stripping leaves spliced
            for mode, text in stripped.items():
                if text != p.text and not (mode in ("MO", "LIGHT") and plan.inline_sites):
                    problems.append(f"{mode}: stripping does not give back the original text")
            if stripped["MO"] != stripped["LIGHT"]:
                problems.append("MO and LIGHT strip to different programs")
            if problems:
                bad[p.name] = ("; ".join(problems), False)
        for name, (reason, known) in bad.items():
            out.fail(name, reason, known)
        for ps in passes:
            ps.failed = len(bad)

        timed = [p for p in self.programs if not p.over_cap and p.name in outputs]
        original = sum(p.instrs for p in timed)
        growth = {}
        for mode in transform.MODES:
            instrumented = sum(
                len(b.instrs)
                for p in timed
                for f in outputs[p.name][2][mode].program.functions.values()
                for b in f.blocks.values()
            )
            growth[mode] = instrumented / original if original else 0.0
        coverage: dict[str, int] = {}
        digest = hashlib.sha256()
        for name in sorted(outputs):
            for mode in transform.MODES:
                ip = outputs[name][2][mode]
                digest.update(json.dumps(ip.to_json(), sort_keys=True).encode())
                if mode == "LIGHT":
                    for rf in ip.functions.values():
                        coverage[rf.mode] = coverage.get(rf.mode, 0) + 1
        out.light_cost = growth["LIGHT"]
        out.report["code_growth.LIGHT"] = (growth["LIGHT"], "ratio")
        out.report["over_cap_s"] = (sum(ps.detail[2] for ps in passes) / len(passes), "s")
        out.fingerprint.update(
            {"code_growth": growth, "light_plan_coverage": coverage, "plan_sha256": digest.hexdigest()}
        )

    def trace_checks(self, layer: dict, passes: list[PassResult], out: Outcome) -> None:
        pass


# ---------------------------------------------------------------- vm-long

class VmLong:
    """Long benign runs of a few mid-size programs under every sound mode,
    without analysis checks, as `shadowlab run` executes them."""

    name = "vm-long"
    work_unit = "steps"
    BUDGET = 2_000_000
    INPUTS_PER_PROGRAM = 2

    def __init__(self, sl, seed: int, tiny: bool = False):
        self.sl, self.seed = sl, seed
        self.iterations = 20 if tiny else 400
        self.program_count = 1 if tiny else 3

    def setup(self) -> dict:
        mir, transform, vm = self.sl.mir, self.sl.transform, self.sl.shadowvm
        rng = random.Random(self.seed)
        self.cases = []
        size = {"programs": [], "iterations": self.iterations}
        for lp in corpus.build_long_programs(self.seed, self.program_count):
            program = mir.parse_program(lp.text)
            diags = mir.validate_program(program)
            if diags:
                raise ValueError(f"{lp.name}: {diags[0].reason}")
            _, plan = transform.plan_program(program)
            targets = {mode: transform.apply_plan(program, plan, mode) for mode in SOUND_MODES}
            for i in range(self.INPUTS_PER_PROGRAM):
                decisions = corpus.long_decisions(rng, lp, self.iterations)
                inp = vm.ExecInput(decisions, tuple(rng.randint(0, 63) for _ in range(16)))
                for mode in SOUND_MODES:
                    self.cases.append((f"{lp.name}[{i}]/{mode}", program, mode, targets[mode], inp))
            size["programs"].append(
                {
                    "name": lp.name,
                    "functions": len(program.functions),
                    "light_modes": {n: rf.mode for n, rf in targets["LIGHT"].functions.items()},
                }
            )
        size["runs_per_pass"] = len(self.cases)
        return size

    def run_pass(self, probe) -> PassResult:
        items, costs, runs = [], [], []
        for _, _, _, target, inp in self.cases:
            result, seconds, cost = probe.measure(self.sl.shadowvm.execute, target, inp, self.BUDGET)
            items.append(seconds)
            costs.append(cost)
            if isinstance(result, Exception):
                runs.append((_describe(result),))
            else:
                trace, outcome = result
                runs.append((outcome.kind, trace.instr_count + trace.shadow_ops, trace.shadow_instr, trace.total_instr))
        steps = sum(r[1] for r in runs if len(r) > 1)
        return PassResult(items, costs, steps, len(items), runs)

    def check(self, passes: list[PassResult], out: Outcome) -> None:
        vm = self.sl.shadowvm
        bad: dict[int, str] = {}
        base_obs = {}
        totals = {m: [0, 0] for m in SOUND_MODES}
        for k, (label, program, mode, target, inp) in enumerate(self.cases):
            if (id(program), inp) not in base_obs:
                trace, outcome = vm.execute(program, inp, self.BUDGET)
                base_obs[(id(program), inp)] = vm.observables(trace, outcome)
            trace, outcome = vm.execute(target, inp, self.BUDGET)
            run = (outcome.kind, trace.instr_count + trace.shadow_ops, trace.shadow_instr, trace.total_instr)
            problems = []
            if outcome.kind != vm.COMPLETED:
                problems.append(f"ended {outcome.kind}")
            if vm.observables(trace, outcome) != base_obs[(id(program), inp)]:
                problems.append("observables differ from the uninstrumented run")
            case = vm.CampaignCase(label, mode, target, inp, False, budget=self.BUDGET)
            problems.extend(vm.check_activations(case, trace, outcome)[:3])
            if any(p.detail[k] != run for p in passes):
                problems.append("a timed run differs from the checked run")
            if problems:
                bad[k] = "; ".join(problems)
            totals[mode][0] += trace.shadow_instr
            totals[mode][1] += trace.total_instr
        for k, reason in bad.items():
            out.fail(self.cases[k][0], reason)
        for p in passes:
            p.failed = len(bad)
        ratios = {m: s / t if t else 0.0 for m, (s, t) in totals.items()}
        out.light_cost = ratios["LIGHT"]
        out.report["overhead_ratio.FULL"] = (ratios["FULL"], "ratio")
        out.report["overhead_ratio.LIGHT"] = (ratios["LIGHT"], "ratio")
        out.report["steps_per_pass"] = (passes[0].work, "steps")
        out.fingerprint["overhead_ratios"] = ratios

    def trace_checks(self, layer: dict, passes: list[PassResult], out: Outcome) -> None:
        pass


WORKLOADS = {w.name: w for w in (Campaign, CompileScale, VmLong)}
