"""Span tracing of shadowlab's public functions, from outside the package.

`Tracer.install` replaces each traced function by a wrapper under every name
a shadowlab module binds it to (`shadowlab.cli.execute` and
`shadowlab.shadowvm.execute` alike), so calls made inside the package are
seen too.  Spans (name, start, end, parent, note) stay in memory until the
benchmark writes them out; `uninstall` puts the originals back.
"""

from __future__ import annotations

import time
from collections import defaultdict

# layer -> (module attribute, span name) of every traced public function
TRACED = {
    "mir": (("parse_program", "mir.parse"), ("print_program", "mir.print"), ("validate_program", "mir.validate")),
    "gen": (("generate_corpus", "gen.corpus"), ("generate_inputs", "gen.inputs")),
    "analysis": (
        ("stack_heights", "analysis.stack_heights"),
        ("dead_registers", "analysis.dead_registers"),
        ("classify_writes", "analysis.classify_writes"),
    ),
    "safety": (("calculate_ra_safety", "safety.ra_safety"),),
    "transform": (
        ("analyze_program", "transform.analyze_program"),
        ("plan_program", "transform.plan_program"),
        ("plan_mechanism", "transform.plan_mechanism"),
        ("apply_plan", "transform.apply_plan"),
        ("strip_instrumentation", "transform.strip"),
    ),
    "shadowvm": (
        ("execute", "shadowvm.execute"),
        ("build_checks", "shadowvm.build_checks"),
        ("check_activations", "shadowvm.check_activations"),
        ("run_campaign", "shadowvm.run_campaign"),
    ),
    "cli": (("verify_run", "cli.verify_run"),),
}


def _fn_instrs(fn) -> int:
    return sum(len(b.instrs) for b in fn.blocks.values())


def _note(name: str, args: tuple, kwargs: dict, result):
    """A small per-span record of the work a call did, for the count metrics."""
    if name == "mir.parse":
        return args[0].count("\n")
    if name in ("analysis.stack_heights", "analysis.dead_registers", "analysis.classify_writes"):
        return _fn_instrs(args[0])
    if name == "safety.ra_safety":
        return len(args[0].functions)
    if name == "shadowvm.execute":
        trace, outcome = result
        return trace.instr_count + trace.shadow_ops, outcome.kind
    if name == "transform.apply_plan":
        mode = args[2] if len(args) > 2 else kwargs["mode"]
        modes = [rf.mode for rf in result.functions.values()]
        entry_pushes = [
            op for rf in result.functions.values() for op in rf.shadow_ops
            if op.kind == "push" and op.site[0] in ("entry", "instr")
        ]
        return mode, modes, len(entry_pushes), sum(op.chased for op in entry_pushes)
    if name == "transform.plan_program":
        _, plan = result
        candidates = [p for p in plan.per_function.values() if not p.ra_safe and p.safe_paths >= 1]
        return len(candidates), sum(p.lowered is not None for p in candidates)
    if name == "shadowvm.run_campaign":
        return result.cases, result.fired
    return None


class Tracer:
    def __init__(self, modules: dict, clock=time.perf_counter):
        """`modules` maps a layer name to the imported shadowlab module."""
        self.modules = modules
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[idx] = (name, start, clock(), parent, ("error", type(exc).__name__))
                raise
            finally:
                stack.pop()
            end = clock()
            spans[idx] = (name, start, end, parent, _note(name, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for layer, entries in TRACED.items():
            home = self.modules[layer]
            for attr, span_name in entries:
                original = getattr(home, attr)
                wrapper = self._wrap(span_name, original)
                for module in self.modules.values():
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()


def self_times(spans: list, first: int = 0, stop: int | None = None) -> dict[str, float]:
    """Total self time per span name over spans[first:stop]: duration minus
    the time child spans cover."""
    stop = len(spans) if stop is None else stop
    child: dict[int, float] = defaultdict(float)
    for name, start, end, parent, _ in spans[first:stop]:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i in range(first, stop):
        name, start, end, _, _ = spans[i]
        out[name] += (end - start) - child[i]
    return out


def least_squares(xs: list[float], ys: list[float]) -> tuple[float, float]:
    """(intercept, slope) of y = a + b x; (0, 0) when x does not vary."""
    n = len(xs)
    if n < 2:
        return 0.0, 0.0
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, 0.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    return my - slope * mx, slope


def layer_metrics(spans: list, passes: int) -> dict[str, float]:
    """The per-layer metrics, per pass over the workload, from traced spans."""
    selft = self_times(spans)
    per = lambda v: v / passes
    notes = defaultdict(list)
    for name, start, end, _, note in spans:
        notes[name].append((end - start, note))

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    m: dict[str, float] = {}
    m["mir.parse_s"] = per(selft["mir.parse"])
    parse_lines = sum(n for _, n in notes["mir.parse"] if isinstance(n, int))
    m["mir.parse_lines_per_s"] = rate(parse_lines, selft["mir.parse"])
    m["mir.print_s"] = per(selft["mir.print"])
    m["mir.validate_s"] = per(selft["mir.validate"])
    m["gen.corpus_s"] = per(selft["gen.corpus"])
    m["gen.inputs_s"] = per(selft["gen.inputs"])

    analysis_names = ("analysis.stack_heights", "analysis.dead_registers", "analysis.classify_writes")
    for name in analysis_names:
        m[name + "_s"] = per(selft[name])
    analysis_instrs = sum(n for name in analysis_names for _, n in notes[name] if isinstance(n, int))
    m["analysis.instrs_per_s"] = rate(analysis_instrs, sum(selft[n] for n in analysis_names))

    m["safety.ra_safety_s"] = per(selft["safety.ra_safety"])
    safety_fns = sum(n for _, n in notes["safety.ra_safety"] if isinstance(n, int))
    m["safety.functions_per_s"] = rate(safety_fns, selft["safety.ra_safety"])

    m["transform.analyze_program_s"] = per(selft["transform.analyze_program"])
    m["transform.plan_mechanism_s"] = per(selft["transform.plan_mechanism"])
    apply_by_mode: dict[str, float] = defaultdict(float)
    light_modes: dict[str, int] = defaultdict(int)
    entry_pushes = chased = 0
    for name, start, end, _, note in spans:
        if name == "transform.apply_plan" and isinstance(note, tuple) and note[0] != "error":
            mode, modes, pushes, n_chased = note
            apply_by_mode[mode] += end - start  # apply_plan calls no traced function
            if mode == "LIGHT":
                for fn_mode in modes:
                    light_modes[fn_mode] += 1
            if mode == "MO":
                entry_pushes += pushes
                chased += n_chased
    for mode in ("FULL", "SFE", "PO", "MO", "LIGHT", "ELIDE-ALL"):
        m[f"transform.apply_plan_s.{mode}"] = per(apply_by_mode[mode])
    for fn_mode in ("lowered", "regframe", "elided"):
        m[f"transform.{fn_mode}_fns"] = per(light_modes[fn_mode])
    plans = [n for _, n in notes["transform.plan_program"]]
    m["transform.plan_errors"] = per(sum(1 for n in plans if n and n[0] == "error"))
    candidates = sum(n[0] for n in plans if n and n[0] != "error")
    lowered = sum(n[1] for n in plans if n and n[0] != "error")
    m["transform.lowering_ratio"] = lowered / candidates if candidates else 0.0
    m["transform.chase_ratio"] = chased / entry_pushes if entry_pushes else 0.0

    runs = [(d, n) for d, n in notes["shadowvm.execute"] if n and n[0] != "error"]
    m["shadowvm.execute_s"] = per(selft["shadowvm.execute"])
    m["shadowvm.execute_calls"] = per(len(runs))
    m["shadowvm.steps"] = per(sum(n[0] for _, n in runs))
    fixed, slope = least_squares([n[0] for _, n in runs], [d * 1e6 for d, _ in runs])
    m["shadowvm.fixed_us_per_run"] = fixed
    m["shadowvm.us_per_step"] = slope
    m["shadowvm.faults"] = per(sum(1 for _, n in runs if n[1] == "fault"))
    m["shadowvm.build_checks_s"] = per(selft["shadowvm.build_checks"])
    m["shadowvm.check_activations_s"] = per(selft["shadowvm.check_activations"])
    m["shadowvm.run_campaign_self_s"] = per(selft["shadowvm.run_campaign"])
    campaigns = [n for _, n in notes["shadowvm.run_campaign"] if n and n[0] != "error"]
    cases = sum(n[0] for n in campaigns)
    m["shadowvm.fired_ratio"] = sum(n[1] for n in campaigns) / cases if cases else 0.0
    m["cli.verify_run_self_s"] = per(selft["cli.verify_run"])
    m["trace.spans"] = per(len(spans))
    return m
