"""shadowlab benchmark: one command, three workloads, end to end and per layer.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0
    python3 -m pytest -q bench          # the benchmark's self-tests

Run from the root of a source checkout; the package is imported from ./src
and nothing is installed.  Each workload runs in this one single-threaded
process as a closed loop with one caller: passes back to back for --seconds.

--trace 0 prints the end-to-end metrics, the same five for every workload:
  setup_s           median of five set-ups: import the package, make the inputs
  pass_ref          one pass over the workload's batch, in units of the speed
                    probe's reference loop (probe.py): each item's median over
                    the passes, summed; on campaign it stands for verify_s
  work_per_ref      the pass's work per unit: executions (campaign), input
                    instructions compiled (compile-scale), VM steps (vm-long)
  peak_rss_mb       peak resident memory of the process
  light_cost_ratio  the paper's modeled cost of LIGHT: shadow / total executed
                    instructions (campaign, vm-long), instrumented / original
                    static instructions (compile-scale)
The gated times are in probe units because on a shared host the speed of a
process can drift by a third within minutes; seconds are in the report.
--trace 1 runs one untraced pass, then traced passes, and prints the per-layer
metrics (spans.py; per pass, from self times) and trace.overhead_s.

The line before the result holds the full report: the metrics in seconds,
under the workload's own names (pass_s, verify_s, executions_per_s, compile_p50_ms,
compile_tail_ms, run_p50_ms, run_tail_ms, vm_steps_per_s, overhead_ratio.*,
code_growth.LIGHT, error_ratio), the input size, the environment, a behaviour
fingerprint and every failure by item.  It is also written, with the spans of
a traced run, to .bench_out/.

`attempted` and `failed` count operations: verify_run passes, program
compiles, VM runs.  `correct` is false when any output check fails, except
for failures that are a listed known defect of the code (workloads.py).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import workloads
from probe import SpeedProbe
from spans import Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
LAYERS = ("mir", "gen", "analysis", "safety", "transform", "shadowvm", "cli")
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def load_shadowlab() -> SimpleNamespace:
    """Import shadowlab afresh from ./src; importing is part of set-up."""
    if not (SRC / "shadowlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no shadowlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "shadowlab" or m.startswith("shadowlab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = {layer: importlib.import_module(f"shadowlab.{layer}") for layer in LAYERS}
    if Path(modules["cli"].__file__).resolve().parent != SRC / "shadowlab":
        raise SystemExit("error: shadowlab was not imported from ./src")
    return SimpleNamespace(**modules)


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": commit,
    }


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """(percentile, value): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, -(-int(pct * n) // 100))  # nearest rank, ceil(pct/100 * n)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(workload, seconds: float, probe: SpeedProbe) -> list:
    """Closed loop, one caller: passes back to back until the next one would
    overrun the time budget (at least one).  Garbage left by set-up or by the
    previous pass is collected first, so every pass starts alike."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        passes.append(workload.run_pass(probe))
        estimate = statistics.median(p.seconds for p in passes)
        if time.perf_counter() + estimate > deadline:
            return passes


def median_pass(passes: list, field: str = "items") -> float:
    """Each timed item's median over the passes, summed."""
    return sum(statistics.median(values) for values in zip(*(getattr(p, field) for p in passes)))


def measure(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    env = environment()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        sl = load_shadowlab()
        workload = workloads.WORKLOADS[name](sl, seed, tiny)
        size = workload.setup()
        setup_times.append(time.perf_counter() - start)

    # What set-up leaves behind (five imports of the package among it) is
    # moved out of the collector's reach, so collections during the passes
    # walk about the heap a one-shot process would have.
    gc.collect()
    gc.freeze()
    out = workloads.Outcome()
    checked, tracer, check_start = [], None, 0
    probe = SpeedProbe()
    try:
        with probe:
            if traced:
                checked += run_passes(workload, 0.0, probe)
                tracer = Tracer({layer: getattr(sl, layer) for layer in LAYERS}, probe.clock)
                tracer.install()
            passes = run_passes(workload, max(0.0, seconds - sum(p.seconds for p in checked)), probe)
        checked += passes
        gc.unfreeze()
        # a traced run traces the checks too: strip_instrumentation runs only there
        check_start = len(tracer.spans) if tracer else 0
        workload.check(checked, out)
    finally:
        if tracer:
            tracer.uninstall()
    spans = tracer.spans if tracer else []

    setup_s = statistics.median(setup_times)
    items = [s for p in passes for s in p.items]
    pass_s = median_pass(passes)
    work_per_s = passes[0].work / pass_s
    pass_ref = median_pass(passes, "costs")
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)

    report = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_ratio": (failed / attempted, "ratio"),
        "pass_s": (pass_s, "s"),
        "probe_loop_ms": (statistics.median(loop for _, loop in probe.samples) * 1e3, "ms"),
    }
    if name == "campaign":
        report["verify_s"] = (pass_s, "s")
        report["executions_per_s"] = (work_per_s, "1/s")
    elif name == "compile-scale":
        report["compile_instrs_per_s"] = (work_per_s, "1/s")
        report["compile_p50_ms"] = (statistics.median(items) * 1e3, "ms")
        pct, value = tail(items)
        report["compile_tail_ms"] = (value * 1e3 if value is not None else None, "ms", pct, len(items))
    else:
        report["executions_per_s"] = (len(passes[0].items) / pass_s, "1/s")
        report["vm_steps_per_s"] = (work_per_s, "1/s")
        report["run_p50_ms"] = (statistics.median(items) * 1e3, "ms")
        pct, value = tail(items)
        report["run_tail_ms"] = (value * 1e3 if value is not None else None, "ms", pct, len(items))
    report.update(out.report)

    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_ref": {"value": pass_ref, "unit": "ref"},
        "work_per_ref": {"value": passes[0].work / pass_ref, "unit": "1/ref"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "light_cost_ratio": {"value": out.light_cost, "unit": "ratio"},
    }
    if traced:
        layer = layer_metrics(spans[:check_start], len(passes))
        layer["transform.strip_s"] = self_times(spans, check_start)["transform.strip"]
        workload.trace_checks(layer, passes, out)
        # traced minus untraced pass, taken in probe units so the host's drift
        # between the two drops out, and given back in seconds
        loop_s = statistics.median(loop for _, loop in probe.samples)
        traced_cost = statistics.median(sum(p.costs) for p in passes)
        layer["trace.overhead_s"] = (traced_cost - sum(checked[0].costs)) * loop_s
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in layer.items()}

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "passes": len(passes),
        "work_unit": workload.work_unit,
        "environment": env,
        "input_size": size,
        "setup_runs_s": setup_times,
        "pass_runs_s": [p.seconds for p in passes],
        "report": {k: _entry(v) for k, v in report.items()},
        "fingerprint": out.fingerprint,
        "failures": out.failures,
        "correct": not any(not f["known_defect"] for f in out.failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_spans": spans,
        "_check_start": check_start,
    }


def _entry(value: tuple) -> dict:
    entry = {"value": value[0], "unit": value[1]}
    if len(value) > 2:
        entry["percentile"], entry["samples"] = value[2], value[3]
    return entry


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us_per_run") or name.endswith("us_per_step"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def write_outputs(result: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    spans, check_start = result.pop("_spans"), result.pop("_check_start")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    if spans:
        with gzip.open(OUT_DIR / f"{stem}.spans.json.gz", "wt") as fh:
            fields = ["name", "start", "end", "parent", "note"]
            json.dump({"fields": fields, "check_phase_starts_at": check_start, "spans": spans}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    write_outputs(result)
    summary = {k: v for k, v in result.items() if k not in ("metrics", "correct", "attempted", "failed")}
    print(json.dumps(summary, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
