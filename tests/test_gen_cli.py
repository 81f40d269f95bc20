import contextlib
import gc
import hashlib
import io
import json
import os
import random
import re
import stat
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.cli import main
from shadowlab.gen import GenConfig, generate_corpus, generate_inputs, generate_program
from shadowlab.mir import parse_program, print_program, validate_program
from shadowlab.shadowvm import ExecInput

from conftest import CALL_TREE, DEEP_CHAIN, MEMO_CFG, unwind_fixture


def write_fixture(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_corpus_regeneration_is_identical():
    cfg = GenConfig(seed=1, count=10, attack_density=0.5)
    first = [(n, print_program(p)) for n, p in generate_corpus(cfg)]
    second = [(n, print_program(p)) for n, p in generate_corpus(cfg)]
    assert first == second


def test_corpus_density_zero_has_no_attacks():
    for _, p in generate_corpus(GenConfig(seed=3, count=10, attack_density=0.0)):
        assert not p.adversarial
        assert not any(
            ins.opcode == "corrupt" for fn in p.functions.values() for b in fn.blocks.values() for ins in b.instrs
        )


def test_corpus_density_half_count_fixed_by_seed():
    corpus = generate_corpus(GenConfig(seed=5, count=20, attack_density=0.5))
    adversarial = sum(1 for _, p in corpus if p.adversarial)
    assert adversarial == 8  # frozen by seed 5
    assert 0 < adversarial < 20


def test_corpus_programs_validate():
    for _, p in generate_corpus(GenConfig(seed=11, count=25, attack_density=0.4)):
        assert validate_program(p) == []


def test_adversarial_mains_always_return():
    for _, p in generate_corpus(GenConfig(seed=13, count=15, attack_density=1.0)):
        main_fn = p.functions["main"]
        terminators = {main_fn.blocks[b].terminator.opcode for b in main_fn.exit_blocks}
        assert terminators == {"ret"}


def test_halt_only_in_entry_function():
    for _, p in generate_corpus(GenConfig(seed=17, count=20, attack_density=0.5)):
        for fn in p.functions.values():
            if fn.name == "main":
                continue
            assert not any(ins.opcode == "halt" for b in fn.blocks.values() for ins in b.instrs)


def test_safe_fraction_guarantee():
    from shadowlab.transform import analyze_program

    cfg = GenConfig(seed=19, count=10, safe_fraction=0.4)
    for _, p in generate_corpus(cfg):
        analysis = analyze_program(p)
        n = len(p.functions)
        want = min(n - 2, max(1, round(cfg.safe_fraction * n)))
        safe = sum(1 for name in p.functions if analysis.safety.ra_safe_fn(name))
        assert safe >= want


def test_generated_inputs_deterministic():
    assert generate_inputs(9, 4) == generate_inputs(9, 4)


def _randint_inputs(seed: int, count: int) -> list[ExecInput]:
    """generate_inputs drawn with randint: the oracle for its inlined draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 20)
        decisions = tuple(rng.random() < 0.5 for _ in range(n))
        regs = tuple(rng.randint(0, 63) for _ in range(16))
        out.append(ExecInput(decisions, regs))
    return out


def test_generated_inputs_draw_randint_numbers():
    for seed in range(500):
        assert generate_inputs(seed, 26) == _randint_inputs(seed, 26), seed
    for seed in (0, 1, 20260810, -7, 2**70):
        for count in (0, 1):
            assert generate_inputs(seed, count) == _randint_inputs(seed, count), (seed, count)


def test_corpus_respects_size_bounds():
    cfg = GenConfig(seed=23, count=50, attack_density=0.5)
    for _, p in generate_corpus(cfg):
        assert cfg.min_functions <= len(p.functions) <= cfg.max_functions
        for fn in p.functions.values():
            assert len(fn.blocks) <= 6
            assert all(len(b.instrs) <= 18 for b in fn.blocks.values())


def test_config_rejects_bad_bounds():
    with pytest.raises(ValueError):
        GenConfig(count=0)


def test_cli_analyze_text(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    assert main(["analyze", path]) == 0
    out = capsys.readouterr().out
    assert "functions safe: b, d, e" in out
    assert "functions unsafe: a, c, f" in out


def test_cli_analyze_json_stable(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    assert main(["analyze", path, "--json"]) == 0
    out = capsys.readouterr().out
    parsed = json.loads(out)
    assert json.dumps(parsed, sort_keys=True, indent=2) == out.strip()
    assert parsed["safety"]["functions"]["c"] == "unsafe"


def test_cli_analyze_memo_cfg(capsys, tmp_path):
    path = write_fixture(tmp_path, "b.mir", MEMO_CFG)
    assert main(["analyze", path, "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["safety"]["blocks"]["memo.b4"] == "unsafe"
    assert parsed["safe_paths"]["memo"] == 2
    assert parsed["instrumentation"]["spe_pct"] == 100.0


def test_cli_analyze_rejects_invalid(capsys, tmp_path):
    path = write_fixture(tmp_path, "bad.mir", "fn f {\nb0:\n  corrupt 0, 1\n  ret\n}\n")
    with pytest.raises(SystemExit):
        main(["analyze", path])


def _exit(capsys, argv):
    """The exit status and stderr of `argv`, as the interpreter gives them for
    a `SystemExit`: a message goes to stderr with status 1."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    code, err = exc.value.code, capsys.readouterr().err
    return (1, err + f"{code}\n") if isinstance(code, str) else (code, err)


@pytest.mark.parametrize(
    "text, msg",
    [("", "no functions in program"), ("#entry g\nfn f {\nb0:\n  ret\n}\n", "entry function 'g' does not exist")],
)
def test_cli_error_without_a_line_names_the_file_only(capsys, tmp_path, text, msg):
    # an error no line can be blamed for prints "path: msg", not "path:0: msg"
    path = write_fixture(tmp_path, "p.mir", text)
    assert _exit(capsys, ["analyze", path]) == (1, f"{path}: {msg}\n")


# each dangling reference parses, and validation refuses it in every command
# that reads a file, at its line
@pytest.mark.parametrize(
    "text, diagnostics",
    [
        ("fn main {\nb0:\n  movi r1, 0\n  br b9\n}\n", ["{path}:4: main.b0: branch to unknown block b9"]),
        ("fn main {\nb0:\n  call ghost\n  ret\n}\n", ["{path}:3: main.b0: call to unknown function 'ghost'"]),
        ("#entry g\nfn main {\nb0:\n  ret\n}\n", ["{path}: entry function 'g' does not exist"]),
        (
            "fn main {\nb0:\n  call ghost\n  br b9\n}\n",
            ["{path}:3: main.b0: call to unknown function 'ghost'", "{path}:4: main.b0: branch to unknown block b9"],
        ),
        (
            "#entry g\nfn main {\nb0:\n  call ghost\n  br b9\n}\n",
            [
                "{path}: entry function 'g' does not exist",
                "{path}:4: main.b0: call to unknown function 'ghost'",
                "{path}:5: main.b0: branch to unknown block b9",
            ],
        ),
    ],
    ids=["block", "callee", "entry", "both", "entry-and-both"],
)
@pytest.mark.parametrize("command", ["analyze", "instrument", "run", "stats"])
def test_cli_refuses_dangling_references(capsys, tmp_path, command, text, diagnostics):
    programs = tmp_path / "programs"
    programs.mkdir()
    path = write_fixture(programs, "dang.mir", text)
    out = tmp_path / "out.mir"
    argv = {
        "analyze": ["analyze", path],
        "instrument": ["instrument", path, "--mode", "LIGHT", "-o", str(out)],
        "run": ["run", path],
        "stats": ["stats", str(programs)],
    }[command]
    assert _exit(capsys, argv) == (1, "".join(d.format(path=path) + "\n" for d in diagnostics))
    assert not out.exists()


def test_cli_instrument_modes(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    out = tmp_path / "a_sfe.mir"
    assert main(["instrument", path, "--mode", "SFE", "-o", str(out)]) == 0
    text = out.read_text()
    instrumented = parse_program(text)
    for name in ("a", "c", "f"):
        body = {i.opcode for b in instrumented.functions[name].blocks.values() for i in b.instrs}
        assert "spush" in body and "spop" in body
    for name in ("b", "d", "e"):
        body = {i.opcode for b in instrumented.functions[name].blocks.values() for i in b.instrs}
        assert not body & {"spush", "spop"}
    assert (tmp_path / "a_sfe.mir.plan.json").exists()


def test_cli_instrument_full_everywhere(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    out = tmp_path / "a_full.mir"
    assert main(["instrument", path, "--mode", "FULL", "-o", str(out)]) == 0
    instrumented = parse_program(out.read_text())
    for fn in instrumented.functions.values():
        assert any(i.opcode == "spush" for b in fn.blocks.values() for i in b.instrs)


def test_cli_instrument_light_keeps_transition_push(capsys, tmp_path):
    path = write_fixture(tmp_path, "b.mir", MEMO_CFG)
    out = tmp_path / "b_light.mir"
    assert main(["instrument", path, "--mode", "LIGHT", "-o", str(out)]) == 0
    instrumented = parse_program(out.read_text())
    memo_fn = instrumented.functions["memo"]
    transition = [b for b in memo_fn.blocks.values() if b.instrs[0].opcode == "spush" and len(b.instrs) == 2]
    assert len(transition) == 1


def test_cli_instrument_deterministic(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    out1, out2 = tmp_path / "o1.mir", tmp_path / "o2.mir"
    main(["instrument", path, "--mode", "LIGHT", "-o", str(out1)])
    main(["instrument", path, "--mode", "LIGHT", "-o", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_run_instrumented_file(capsys, tmp_path):
    path = write_fixture(tmp_path, "b.mir", MEMO_CFG)
    out = tmp_path / "b_po.mir"
    main(["instrument", path, "--mode", "PO", "-o", str(out)])
    capsys.readouterr()
    assert main(["run", str(out), "--input", "1,1,0", "--json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["outcome"] == "completed"
    # the sidecar plan prices the transition push at 10 instructions
    assert blob["trace"]["shadow_instr"] == 21


# `instrument`, `analyze` and `stats` take only uninstrumented programs: an
# instrumented one fails validation like any other invalid program, so FULL
# output is never instrumented a second time
@pytest.mark.parametrize("command", ["instrument", "analyze", "stats"])
def test_cli_rejects_instrumented_input(capsys, tmp_path, command):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    full = tmp_path / "full" / "a.mir"
    assert main(["instrument", path, "--mode", "FULL", "-o", str(full)]) == 0
    capsys.readouterr()
    files = sorted(tmp_path.rglob("*"))
    argv = {
        "instrument": ["instrument", str(full), "--mode", "FULL", "-o", str(tmp_path / "again.mir")],
        "analyze": ["analyze", str(full), "--json"],
        "stats": ["stats", str(full.parent)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{full}:5: a.b0: shadow instruction 'spush' in plain program" in err.splitlines()
    assert sorted(tmp_path.rglob("*")) == files


def test_cli_run_trace_lines(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    assert main(["run", path, "--input", "1", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "outcome: completed" in out
    assert "call" in out


def test_cli_run_registers(capsys, tmp_path):
    path = write_fixture(
        tmp_path, "r.mir", "fn main {\nb0:\n  movr r0, r5\n  halt\n}\n"
    )
    assert main(["run", path, "--reg", "r5=77"]) == 0
    assert "r0=77" in capsys.readouterr().out
    # a negative value runs as the word it masks to
    assert main(["run", path, "--reg", "r5=-5"]) == 0
    assert capsys.readouterr().out == f"outcome: completed r0={2**64 - 5}\ninstructions: 2  shadow: 0  memory accesses: 0\n"


def test_cli_gen_and_stats(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    assert main(["gen", "--seed", "3", "--count", "4", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    files = sorted(f.name for f in out_dir.glob("*.mir"))
    assert files == [f"prog_{i:04d}.mir" for i in range(4)]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 3 and manifest["count"] == 4
    assert main(["stats", str(out_dir), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    for row in rows:
        assert 0 <= row["writes"]["unsafe_pct"] <= 100


def test_cli_gen_seed_env_override(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "a", tmp_path / "b"
    monkeypatch.setenv("SHADOWLAB_SEED", "99")
    main(["gen", "--seed", "1", "--count", "2", "--out", str(a)])
    monkeypatch.delenv("SHADOWLAB_SEED")
    main(["gen", "--seed", "99", "--count", "2", "--out", str(b)])
    assert (a / "prog_0000.mir").read_text() == (b / "prog_0000.mir").read_text()


@pytest.mark.parametrize("command", [["gen", "--count", "2"], ["verify", "--count", "2", "--benign", "2"]])
def test_cli_rejects_a_non_integer_seed_env(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("SHADOWLAB_SEED", "abc")
    out = tmp_path / "out"
    _assert_usage_error(capsys, command + ["--out", str(out)], "SHADOWLAB_SEED 'abc'")
    assert not out.exists()


def test_cli_verify_small(capsys):
    rc = main(["verify", "--seed", "4", "--count", "6", "--benign", "5", "--inputs", "3", "--json"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert rc == 0
    assert report["undetected"] == 0
    assert report["control_undetected"] > 0
    assert all(report["checks"].values())


def test_cli_verify_prints_the_checks_in_order(capsys):
    # the text form names each check in the order the report builds them
    import shadowlab.cli as cli

    order = (
        "validation_soundness",
        "detection_rate",
        "control_detects_missing_instrumentation",
        "transparency",
        "shadow_op_monotonicity",
        "aggregate_overhead_ladder",
        "height_soundness",
        "liveness_soundness",
        "exactly_one_check_and_balance",
        "plan_mode_coverage",
        "determinism",
        "no_other_violations",
    )
    assert main(["verify", "--seed", "4", "--count", "6", "--benign", "5", "--inputs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("PASS: ")] == [f"PASS: {check}" for check in order]
    report, _ = cli.verify_run(cli.VerifyConfig(seed=4, benign_count=5, adversarial_count=6, inputs_per_program=3))
    assert tuple(report["checks"]) == order


def test_cli_all_global_writes_program(capsys, tmp_path):
    text = "fn main {\nb0:\n  store.global g\n  store.global h\n  halt\n}\n"
    path = write_fixture(tmp_path, "g.mir", text)
    main(["analyze", path, "--json"])
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["writes"]["global_pct"] == 100.0


def _assert_usage_error(capsys, argv, *needles):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_cli_run_rejects_out_of_range_register(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    _assert_usage_error(capsys, ["run", path, "--reg", "r16=1"], "r16=1")


def test_cli_run_rejects_non_integer_register_value(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    _assert_usage_error(capsys, ["run", path, "--reg", "r1=abc"], "r1=abc")


def test_cli_run_rejects_non_integer_decision(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    _assert_usage_error(capsys, ["run", path, "--input", "1,x"], "1,x")


def test_cli_run_rejects_unreadable_sidecar(capsys, tmp_path):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    (tmp_path / "a.mir.plan.json").mkdir()  # exists, but cannot be read as a file
    _assert_usage_error(capsys, ["run", path], "plan sidecar")


@pytest.mark.parametrize(
    "sidecar",
    [
        "{not json",
        "[]",
        '{"mode": "PO"}',
        '{"mode": "PO", "functions": {"a": {"mode": "full", "shadow_ops": [{"kind": "push"}]}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "full", "shadow_ops": [], "op_costs": {"0:0": [9]}}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "full", "shadow_ops": [], "op_costs": {"x": [9, 6]}}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "lowered", "shadow_ops": [], "clone_map": {"0": [1]}}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "lowered", "shadow_ops": [], "clone_map": {"0": {"a": 1}}}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "lowered", "shadow_ops": [], "transition_blocks": {"2000": [1]}}}}',
        '{"mode": "PO", "functions": {"a": {"mode": "lowered", "shadow_ops": [], "transition_blocks": {"2000": {"a": 1}}}}}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-past-the-recursion-limit"),
    ],
)
def test_cli_run_rejects_malformed_sidecar(capsys, tmp_path, sidecar):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    (tmp_path / "a.mir.plan.json").write_text(sidecar)
    _assert_usage_error(capsys, ["run", path], "malformed plan sidecar")


def test_cli_run_refuses_a_foreign_or_unstamped_sidecar(capsys, tmp_path):
    # a LIGHT sidecar of prog_0001 beside a PO prog_0000 describes another
    # program; a sidecar without the stamp describes no program in particular
    corpus = tmp_path / "corpus"
    assert main(["gen", "--seed", "3", "--count", "2", "--out", str(corpus)]) == 0
    for stem, mode in (("prog_0000", "PO"), ("prog_0001", "LIGHT")):
        assert main(["instrument", str(corpus / f"{stem}.mir"), "--mode", mode, "-o", str(tmp_path / f"{stem}.mir")]) == 0
    own, foreign = tmp_path / "prog_0000.mir.plan.json", tmp_path / "prog_0001.mir.plan.json"
    path = str(tmp_path / "prog_0000.mir")
    assert main(["run", path]) == 0
    stamped = json.loads(own.read_text())
    assert stamped["program_sha256"] == hashlib.sha256((tmp_path / "prog_0000.mir").read_bytes()).hexdigest()
    own.write_text(foreign.read_text())
    _assert_usage_error(capsys, ["run", path], f"plan sidecar {own} was written for another program")
    del stamped["program_sha256"]
    own.write_text(json.dumps(stamped))
    _assert_usage_error(capsys, ["run", path], f"plan sidecar {own} carries no program_sha256")


def test_cli_run_refuses_shadow_instructions_without_a_sidecar(capsys, tmp_path):
    src, out = write_fixture(tmp_path, "memo.mir", MEMO_CFG), tmp_path / "memo.PO.mir"
    assert main(["instrument", src, "--mode", "PO", "-o", str(out)]) == 0
    sidecar = tmp_path / "memo.PO.mir.plan.json"
    sidecar.unlink()
    _assert_usage_error(capsys, ["run", str(out)], f"{out} holds shadow instructions but no plan sidecar {sidecar}")


def _json_paths(value, path=()):
    """The path of every key and list item in `value`, outermost first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _json_paths(item, path + (key,))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**64) | st.sampled_from(["", "x", "0", "lowered", "push"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(["0", "4", "x"]), inner, max_size=2),
    max_leaves=4,
)


@pytest.fixture(scope="module")
def memo_po_sidecar(tmp_path_factory):
    """A real `instrument --mode PO` output of MEMO_CFG, and its sidecar's JSON."""
    root = tmp_path_factory.mktemp("sidecar")
    src, out = write_fixture(root, "memo.mir", MEMO_CFG), root / "memo.PO.mir"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["instrument", src, "--mode", "PO", "-o", str(out)]) == 0
    return out, json.loads((root / "memo.PO.mir.plan.json").read_text())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cli_run_survives_mutated_sidecars(memo_po_sidecar, data):
    # each mutation drops a key or list item, or replaces a value: `run`
    # either runs or gives one `error:` line, never a traceback
    out, plan = memo_po_sidecar
    plan = json.loads(json.dumps(plan))
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_json_paths(plan))
        if not paths:
            break
        *parent, key = data.draw(st.sampled_from(paths))
        node = plan
        for k in parent:
            node = node[k]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(_JSON_VALUES)
    (out.parent / f"{out.name}.plan.json").write_text(json.dumps(plan))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(["run", str(out), "--input", "1,1,0"])
        except SystemExit as exc:
            code = exc.code
    err = stderr.getvalue()
    assert code == 0 and err == "" or code == 2 and err.startswith("error: ") and err.count("\n") == 1, (code, err)


_TOKEN = re.compile(r"[^\s,{}:]+")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cli_survives_mutated_programs(tmp_path_factory, data):
    # each mutation drops a line, duplicates one, or puts another token of the
    # text in place of one: each command exits 0, 1 or 2, never with a traceback
    seed = data.draw(st.integers(0, 10**6))
    lines = print_program(generate_program(seed, GenConfig(), adversarial=seed % 3 == 0)).splitlines()
    tokens = sorted({t for line in lines for t in _TOKEN.findall(line)})
    for _ in range(data.draw(st.integers(1, 4))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", "duplicate", "replace"]))
        spans = [m.span() for m in _TOKEN.finditer(lines[i])]
        if kind == "drop":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif spans:
            a, b = data.draw(st.sampled_from(spans))
            lines[i] = lines[i][:a] + data.draw(st.sampled_from(tokens)) + lines[i][b:]
    root = tmp_path_factory.mktemp("mutated")
    path = write_fixture(root, "m.mir", "\n".join(lines) + "\n")
    for argv in (["analyze", path], ["instrument", path, "--mode", "LIGHT", "-o", str(root / "o.mir")], ["run", path]):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = 1 if isinstance(exc.code, str) else exc.code
        assert code in (0, 1, 2), (argv[0], code)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen", "--count", "0"], "--count"),
        (["gen", "--count", "-3"], "--count"),
        (["gen", "--count", "2", "--attack-density", "7"], "--attack-density"),
        (["gen", "--count", "2", "--attack-density", "-0.5"], "--attack-density"),
        (["gen", "--count", "2", "--attack-density", "nan"], "--attack-density"),
        (["verify", "--count", "0"], "--count"),
        (["verify", "--benign", "0"], "--benign"),
        (["verify", "--budget", "0"], "--budget"),
        (["verify", "--count", "2", "--benign", "2", "--inputs", "0"], "--inputs"),
    ],
)
def test_cli_gen_and_verify_reject_out_of_range_numbers(capsys, tmp_path, argv, flag):
    out = tmp_path / "out"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    _assert_usage_error(capsys, argv, flag)
    assert not out.exists()


def test_verify_counterexamples_carry_recorded_traces(monkeypatch):
    # with the unsound control as the only detection mode the campaign misses
    # attacks, and the report runs its first misses again to record their logs
    import shadowlab.cli as cli
    from shadowlab.shadowvm import MAX_COUNTEREXAMPLES

    monkeypatch.setattr(cli, "LADDER", ("ELIDE-ALL",))
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=3, adversarial_count=6, inputs_per_program=4))
    assert not ok and report["undetected"] > MAX_COUNTEREXAMPLES == len(report["counterexamples"])
    for c in report["counterexamples"]:
        assert c["mode"] == "ELIDE-ALL"
        events = c["trace"]["events"]
        assert events[0][0] == "enter" and any(e[0] == "corrupt" for e in events)
        assert events[-1][0] == "ret" and events[-1][3] is False     # ("ret", act, fn, ok, shadow_top)


def test_verify_prepares_each_adversarial_program_as_the_campaign_reaches_it(monkeypatch):
    # when a program's FULL target is compiled, the detection targets of the
    # programs already run are freed but two: the FULL target the
    # determinism check keeps, and the target of the last case run, which the
    # campaign's loop still holds.  A compiled recursive program is a
    # reference cycle, so count after a collection.  The report is the one a
    # prebuilt list gives
    import shadowlab.cli as cli
    from shadowlab.transform import InstrumentedProgram

    cfg = cli.VerifyConfig(seed=3, benign_count=3, adversarial_count=10, inputs_per_program=6)
    real_compile, real_campaign = cli.compile, cli.run_campaign
    targets, alive = [], []

    def compile_tracked(target, checks=None):
        detection = isinstance(target, InstrumentedProgram) and target.program.adversarial and target.mode in cli.LADDER
        if detection and target.mode == "FULL":
            gc.collect()
            alive.append(sum(ref() is not None for ref in targets))
        compiled = real_compile(target, checks)
        if detection:
            targets.append(weakref.ref(compiled))
        return compiled

    monkeypatch.setattr(cli, "compile", compile_tracked)
    streamed, ok = cli.verify_run(cfg)
    # one FULL compile per program, then three for the determinism check
    assert ok and len(alive) == cfg.adversarial_count + 3 and len(targets) > 4 * (cfg.adversarial_count - 1)
    assert max(alive) <= 2, alive

    monkeypatch.setattr(cli, "compile", real_compile)
    monkeypatch.setattr(cli, "run_campaign", lambda cases: real_campaign(list(cases)))
    assert cli.verify_run(cfg) == (streamed, ok)


def _skewed(checks, program, skew):
    """`checks` for `program` with wrong facts: heights off by 8, or every
    register dead."""
    from shadowlab.analysis import AnalysisChecks, Heights
    from shadowlab.mir import NUM_REGS

    if skew == "height":
        heights = {
            name: Heights(h.entries, {at: d - 8 if isinstance(d, int) else d for at, d in h.stores.items()})
            for name, h in checks.heights.items()
        }
        return AnalysisChecks(heights, checks.liveness)
    every = (1 << NUM_REGS) - 1
    liveness = {
        name: {bid: (every,) * len(block.instrs) for bid, block in fn.blocks.items()}
        for name, fn in program.functions.items()
    }
    return AnalysisChecks(checks.heights, liveness)


def _skew_checks(monkeypatch, skew):
    """Make verify build wrong analysis facts for the adversarial targets
    only."""
    import shadowlab.cli as cli

    real = cli.build_checks

    def skewed(ip, source, analysis):
        checks = real(ip, source, analysis)
        return _skewed(checks, ip.program, skew) if source.adversarial else checks

    monkeypatch.setattr(cli, "build_checks", skewed)


def _skew_benign_liveness(monkeypatch):
    """Make verify check each benign program against dead masks that call
    every register dead everywhere.  Nothing else reads the masks once the
    program is planned."""
    import dataclasses

    import shadowlab.cli as cli

    real = cli._prepare

    def skewed(name, program, cfg, modes):
        prepared, found = real(name, program, cfg, modes)
        if prepared is not None and not program.adversarial:
            liveness = _skewed(prepared.analysis, program, "liveness").liveness
            prepared.analysis = dataclasses.replace(prepared.analysis, liveness=liveness)
        return prepared, found

    monkeypatch.setattr(cli, "_prepare", skewed)


@pytest.mark.parametrize("skew", ["height"])
def test_verify_counts_detection_campaign_violations(monkeypatch, skew):
    # the detection campaign's runs report the wrong facts, and the soundness
    # checks must fail.  Dead masks reach no run: verify checks them
    # statically, on the benign programs
    import shadowlab.cli as cli

    _skew_checks(monkeypatch, skew)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    assert any(f"{skew} violation" in v for v in report["violations"])
    assert not ok
    checks = report["checks"]
    assert not checks[f"{skew}_soundness"] and checks["liveness_soundness"]


@pytest.mark.parametrize("skew", ["height"])
def test_verify_counts_control_campaign_violations(monkeypatch, skew):
    # only the ELIDE-ALL targets, which run in the control campaign, are
    # compiled with wrong facts, and the soundness checks must still fail
    import shadowlab.cli as cli
    from shadowlab.transform import InstrumentedProgram

    real, controls = cli.compile, []

    def compile_skewed(target, checks=None):
        if isinstance(target, InstrumentedProgram) and target.mode == "ELIDE-ALL":
            controls.append(target)
            checks = _skewed(checks, target.program, skew)
        return real(target, checks)

    monkeypatch.setattr(cli, "compile", compile_skewed)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    skewed = [v for v in report["violations"] if f"{skew} violation" in v]
    assert controls and skewed and all("/ELIDE-ALL: " in v for v in skewed)
    assert not ok
    checks = report["checks"]
    assert not checks[f"{skew}_soundness"] and checks["liveness_soundness"]


@pytest.mark.parametrize("skew", ["height", "liveness"])
def test_verify_names_the_benign_base_runs_with_violations(monkeypatch, skew):
    # only each benign program's own analysis is wrong: every violation it
    # counts is named with BASE, a height violation with the run that found
    # it, and a wrong dead mask, found statically once, with its program
    import shadowlab.cli as cli
    from shadowlab.mir import Program

    real, bases = cli.compile, []

    def compile_skewed(target, checks=None):
        if isinstance(target, Program):
            bases.append(target)
            checks = _skewed(checks, target, skew)
        return real(target, checks)

    if skew == "height":
        monkeypatch.setattr(cli, "compile", compile_skewed)
    else:
        _skew_benign_liveness(monkeypatch)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    skewed = [v for v in report["violations"] if f"{skew} violation" in v]
    where = r"prog_\d+\[\d\]" if skew == "height" else r"prog_000[01]"
    assert skewed and all(re.match(rf"{where}/BASE: {skew} violation \(", v) for v in skewed)
    assert bases if skew == "height" else len(set(skewed)) == len(skewed)
    assert not ok
    checks = report["checks"]
    assert not checks[f"{skew}_soundness"] and not checks["no_other_violations"]
    other = "liveness" if skew == "height" else "height"
    assert checks[f"{other}_soundness"]


def test_verify_names_the_benign_mode_runs_with_activation_problems(monkeypatch):
    # each benign PO target is checked and compiled as memo's PO rewrite with
    # an extra push in its tainted walk: the static findings are named by the
    # program and mode, the runs' by the run that found them, program, input
    # and mode
    import shadowlab.cli as cli
    from shadowlab.transform import InstrumentedProgram

    from test_shadowvm import MEMO_EDITS, _edited_memo_po

    edits, _, walks, runs = MEMO_EDITS[0]
    target, memo = _edited_memo_po(edits)
    real_compile, real_check = cli.compile, cli.check_rewrites

    def swapped(ip):
        return isinstance(ip, InstrumentedProgram) and ip.mode == "PO" and not ip.program.adversarial

    def compile_swapped(ip, checks=None):
        return memo if swapped(ip) else real_compile(ip, checks)

    def check_swapped(ip, source, analysis):
        return real_check(target) if swapped(ip) else real_check(ip, source, analysis)

    monkeypatch.setattr(cli, "compile", compile_swapped)
    monkeypatch.setattr(cli, "check_rewrites", check_swapped)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    found = [v for v in report["violations"] if v.startswith("activation: ")]
    static = [
        "shadow instructions and op_costs differ at [(2000, 1)]",
        "shadow instructions ['spush', 'spush', 'spop', 'spop'] where shadow_ops has ['spush', 'spop', 'spop']",
        *walks,
    ]
    assert found[:4] == [f"activation: prog_0000/PO fn memo: {m}" for m in static] + [
        f"activation: prog_0000[0]/PO act 1 fn memo: {m}" for m in runs
    ]
    assert all(re.match(r"activation: prog_\d{4}(\[\d\]/PO act \d+|/PO) fn memo: ", v) for v in found)
    assert not ok
    checks = report["checks"]
    assert not checks["exactly_one_check_and_balance"] and not checks["no_other_violations"]
    assert checks["height_soundness"] and checks["liveness_soundness"]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{program}"],
        ["instrument", "{program}", "--mode", "LIGHT", "-o", "{out}"],
        ["run", "{program}"],
        ["stats", "{dir}"],
    ],
    ids=["analyze", "instrument", "run", "stats"],
)
def test_cli_non_utf8_input_is_one_error_line(tmp_path, argv):
    # the bytes of a UTF-16 byte-order mark: one error line and exit 1, as for
    # an unreadable file, with no traceback
    programs = tmp_path / "programs"
    programs.mkdir()
    bad = programs / "bad.mir"
    bad.write_bytes(b"\xff\xfe")
    out = tmp_path / "out.mir"
    with pytest.raises(SystemExit) as exc:
        main([arg.format(program=bad, out=out, dir=programs) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message     # printed to stderr, exit status 1
    assert message.startswith(f"error: cannot read {bad} as text: "), message
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--count", "1", "--out", "{blocker}/sub"],
        ["instrument", "{program}", "--mode", "LIGHT", "-o", "{blocker}/x.mir"],
        ["verify", "--count", "1", "--benign", "1", "--inputs", "1", "--out", "{blocker}/r.json"],
    ],
    ids=["gen", "instrument", "verify"],
)
def test_cli_unwritable_output_is_one_error_line(capsys, tmp_path, argv):
    # the output path runs through a regular file: one error line and exit 1,
    # as for an unreadable input, with no traceback and no temporary file left
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    program = write_fixture(tmp_path, "a.mir", CALL_TREE)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(blocker=blocker, program=program) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message     # printed to stderr, exit status 1
    assert re.fullmatch(rf"error: cannot write {re.escape(str(blocker))}/\S+: (Not a directory|File exists)", message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mir", "blocker"]


@pytest.mark.parametrize("umask", [0o002, 0o022, 0o077], ids=oct)
def test_cli_written_files_get_the_mode_the_umask_gives(capsys, tmp_path, umask):
    # every file gen, instrument and verify --out write goes through a
    # temporary file, yet gets the mode a plain open gives a new file: 0o666
    # less the umask, not the temporary file's 0o600
    program = write_fixture(tmp_path, "a.mir", CALL_TREE)
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["gen", "--count", "1", "--out", str(out / "corpus")]) == 0
        assert main(["instrument", str(program), "--mode", "LIGHT", "-o", str(out / "a.light.mir")]) == 0
        main(["verify", "--count", "1", "--benign", "1", "--inputs", "1", "--out", str(out / "report.json")])
    finally:
        os.umask(old)
    capsys.readouterr()
    modes = {str(p.relative_to(out)): stat.S_IMODE(p.stat().st_mode) for p in out.rglob("*") if p.is_file()}
    assert sorted(modes) == [
        "a.light.mir", "a.light.mir.plan.json", "corpus/manifest.json", "corpus/prog_0000.mir", "report.json"
    ]
    assert set(modes.values()) == {0o666 & ~umask}, modes


def test_verify_reports_an_unmappable_rewrite(monkeypatch):
    # an apply_plan whose FULL rewrites end in halt where the input has ret:
    # checks cannot be mapped onto them, and verify reports each such target
    # as a violation, without a traceback
    import shadowlab.cli as cli
    from shadowlab.mir import Block, Function, Instr, Program
    from shadowlab.transform import InstrumentedProgram

    real = cli.apply_plan

    def tampered(program, plan, mode):
        ip = real(program, plan, mode)
        if mode != "FULL":
            return ip
        functions = dict(ip.program.functions)
        for name, fn in functions.items():
            if fn is not program.functions[name]:
                functions[name] = Function(name, {
                    bid: Block(bid, b.instrs[:-1] + (Instr("halt"),)) if b.instrs[-1].opcode == "ret" else b
                    for bid, b in fn.blocks.items()
                })
        return InstrumentedProgram(Program(functions, ip.program.entry, ip.program.adversarial), mode, ip.functions)

    monkeypatch.setattr(cli, "apply_plan", tampered)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=3, inputs_per_program=2))
    unmapped = [v for v in report["violations"] if re.search(r"/FULL: \S+\.b\d+\[\d+\]: halt where input b\d+\[\d+\] has ret$", v)]
    assert len(unmapped) == 5 and not ok    # every program's FULL target
    assert report["checks"]["no_other_violations"] is False


@pytest.mark.parametrize("tampered", ["apply_plan", "validate_program"])
def test_verify_reports_a_spot_case_prepared_again_without_its_target(monkeypatch, tampered):
    # from the determinism phase on, FULL rewrites end in halt where the input
    # has ret, so their checks cannot be mapped, or every input program fails
    # validation: the second preparation of a spot case then gives no target
    # for its mode, and verify reports that as nondeterminism, not a traceback
    import shadowlab.cli as cli
    from shadowlab.mir import Block, Diagnostic, Function, Instr, Program
    from shadowlab.transform import InstrumentedProgram

    real_apply, real_validate, real_phase = cli.apply_plan, cli.validate_program, cli._determinism_phase

    def apply_plan(program, plan, mode):
        ip = real_apply(program, plan, mode)
        if mode != "FULL":
            return ip
        functions = {
            name: fn if fn is program.functions[name] else Function(name, {
                bid: Block(bid, b.instrs[:-1] + (Instr("halt"),)) if b.instrs[-1].opcode == "ret" else b
                for bid, b in fn.blocks.items()
            })
            for name, fn in ip.program.functions.items()
        }
        return InstrumentedProgram(Program(functions, ip.program.entry, ip.program.adversarial), mode, ip.functions)

    def validate_program(program, allow_shadow=False, checked=None):
        return real_validate(program, allow_shadow, checked) if allow_shadow else [Diagnostic("tampered")]

    def phase(*args):
        monkeypatch.setattr(cli, tampered, {"apply_plan": apply_plan, "validate_program": validate_program}[tampered])
        return real_phase(*args)

    monkeypatch.setattr(cli, "_determinism_phase", phase)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=2, inputs_per_program=2))
    unprepared = [v for v in report["violations"] if v.endswith(": nondeterministic preparation: no target the second time")]
    assert not ok and report["checks"]["determinism"] is False
    assert len(unprepared) == (2 if tampered == "apply_plan" else 3), report["violations"]
    assert report["violations"][-len(unprepared) * 2:][1::2] == unprepared   # each after the message saying why


@pytest.mark.parametrize("when", ["every preparation", "after detection"])
def test_verify_compares_the_second_preparation_of_a_spot_case(monkeypatch, when):
    # every rewrite check finds the same planted problem, or only the checks
    # the determinism phase makes once the detection campaign is over do: the
    # first fails exactly_one_check_and_balance alone, as both preparations
    # of each spot case agree; the second fails determinism alone, as the
    # second preparation's findings differ from the first's and are compared,
    # not counted
    import shadowlab.cli as cli

    real, campaigns = cli.run_campaign, []

    def campaign(cases):
        campaigns.append(real(cases))
        return campaigns[-1]

    def check_rewrites(ip, program, analysis):
        return [("main", "planted")] if when == "every preparation" or campaigns else []

    monkeypatch.setattr(cli, "run_campaign", campaign)
    monkeypatch.setattr(cli, "check_rewrites", check_rewrites)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=2, benign_count=3, adversarial_count=4, inputs_per_program=3))
    failed = sorted(name for name, passed in report["checks"].items() if not passed)
    if when == "every preparation":
        assert failed == ["exactly_one_check_and_balance", "no_other_violations"]
        assert all(re.fullmatch(r"activation: prog_\d{4}/[A-Z-]+ fn main: planted", v) for v in report["violations"])
    else:
        assert failed == ["determinism", "no_other_violations"]
        spot = min(3, report["adversarial_executions"])
        assert len(report["violations"]) == spot and all(
            re.fullmatch(r"prog_\d{4}/[A-Z]+: nondeterministic preparation: "
                         r"\['activation: prog_\d{4}/[A-Z]+ fn main: planted'\] the second time, \[\] the first", v)
            for v in report["violations"]
        ), report["violations"]
    assert not ok


def test_verify_compiles_each_target_once(monkeypatch):
    # the base and five modes per benign program, four detection modes and the
    # control per adversarial one, and one fresh compile per determinism pair
    import shadowlab.cli as cli
    import shadowlab.shadowvm as vm

    real, compiled = vm.compile, []

    def counted(target, checks=None):
        compiled.append(target)
        return real(target, checks)

    monkeypatch.setattr(cli, "compile", counted)
    monkeypatch.setattr(vm, "compile", counted)
    cfg = cli.VerifyConfig(seed=2, benign_count=3, adversarial_count=4, inputs_per_program=3)
    report, ok = cli.verify_run(cfg)
    assert ok and not report["violations"]    # every program and mode is valid
    determinism = min(3, report["adversarial_executions"])
    assert len(compiled) == 6 * cfg.benign_count + 5 * cfg.adversarial_count + determinism


def test_verify_validates_each_rewrite_once(monkeypatch):
    # a mode's output is validated except for the functions that already
    # passed, the input's and earlier modes', so a rewrite that modes share
    # is walked once
    import shadowlab.cli as cli

    real, inputs, walked = cli.validate_program, [], []

    def counted(program, allow_shadow=False, checked=None):
        fns = [fn for fn in program.functions.values() if id(fn) not in (checked or {})]
        (walked if allow_shadow else inputs).extend(fns)
        return real(program, allow_shadow, checked)

    monkeypatch.setattr(cli, "validate_program", counted)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=2, benign_count=3, adversarial_count=4, inputs_per_program=3))
    assert ok and walked
    assert len({id(fn) for fn in walked}) == len(walked)
    assert not {id(fn) for fn in walked} & {id(fn) for fn in inputs}


# sha256 of the JSON of `violations` in the skewed-heights report below, as
# recorded when the detection campaign kept all 624 of its messages
SKEWED_VIOLATIONS_SHA256 = "f9f87e749620d51cad1869603d33601627cfab8c1af644c6bedfdba583edab0d"


def test_verify_keeps_first_violations(monkeypatch):
    # a campaign keeps only the messages the report shows, and counts the rest
    import shadowlab.cli as cli
    from shadowlab.shadowvm import MAX_VIOLATIONS

    _skew_checks(monkeypatch, "height")
    real, reports = cli.run_campaign, []

    def campaign(cases):
        reports.append(real(cases))
        return reports[-1]

    monkeypatch.setattr(cli, "run_campaign", campaign)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=10, inputs_per_program=6))
    assert not ok and len(report["violations"]) == MAX_VIOLATIONS
    assert hashlib.sha256(json.dumps(report["violations"]).encode()).hexdigest() == SKEWED_VIOLATIONS_SHA256
    assert report["checks"] == {
        "aggregate_overhead_ladder": False,
        "control_detects_missing_instrumentation": True,
        "detection_rate": True,
        "determinism": True,
        "exactly_one_check_and_balance": True,
        "height_soundness": False,
        "liveness_soundness": True,
        "no_other_violations": False,
        "plan_mode_coverage": True,
        "shadow_op_monotonicity": True,
        "transparency": True,
        "validation_soundness": True,
    }
    detection, _ = reports
    assert sum(detection.counts.values()) == 624 and detection.counts["activation"] == 0
    assert detection.counts == Counter(height=624)
    assert all(len(r.findings) <= MAX_VIOLATIONS for r in reports)


# the phase of verify, and the kind, of each message pattern, phases in the
# order the report shows them
PHASE_MESSAGES = (
    ("benign", "height", r"prog_\d{4}\[\d\]/BASE: height violation \(.*"),
    ("benign", "liveness", r"prog_\d{4}/BASE: liveness violation \(.*"),
    ("benign", "ladder", r"aggregate overhead ratios not strictly decreasing: .*"),
    ("preparation", "mapping", r"prog_\d{4}/FULL: \S+\.b\d+\[\d+\]: halt where input b\d+\[\d+\] has ret"),
    ("detection", "height", r"prog_\d{4}/(SFE|PO|LIGHT): height violation \(.*"),
    ("control", "height", r"prog_\d{4}/ELIDE-ALL: height violation \(.*"),
    ("determinism", "determinism", r"prog_\d{4}/(SFE|PO|LIGHT): nondeterministic trace"),
)


def _skew_every_phase(monkeypatch):
    """Make each phase of verify report messages of its own: wrong heights
    and dead masks for the benign programs, adversarial FULL rewrites that
    end in halt where the input has ret, wrong heights for the other
    detection targets and the ELIDE-ALL targets, and a second recorded run of
    each determinism pair that ends with another r0."""
    import shadowlab.cli as cli
    from shadowlab.mir import Block, Function, Instr, Program
    from shadowlab.transform import InstrumentedProgram

    real_compile, real_apply, real_checks, real_execute = cli.compile, cli.apply_plan, cli.build_checks, cli.execute
    recorded = []

    def compile_skewed(target, checks=None):
        if isinstance(target, Program):
            checks = _skewed(checks, target, "height")
        elif target.mode == "ELIDE-ALL":
            checks = _skewed(checks, target.program, "height")
        return real_compile(target, checks)

    def tampered(program, plan, mode):
        ip = real_apply(program, plan, mode)
        if mode != "FULL" or not program.adversarial:
            return ip
        functions = {
            name: fn if fn is program.functions[name] else Function(name, {
                bid: Block(bid, b.instrs[:-1] + (Instr("halt"),)) if b.instrs[-1].opcode == "ret" else b
                for bid, b in fn.blocks.items()
            })
            for name, fn in ip.program.functions.items()
        }
        return InstrumentedProgram(Program(functions, ip.program.entry, ip.program.adversarial), mode, ip.functions)

    def checks_skewed(ip, source, analysis):
        checks = real_checks(ip, source, analysis)
        return _skewed(checks, ip.program, "height") if source.adversarial and ip.mode in cli.LADDER else checks

    def execute_skewed(target, inp, budget, record=False):
        trace, outcome = real_execute(target, inp, budget, record)
        if record:
            recorded.append(target)
            if len(recorded) % 2 == 0:
                outcome = outcome._replace(r0=(outcome.r0 or 0) + 1)
        return trace, outcome

    for name, fn in [("compile", compile_skewed), ("apply_plan", tampered), ("build_checks", checks_skewed),
                     ("execute", execute_skewed)]:
        monkeypatch.setattr(cli, name, fn)
    _skew_benign_liveness(monkeypatch)


def _recorded_reports(monkeypatch):
    """A list that verify fills with its reports in phase order: those it
    makes itself as it makes them, each campaign's as the campaign returns it."""
    import shadowlab.cli as cli

    reports, real = [], cli.run_campaign

    class Recorded(cli.CampaignReport):
        def __init__(self):
            super().__init__()
            reports.append(self)

    def campaign(cases):
        reports.append(real(cases))
        return reports[-1]

    monkeypatch.setattr(cli, "CampaignReport", Recorded)
    monkeypatch.setattr(cli, "run_campaign", campaign)
    return reports


def _phases(reports, shown):
    """The phase of each finding the report shows, by the one pattern its
    message matches, whose kind must be the finding's."""
    findings = [f for r in reports for f in r.findings][: len(shown)]
    assert [f.text for f in findings] == shown
    found = []
    for f in findings:
        matched = [(phase, kind) for phase, kind, pattern in PHASE_MESSAGES if re.fullmatch(pattern, f.text)]
        assert len(matched) == 1 and matched[0][1] == f.kind, f
        found.append(matched[0][0])
    return found


def test_verify_reports_every_phase_in_phase_order(monkeypatch):
    # each phase counts messages of its own: the report shows them grouped,
    # benign, then adversarial preparation, detection, control, determinism
    import shadowlab.cli as cli
    from shadowlab.shadowvm import MAX_VIOLATIONS

    _skew_every_phase(monkeypatch)
    reports = _recorded_reports(monkeypatch)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=2, adversarial_count=1, inputs_per_program=1))
    phases = _phases(reports, report["violations"])
    assert not ok and len(phases) < MAX_VIOLATIONS
    order = list(dict.fromkeys(phase for phase, _, _ in PHASE_MESSAGES))
    assert list(dict.fromkeys(phases)) == order and phases == sorted(phases, key=order.index)
    checks = report["checks"]
    assert not checks["height_soundness"] and not checks["liveness_soundness"] and not checks["determinism"]
    assert not checks["no_other_violations"]


def test_verify_cuts_the_messages_of_every_phase_at_one_cap(monkeypatch):
    # the benign phase alone counts more messages than the report shows: every
    # kept one is benign, and the later phases' skews, though cut from the
    # messages, still fail their checks
    import shadowlab.cli as cli
    from shadowlab.shadowvm import MAX_VIOLATIONS

    _skew_every_phase(monkeypatch)
    reports = _recorded_reports(monkeypatch)
    report, ok = cli.verify_run(cli.VerifyConfig(seed=3, benign_count=8, adversarial_count=1, inputs_per_program=6))
    assert not ok and len(report["violations"]) == MAX_VIOLATIONS
    assert set(_phases(reports, report["violations"])) == {"benign"}
    checks = report["checks"]
    assert not checks["liveness_soundness"] and not checks["determinism"] and not checks["no_other_violations"]


@pytest.mark.parametrize(
    "text, reason",
    [
        ("fn main {\nb0:\n  call main\n  ret\n}\n", "stack overflow"),
        ("fn main {\nb0:\n  movi r1, 5\n  icall r1\n  halt\n}\n", "indirect call to invalid address 5"),
        ("fn main {\nb0:\n  unwind 3\n  ret\n}\n", "unwind 3 with 1 frames"),
    ],
    ids=["recursion", "icall", "unwind"],
)
def test_cli_run_prints_fault_reason(capsys, tmp_path, text, reason):
    path = write_fixture(tmp_path, "f.mir", text)
    assert main(["run", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"outcome: fault: {reason}"


def test_cli_run_into_closed_pipe_prints_no_traceback(tmp_path):
    # the reader takes one line of a long trace and closes the pipe, as `| head -1` does
    import os
    import subprocess
    import sys
    from pathlib import Path

    import shadowlab

    path = write_fixture(tmp_path, "loop.mir", "fn main {\nb0:\n  movi r1, 1\n  br b1\nb1:\n  br b0\n}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(shadowlab.__file__).resolve().parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "shadowlab.cli", "run", path, "--trace"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"enter 0 main 0\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_cli_run_rejects_non_positive_budget(capsys, tmp_path, budget):
    path = write_fixture(tmp_path, "a.mir", CALL_TREE)
    _assert_usage_error(capsys, ["run", path, "--budget", budget], "--budget")


def test_cli_analyze_deep_chain(capsys, tmp_path):
    path = write_fixture(tmp_path, "deep.mir", DEEP_CHAIN)
    assert main(["analyze", path]) == 0
    assert "SPE 100.0%" in capsys.readouterr().out


# a lowering candidate whose block ids reach the clone-id offset: planning it
# raises PlanError
HIGH_BLOCK_IDS = "fn main {\nb0:\n  brc b1000, b1\nb1:\n  ret\nb1000:\n  movi r1, 0\n  store.reg r1\n  ret\n}\n"


def test_cli_analyze_reports_plan_error(capsys, tmp_path):
    path = write_fixture(tmp_path, "high.mir", HIGH_BLOCK_IDS)
    _assert_usage_error(capsys, ["analyze", path], path, "block ids")


def test_cli_instrument_reports_plan_error(capsys, tmp_path):
    path = write_fixture(tmp_path, "high.mir", HIGH_BLOCK_IDS)
    out = tmp_path / "out.mir"
    _assert_usage_error(capsys, ["instrument", path, "--mode", "LIGHT", "-o", str(out)], path, "block ids")
    assert not out.exists()


def test_cli_stats_reports_plan_error(capsys, tmp_path):
    write_fixture(tmp_path, "a.mir", CALL_TREE)
    path = write_fixture(tmp_path, "high.mir", HIGH_BLOCK_IDS)
    _assert_usage_error(capsys, ["stats", str(tmp_path)], path, "block ids")


# sha256 of `analyze --json` for every program of a fixed gen corpus, then
# `stats --json` over it, then every mode's `instrument` output and plan
# sidecar, recorded before `analyze` and `stats` planned each program once,
# re-recorded once when the sidecar lost `chase_shifts`: the value is the
# earlier digest's computation with that key dropped from every function's
# JSON, and re-recorded once when the sidecar gained its `program_sha256`
# stamp: the value is the earlier digest's computation with that key, the
# sha256 of the instrumented file, added to every sidecar.
PINNED_CLI_DIGEST = "f9ab7f0597b8dd8d2423c8ede32770caeea839b8ae234b17618bb2a0622a8e6c"


def test_cli_outputs_pin(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    assert main(["gen", "--seed", "43", "--count", "12", "--attack-density", "0.5", "--out", str(corpus)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256()
    paths = sorted(corpus.glob("*.mir"))
    for path in paths:
        assert main(["analyze", str(path), "--json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert main(["stats", str(corpus), "--json"]) == 0
    digest.update(capsys.readouterr().out.encode())
    for path in paths[:4]:
        for mode in ("FULL", "SFE", "PO", "MO", "LIGHT", "ELIDE-ALL"):
            out = tmp_path / f"{path.stem}.{mode}.mir"
            assert main(["instrument", str(path), "--mode", mode, "-o", str(out)]) == 0
            digest.update(out.read_bytes())
            digest.update((tmp_path / f"{out.name}.plan.json").read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == PINNED_CLI_DIGEST


# sha256 of `run --trace` and `run --json` output for a fixed gen corpus plus
# an unwinding and a faulting program, uninstrumented and under every mode
# with its plan sidecar: it pins the text and JSON forms of every event kind.
# Recorded before the VM's trace became a log of plain tuples, and recorded
# again when `outcome: fault` lines gained their reason, the only lines that
# changed then.
PINNED_RUN_DIGEST = "52e92abb793d854aed7f167a2797f9762f55596f50cac1a6c7298aedc4588e36"


def test_cli_run_outputs_pin(capsys, tmp_path):
    from shadowlab.transform import MODES

    corpus = tmp_path / "corpus"
    assert main(["gen", "--seed", "47", "--count", "4", "--attack-density", "0.5", "--out", str(corpus)]) == 0
    paths = sorted(corpus.glob("*.mir"))
    paths.append(tmp_path / "unwind.mir")
    paths[-1].write_text(unwind_fixture(2))
    paths.append(tmp_path / "fault.mir")
    paths[-1].write_text("fn main {\nb0:\n  call f\n  halt\n}\n\nfn f {\nb0:\n  movi r1, 3\n  store.reg r1\n  ret\n}\n")
    digest = hashlib.sha256()
    for path in paths:
        targets = [path]
        for mode in MODES:
            targets.append(tmp_path / f"{path.stem}.{mode}.mir")
            assert main(["instrument", str(path), "--mode", mode, "-o", str(targets[-1])]) == 0
        capsys.readouterr()
        for target in targets:
            for inp in (["--input", "1,0,1,1"], ["--input", "0,1,1,0,1,1,1", "--reg", "r2=40"]):
                for form in ("--trace", "--json"):
                    assert main(["run", str(target), *inp, form]) == 0
                    digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_RUN_DIGEST
