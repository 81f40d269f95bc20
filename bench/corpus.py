"""Seeded builders for the benchmark's inputs, emitted as MIR text.

Sizes are fixed per shape and the seed only varies content (filler,
store kinds, branch arms, call order), so the amount of work in a workload
barely moves from seed to seed while the inputs themselves do.

compile-scale shapes:
  gen-dag       `gen` programs with hundreds to thousands of functions and a
                deep level structure, so the call DAG is deep
  diamond-chain one function of K diamonds in a row (3K+1 blocks); one arm of
                each diamond stores through an arena pointer, so the function
                is unsafe with safe paths and lowering is attempted
  loop-chain    one function of K guarded loops in a row (2K+1 blocks); loop
                bodies may store unsafely, the guards can skip them
  ring          K functions calling each other in a cycle: one SCC of size K

vm-long programs: a main loop whose body calls callees built to resolve,
under LIGHT, to elided, lowered, full and register-frame functions, plus
straight-line leaves that MO and LIGHT inline.  Every callee consumes a
fixed number of branch decisions per call, so an input can drive the loop
for an exact number of iterations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ARENA = tuple(range(64, 4096, 8))

# Shapes whose largest function has at least this many blocks hit transform's
# block-id cap on lowering (transform.CLONE_OFFSET): planning them raises
# PlanError.  They stay in the corpus and are counted as failures.
BLOCK_ID_CAP = 1000


@dataclass(frozen=True)
class ScaleProgram:
    name: str
    shape: str
    text: str
    functions: int
    blocks: int
    instrs: int
    max_blocks: int

    @property
    def over_cap(self) -> bool:
        return self.max_blocks >= BLOCK_ID_CAP

    def describe(self) -> dict:
        return {
            "name": self.name,
            "shape": self.shape,
            "functions": self.functions,
            "blocks": self.blocks,
            "instrs": self.instrs,
            "max_blocks": self.max_blocks,
        }


def _filler(rng: random.Random, n: int, regs=range(1, 9)) -> list[str]:
    regs = tuple(regs)
    out = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.5:
            out.append(f"movi r{rng.choice(regs)}, {rng.randint(0, 63)}")
        elif pick < 0.8:
            out.append(f"movr r{rng.choice(regs)}, r{rng.choice(regs)}")
        else:
            out.append(f"binop r{rng.choice(regs)}, r{rng.choice(regs)}")
    return out


def _safe_store(rng: random.Random, frame: int) -> list[str]:
    """A store at a concrete height at or below -8 (sp sits at -frame)."""
    off = 8 * rng.randint(0, frame // 8 - 1)
    if rng.random() < 0.5:
        return [f"store.sp {off}"]
    r = rng.randint(1, 8)
    return [f"lea.sp r{r}, {off}", f"store.reg r{r}"]


def _arena_store(rng: random.Random, regs=range(1, 9)) -> list[str]:
    """Classified unsafe (the destination height is unknown), harmless at run time."""
    r = rng.choice(tuple(regs))
    return [f"movi r{r}, {rng.choice(ARENA)}", f"store.reg r{r}"]


def _fn_text(name: str, blocks: list[tuple[int, list[str]]]) -> list[str]:
    out = ["", f"fn {name} {{"]
    for bid, instrs in blocks:
        out.append(f"b{bid}:")
        out.extend(f"  {ins}" for ins in instrs)
    out.append("}")
    return out


def _program_text(functions: list[list[str]]) -> str:
    lines = ["#entry main"]
    for fn in functions:
        lines.extend(fn)
    return "\n".join(lines) + "\n"


def _main_calling(callee: str) -> list[str]:
    return _fn_text("main", [(0, ["spadd -16", f"call {callee}", "halt"])])


def _diamond_chain(rng: random.Random, diamonds: int) -> list[str]:
    frame = 48
    blocks = []
    for i in range(diamonds):
        head = ["spadd -48"] if i == 0 else []
        head += _filler(rng, rng.randint(1, 3)) + _safe_store(rng, frame)
        blocks.append((3 * i, head + [f"brc b{3 * i + 1}, b{3 * i + 2}"]))
        left = _filler(rng, rng.randint(0, 2)) + _safe_store(rng, frame)
        right = _filler(rng, rng.randint(0, 2))
        right += _arena_store(rng) if rng.random() < 0.7 else _safe_store(rng, frame)
        if rng.random() < 0.5:
            left, right = right, left
        blocks.append((3 * i + 1, left + [f"br b{3 * i + 3}"]))
        blocks.append((3 * i + 2, right + [f"br b{3 * i + 3}"]))
    blocks.append((3 * diamonds, _filler(rng, 1) + ["ret"]))
    return _fn_text("chain", blocks)


def _loop_chain(rng: random.Random, loops: int) -> list[str]:
    frame = 48
    blocks = []
    for i in range(loops):
        head = ["spadd -48"] if i == 0 else []
        head += _filler(rng, rng.randint(0, 2))
        blocks.append((2 * i, head + [f"brc b{2 * i + 1}, b{2 * i + 2}"]))
        body = _filler(rng, rng.randint(1, 3))
        body += _arena_store(rng) if rng.random() < 0.6 else _safe_store(rng, frame)
        blocks.append((2 * i + 1, body + [f"br b{2 * i}"]))
    blocks.append((2 * loops, _filler(rng, 1) + ["ret"]))
    return _fn_text("loops", blocks)


def _ring(rng: random.Random, size: int) -> list[list[str]]:
    """size functions r0 -> r1 -> ... -> r0; about one in eight stores unsafely."""
    fns = []
    for i in range(size):
        tail = _filler(rng, rng.randint(0, 2))
        tail += _arena_store(rng) if rng.random() < 0.125 else _safe_store(rng, 32)
        fns.append(
            _fn_text(
                f"r{i}",
                [
                    (0, ["spadd -32"] + _filler(rng, rng.randint(1, 3)) + _safe_store(rng, 32) + ["brc b1, b2"]),
                    (1, [f"call r{(i + 1) % size}", "br b2"]),
                    (2, tail + ["ret"]),
                ],
            )
        )
    return fns


def _counts(text: str) -> tuple[int, int, int, int]:
    """(functions, blocks, instructions, blocks of the largest function)."""
    functions = blocks = instrs = max_blocks = fn_blocks = 0
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("fn "):
            functions += 1
            fn_blocks = 0
        elif line == "}":
            max_blocks = max(max_blocks, fn_blocks)
        elif line.startswith("b") and line.endswith(":"):
            blocks += 1
            fn_blocks += 1
        elif line and not line.startswith("#"):
            instrs += 1
    return functions, blocks, instrs, max_blocks


def _scale_program(name: str, shape: str, text: str) -> ScaleProgram:
    return ScaleProgram(name, shape, text, *_counts(text))


# (shape, size) pairs of the compile-scale corpus; the size is functions for
# gen-dag and ring, diamonds for diamond-chain and loops for loop-chain.
SCALE_SHAPES = (
    ("gen-dag", 300),
    ("gen-dag", 1200),
    ("diamond-chain", 300),     # 901 blocks
    ("diamond-chain", 1000),    # 3,001 blocks: over the block-id cap
    ("loop-chain", 450),        # 901 blocks
    ("loop-chain", 600),        # 1,201 blocks: over the block-id cap
    ("ring", 1000),
)


def build_scale_corpus(seed: int, gen, mir, shapes=SCALE_SHAPES) -> list[ScaleProgram]:
    """The compile-scale corpus for a seed.  `gen` and `mir` are the shadowlab
    modules; gen-dag programs come from the project's own generator."""
    out = []
    for i, (shape, size) in enumerate(shapes):
        rng = random.Random(seed * 1_000_003 + i)
        name = f"{shape}-{size}"
        if shape == "gen-dag":
            cfg = gen.GenConfig(
                seed=seed, count=1, min_functions=size, max_functions=size, max_level=max(6, size // 8)
            )
            text = mir.print_program(gen.generate_program(rng.randrange(1 << 30), cfg, adversarial=False))
        elif shape == "diamond-chain":
            text = _program_text([_main_calling("chain"), _diamond_chain(rng, size)])
        elif shape == "loop-chain":
            text = _program_text([_main_calling("loops"), _loop_chain(rng, size)])
        elif shape == "ring":
            text = _program_text([_main_calling("r0")] + _ring(rng, size))
        else:
            raise ValueError(f"unknown shape {shape!r}")
        out.append(_scale_program(name, shape, text))
    return out


# ---------------------------------------------------------------- vm-long

@dataclass(frozen=True)
class LongProgram:
    name: str
    text: str
    decisions_per_iteration: int    # callee decisions before the loop's own branch


# callee kinds of every vm-long program; the seed only shuffles their order
# and varies their content, so each program does about the same work
LONG_KINDS = ("elided", "lowered", "full", "regframe", "inline") * 2


def _callee(rng: random.Random, kind: str, name: str, helper: str) -> tuple[list[str], int]:
    """(function text, decisions it consumes per call)."""
    if kind == "elided":      # safe stores only
        return _fn_text(
            name,
            [
                (0, ["spadd -32"] + _filler(rng, 3) + ["store.sp 8", "brc b1, b2"]),
                (1, _filler(rng, 2) + ["store.sp 16", "br b3"]),
                (2, _filler(rng, 2) + ["store.global g0", "br b3"]),
                (3, _filler(rng, 1) + ["ret"]),
            ],
        ), 1
    if kind == "lowered":     # safe entry, one unsafe arm: a safe path exists
        return _fn_text(
            name,
            [
                (0, ["spadd -32"] + _filler(rng, 3) + ["store.sp 0", "brc b1, b2"]),
                (1, _filler(rng, 2) + ["store.sp 24", "br b3"]),
                (2, _filler(rng, 1) + _arena_store(rng) + ["br b3"]),
                (3, _filler(rng, 1) + ["ret"]),
            ],
        ), 1
    if kind == "full":        # unsafe entry and a call: no safe path, not a leaf
        return _fn_text(
            name,
            [(0, ["spadd -16"] + _arena_store(rng) + _filler(rng, 2) + [f"call {helper}"] + _filler(rng, 1) + ["ret"])],
        ), 0
    if kind == "regframe":    # unsafe leaf that leaves registers free
        regs = range(1, 5)
        return _fn_text(
            name,
            [
                (0, ["spadd -16"] + _arena_store(rng, regs) + _filler(rng, 3, regs) + ["br b1"]),
                (1, _filler(rng, 2, regs) + ["ret"]),
            ],
        ), 0
    if kind == "inline":      # one straight-line block without stack effects
        return _fn_text(name, [(0, _filler(rng, 4) + ["store.global g1", "ret"])]), 0
    raise ValueError(kind)


def build_long_programs(seed: int, count: int = 3) -> list[LongProgram]:
    out = []
    for p in range(count):
        rng = random.Random(seed * 1_000_003 + 7_777 + p)
        helper_text, helper_decisions = _callee(rng, "elided", "helper", "")
        fns = [helper_text]
        calls = []
        per_iteration = 0
        kinds = list(LONG_KINDS)
        rng.shuffle(kinds)
        for i, kind in enumerate(kinds):
            name = f"{kind}{i}"
            text, own = _callee(rng, kind, name, "helper")
            fns.append(text)
            calls.append(f"call {name}")
            per_iteration += own + (helper_decisions if kind == "full" else 0)
        main = _fn_text(
            "main",
            [
                (0, ["spadd -32"] + _filler(rng, 3) + ["br b1"]),
                (1, calls + _filler(rng, 2) + ["store.sp 8", "brc b1, b2"]),
                (2, _filler(rng, 1) + ["store.global g0", "halt"]),
            ],
        )
        out.append(LongProgram(f"long{p}", _program_text([main] + fns), per_iteration))
    return out


def long_decisions(rng: random.Random, program: LongProgram, iterations: int) -> tuple[bool, ...]:
    """Decisions that run the main loop exactly `iterations` times."""
    out: list[bool] = []
    for it in range(iterations):
        out.extend(rng.random() < 0.5 for _ in range(program.decisions_per_iteration))
        out.append(it < iterations - 1)
    return tuple(out)
