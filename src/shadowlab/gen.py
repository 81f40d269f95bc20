"""Seeded random program generator for corpora.

Generated programs are valid by construction and follow a runtime discipline
that keeps benign executions clean: memory writes land in the low data arena,
in globals, or strictly below the local return-address slot; loops are
branch-driven so exhausted inputs terminate them; `halt` appears only in the
entry function; adversarial programs always return from the entry function so
every injected corruption is eventually consumed by a check.

Analysis-visible variety comes from writes whose destinations the height
analysis cannot pin down (arena addresses through registers, stores inside
stack-growing loops, arithmetic-tainted pointers, moved stack pointers), from
indirect calls, recursion, and from functions shaped to keep at least one
safe path.  Template-safe functions only write provably safely and only call
template-safe functions, so the configured safe fraction is guaranteed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .mir import Block, Function, Instr, Program
from .shadowvm import ExecInput

ARENA_SLOTS = tuple(range(64, 4096, 8))
GLOBAL_POOL = ("g0", "g1", "g2", "g3")
# the share of unsafe functions shaped to keep a safe path
SAFE_PATH_FRACTION = 0.5


@dataclass(frozen=True)
class GenConfig:
    """Corpus knobs.  All bounds must be positive."""

    seed: int = 1
    count: int = 20
    min_functions: int = 3
    max_functions: int = 10
    attack_density: float = 0.0
    safe_fraction: float = 0.35
    loop_prob: float = 0.3
    max_level: int = 6
    budget: int = 20000

    def __post_init__(self):
        if min(self.count, self.min_functions, self.budget) < 1:
            raise ValueError("bounds must be positive")
        if self.min_functions < 3 or self.max_functions < self.min_functions:
            raise ValueError("need at least 3 functions")


@dataclass
class _FnSpec:
    name: str
    level: int
    safe: bool
    shape: str                      # straight | chain | diamond | safepath | loop | inlinee | recur
    callees: list[str]
    icall_target: int | None = None
    partner: str | None = None      # mutual-recursion partner
    corrupt: tuple[int, int] | None = None
    regs: tuple[int, ...] = tuple(range(1, 13))
    frame: int = 16
    unsafe_callees: frozenset = frozenset()


def _filler(rng: random.Random, regs, n: int) -> list[Instr]:
    out = []
    for _ in range(n):
        pick = rng.random()
        if pick < 0.5:
            out.append(Instr("movi", (rng.choice(regs), rng.randint(0, 63))))
        elif pick < 0.8:
            out.append(Instr("movr", (rng.choice(regs), rng.choice(regs))))
        else:
            out.append(Instr("binop", (rng.choice(regs), rng.choice(regs))))
    return out


def _safe_store(rng: random.Random, height: int, frame: int, regs) -> list[Instr]:
    """A store the analysis proves safe: concrete height at or below -8."""
    target = -8 * rng.randint(1, max(1, frame // 8))
    if rng.random() < 0.5:
        return [Instr("store.sp", (target - height,))]
    r = rng.choice(regs)
    return [Instr("lea.sp", (r, target - height)), Instr("store.reg", (r,))]


def _unsafe_harmless(rng: random.Random, regs) -> list[Instr]:
    """A store classified unsafe that never touches a live return address."""
    r = rng.choice(regs)
    if rng.random() < 0.5 or len(regs) < 2:
        # absolute arena address through a register: destination is Top
        return [Instr("movi", (r, rng.choice(ARENA_SLOTS))), Instr("store.reg", (r,))]
    # stack address blurred by arithmetic: runtime-safe, statically Top
    z = rng.choice([x for x in regs if x != r])
    return [
        Instr("lea.sp", (r, -8 * rng.randint(1, 4))),
        Instr("movi", (z, 0)),
        Instr("binop", (r, z)),
        Instr("store.reg", (r,)),
    ]


def _spmov_taint(rng: random.Random, regs) -> list[Instr]:
    """Move a blurred stack address into sp; later heights become unknown.

    Only emitted at the very end of a block before `ret`, so no generated
    store relies on a stale static height afterwards.
    """
    r = rng.choice(regs)
    z = rng.choice([x for x in regs if x != r] or [r])
    return [
        Instr("lea.sp", (r, -16)),
        Instr("movi", (z, 0)),
        Instr("binop", (r, z)),
        Instr("spmov", (r,)),
        Instr("store.sp", (-8,)),
    ]


def _global_store(rng: random.Random) -> list[Instr]:
    return [Instr("store.global", (rng.choice(GLOBAL_POOL),))]


def _mix(rng: random.Random, *parts: list[Instr]) -> list[Instr]:
    """Concatenate instruction groups in shuffled group order; groups stay
    contiguous, so address registers are always defined in-block just before
    the store that uses them."""
    groups = [p for p in parts if p]
    rng.shuffle(groups)
    return [ins for group in groups for ins in group]


def _safe_content(rng, spec, height, calls, stores=True) -> list[Instr]:
    pieces = [_filler(rng, spec.regs, rng.randint(0, 2))]
    if stores and rng.random() < 0.7:
        pieces.append(_safe_store(rng, height, spec.frame, spec.regs))
    if rng.random() < 0.4:
        pieces.append(_global_store(rng))
    pieces.extend([Instr("call", (c,))] for c in calls)
    return _mix(rng, *pieces)


def _unsafe_content(rng, spec, calls, icall_target=None) -> list[Instr]:
    pieces = [_filler(rng, spec.regs, rng.randint(0, 2))]
    pieces.append(_unsafe_harmless(rng, spec.regs))
    if icall_target is not None:
        r = rng.choice(spec.regs)
        pieces.append([Instr("movi", (r, icall_target)), Instr("icall", (r,))])
    pieces.extend([Instr("call", (c,))] for c in calls)
    return _mix(rng, *pieces)


def _split_calls(rng, callees):
    first, second = [], []
    for c in callees:
        (first if rng.random() < 0.5 else second).append(c)
    return first, second


def _build_function(rng: random.Random, spec: _FnSpec) -> Function:
    blocks: dict[int, list[Instr]] = {}
    frame_setup = [Instr("spadd", (-spec.frame,))]
    corrupt = [Instr("corrupt", spec.corrupt)] if spec.corrupt else []
    h0 = -spec.frame

    if spec.shape == "inlinee":
        body = _filler(rng, spec.regs, rng.randint(1, 3))
        if not spec.safe:
            r = rng.choice(spec.regs)
            body += [Instr("movi", (r, rng.choice(ARENA_SLOTS))), Instr("store.reg", (r,))]
        elif rng.random() < 0.5:
            body += _global_store(rng)
        blocks[0] = body + [Instr("ret")]

    elif spec.shape == "safepath":
        calls_safe = [c for c in spec.callees if c not in spec.unsafe_callees]
        calls_rest = [c for c in spec.callees if c in spec.unsafe_callees]
        a, b = _split_calls(rng, calls_safe)
        blocks[0] = frame_setup + _safe_content(rng, spec, h0, a) + [Instr("brc", (1, 2))]
        blocks[1] = _safe_content(rng, spec, h0, b) + [Instr("br", (3,))]
        blocks[2] = corrupt + _unsafe_content(rng, spec, calls_rest, spec.icall_target) + [
            Instr("br", (3,))
        ]
        blocks[3] = _filler(rng, spec.regs, rng.randint(0, 2)) + [Instr("ret")]

    elif spec.shape == "recur":
        blocks[0] = frame_setup + corrupt + [Instr("brc", (1, 2))]
        blocks[1] = [Instr("call", (spec.partner or spec.name,)), Instr("br", (2,))]
        tail = (
            _safe_content(rng, spec, h0, spec.callees)
            if spec.safe
            else _unsafe_content(rng, spec, spec.callees, spec.icall_target)
        )
        blocks[2] = tail + [Instr("ret")]

    elif spec.shape == "loop":
        a, b = _split_calls(rng, spec.callees)
        if spec.safe:
            blocks[0] = frame_setup + _safe_content(rng, spec, h0, a) + [Instr("br", (1,))]
            # the loop only grows the stack; no stores afterwards rely on height
            blocks[1] = [Instr("spadd", (-8,)), Instr("brc", (1, 2))]
            tail = [Instr("call", (c,)) for c in b] + _filler(rng, spec.regs, 1)
            if rng.random() < 0.4:
                tail += _global_store(rng)
        else:
            blocks[0] = frame_setup + corrupt + _unsafe_content(rng, spec, a, spec.icall_target) + [
                Instr("br", (1,))
            ]
            # store inside a stack-growing loop: Top height, still below the slot
            blocks[1] = [Instr("spadd", (-8,)), Instr("store.sp", (0,)), Instr("brc", (1, 2))]
            tail = [Instr("call", (c,)) for c in b] + _filler(rng, spec.regs, 1)
        blocks[2] = tail + [Instr("ret")]

    elif spec.shape == "diamond":
        a, rest = _split_calls(rng, spec.callees)
        b, c = _split_calls(rng, rest)
        if spec.safe:
            blocks[0] = frame_setup + _safe_content(rng, spec, h0, a) + [Instr("brc", (1, 2))]
            blocks[1] = _safe_content(rng, spec, h0, b) + [Instr("br", (3,))]
            blocks[2] = _safe_content(rng, spec, h0, c) + [Instr("br", (3,))]
        else:
            blocks[0] = frame_setup + corrupt + _unsafe_content(rng, spec, a, spec.icall_target) + [
                Instr("brc", (1, 2))
            ]
            blocks[1] = _safe_content(rng, spec, h0, b) + [Instr("br", (3,))]
            blocks[2] = _unsafe_content(rng, spec, c) + [Instr("br", (3,))]
        blocks[3] = _filler(rng, spec.regs, rng.randint(0, 1)) + [Instr("ret")]

    else:  # straight | chain
        n_blocks = 1 if spec.shape == "straight" else rng.randint(2, 3)
        remaining = list(spec.callees)
        for i in range(n_blocks):
            calls = []
            while remaining and rng.random() < 0.6:
                calls.append(remaining.pop())
            if i == 0:
                body = frame_setup + corrupt
                body += (
                    _safe_content(rng, spec, h0, calls)
                    if spec.safe
                    else _unsafe_content(rng, spec, calls, spec.icall_target)
                )
            else:
                body = _safe_content(rng, spec, h0, calls)
            term = [Instr("ret")] if i == n_blocks - 1 else [Instr("br", (i + 1,))]
            blocks[i] = body + term
        for c in remaining:
            last = n_blocks - 1
            blocks[last] = [Instr("call", (c,))] + blocks[last]
        if not spec.safe and len(spec.regs) >= 2 and rng.random() < 0.25:
            last = n_blocks - 1
            blocks[last] = blocks[last][:-1] + _spmov_taint(rng, spec.regs) + [blocks[last][-1]]

    return Function(spec.name, {bid: Block(bid, tuple(ins)) for bid, ins in blocks.items()})


def _build_main(rng, spec: _FnSpec, adversarial: bool, chain_call: str | None) -> Function:
    first = [Instr("spadd", (-spec.frame,))]
    if chain_call:
        first.append(Instr("call", (chain_call,)))
    first += _safe_content(rng, spec, -spec.frame, spec.callees)
    end = Instr("ret") if adversarial or rng.random() < 0.5 else Instr("halt")
    if rng.random() < 0.5:
        blocks = {0: first + [Instr("br", (1,))], 1: _filler(rng, spec.regs, 1) + [end]}
    else:
        blocks = {0: first + [end]}
    return Function("main", {bid: Block(bid, tuple(ins)) for bid, ins in blocks.items()})


def generate_program(seed: int, cfg: GenConfig, adversarial: bool) -> Program:
    rng = random.Random(seed)
    n = rng.randint(cfg.min_functions, cfg.max_functions)
    helper_names = [f"f{i}" for i in range(1, n)]
    levels = sorted(rng.randint(1, cfg.max_level) for _ in helper_names)
    level = dict(zip(helper_names, levels))

    n_safe = min(len(helper_names) - 1, max(1, round(cfg.safe_fraction * n)))
    safe_set = set(rng.sample(helper_names, n_safe))

    # the last helper is always a call-free leaf: a stable indirect-call target
    leaf_name = helper_names[-1]
    specs: dict[str, _FnSpec] = {}
    for name in helper_names:
        safe = name in safe_set
        if name == leaf_name:
            menu = []
        elif safe:
            menu = [h for h in helper_names if level[h] > level[name] and h in safe_set]
        else:
            menu = [h for h in helper_names if level[h] > level[name]]
        callees = rng.sample(menu, min(len(menu), rng.randint(0, 2))) if menu else []
        if safe:
            shape = rng.choice(["straight", "chain", "diamond", "loop", "inlinee"])
        elif rng.random() < SAFE_PATH_FRACTION:
            shape = "safepath"
        else:
            shape = rng.choice(["straight", "chain", "diamond", "loop", "inlinee"])
        if shape == "loop" and rng.random() > cfg.loop_prob:
            shape = "chain"
        if shape == "inlinee":
            callees = []
        specs[name] = _FnSpec(name, level[name], safe, shape, callees, frame=8 * rng.randint(2, 5))

    # an indirect call somewhere in an unsafe non-leaf function
    unsafe_helpers = [h for h in helper_names if h not in safe_set]
    icall_hosts = [h for h in unsafe_helpers if specs[h].shape != "inlinee" and h != leaf_name]
    if icall_hosts and rng.random() < 0.5:
        specs[rng.choice(icall_hosts)].icall_target = helper_names.index(leaf_name) + 1

    # occasional self-recursion; occasional mutual pair of equal safety
    recur_pool = [h for h in helper_names if specs[h].shape != "inlinee" and h != leaf_name]
    if recur_pool and rng.random() < 0.35:
        specs[rng.choice(recur_pool)].shape = "recur"
    pairs = [
        (a, b)
        for i, a in enumerate(recur_pool)
        for b in recur_pool[i + 1 :]
        if (a in safe_set) == (b in safe_set)
    ]
    if pairs and rng.random() < 0.25:
        a, b = rng.choice(pairs)
        specs[a].shape = specs[b].shape = "recur"
        specs[a].partner, specs[b].partner = b, a

    # a register-starved unsafe leaf: register-frame candidate
    rf_pool = [
        h
        for h in unsafe_helpers
        if not specs[h].callees
        and specs[h].shape in ("straight", "chain")
        and specs[h].partner is None
        and specs[h].icall_target is None
    ]
    if rf_pool and rng.random() < 0.6:
        specs[rng.choice(rf_pool)].regs = tuple(range(1, 4))

    chain_call = None
    if adversarial:
        host = rng.choice(unsafe_helpers)
        specs[host].corrupt = (rng.randint(0, 2), rng.randint(1000, 1 << 30))
        if specs[host].shape == "inlinee":
            specs[host].shape = "straight"
        chain_call = host

    for spec in specs.values():
        spec.unsafe_callees = frozenset(c for c in spec.callees if c not in safe_set)

    main_menu = [h for h in helper_names if h != chain_call]
    main_callees = rng.sample(main_menu, min(len(main_menu), rng.randint(1, 3))) if main_menu else []
    main_spec = _FnSpec("main", 0, False, "straight", main_callees, frame=16)
    main_spec.unsafe_callees = frozenset(c for c in main_callees if c not in safe_set)

    functions: dict[str, Function] = {}
    functions["main"] = _build_main(rng, main_spec, adversarial, chain_call)
    for name in helper_names:
        functions[name] = _build_function(rng, specs[name])
    return Program(functions, entry="main", adversarial=adversarial)


def generate_corpus(cfg: GenConfig) -> list[tuple[str, Program]]:
    """Deterministic corpus; regeneration with the same config is identical."""
    rng = random.Random(cfg.seed)
    out = []
    for i in range(cfg.count):
        adversarial = rng.random() < cfg.attack_density
        program = generate_program(cfg.seed * 1_000_003 + i, cfg, adversarial)
        out.append((f"prog_{i:04d}", program))
    return out


def generate_inputs(seed: int, count: int) -> list[ExecInput]:
    """`count` inputs from `seed`, drawn as `randint` draws them: `randint(a, b)`
    takes `(b - a + 1).bit_length()` bits until they fall below `b - a + 1`."""
    rng = random.Random(seed)
    bits, draw = rng.getrandbits, rng.random
    out = []
    for _ in range(count):
        n = bits(5)     # randint(2, 20)
        while n >= 19:
            n = bits(5)
        decisions = tuple([draw() < 0.5 for _ in range(n + 2)])
        regs = []
        while len(regs) < 16:   # randint(0, 63) each
            r = bits(7)
            if r < 64:
                regs.append(r)
        out.append(ExecInput(decisions, regs))
    return out
