"""Deterministic interpreter with a shadow region and attack injection.

Return addresses are opaque nonzero cookies identifying call sites, not code
addresses; `ret` transfers through the cookie stored in the frame's slot, so
any overwrite of that slot is either caught by a shadow check (Aborted) or
surfaces as UndetectedCorruption the moment a return consumes it.

The shadow region holds a stack of cookies plus one scratch word; the pop
operation unwinds the shadow until the on-stack return address matches or the
zeroed guard at the bottom is reached, which aborts.  Costs are charged per
executed shadow operation from the instrumentation plan's cost table rather
than by expanding shadow operations into micro-instructions.

Running is split in two.  `compile(target, checks)` decodes a program once,
each instruction a 5-tuple, the one way checks reach the VM (see its
docstring).  A decoded `call` names its callee by program-order index, so a
decoded function holds no other, and the modes that compile a rewrite alike
share its decode.  `execute` runs a
compiled program on one input a segment at a time, charging each one's
length against the budget on entry; it keeps the trace's fields and the
running activation in its own locals, a call saving the caller's as one
tuple, and builds the `Trace` once, when the run ends.  An instrumented
target is compiled with the checks `transform.build_checks` maps onto it
from its input's analysis; an uninstrumented input with its own analysis.

Whether an activation's walk runs one covering push and pop, and whether a
dead register mask is sound, depend on a function's paths only, which
`verify` checks statically.  The step loop checks what is interprocedural:
a planned function returns with the shadow as deep as its call found it.
A failed check is a `Finding` record with a kind, which a `CampaignReport`
counts per kind; `CampaignReport.check` records a run's height violations and
activation findings, and `check_activations` adds the target's static ones.

Under `execute(..., record=True)` the trace also keeps a log of plain
tuples, one `(kind, *fields)` per event, which `to_lines` and `to_json` read
by position; otherwise the log stays empty.  The kind is the event's name;
the eleven layouts are
  ("call", act, fn, shadow_top)            callee's activation and name
  ("enter", act, fn, bid)                  each block entered
  ("store", act, fn, bid, idx, wclass, addr, height)
                                           store.global: wclass "global", addr -1, height None
  ("push", act, fn, bid, idx, rf)          spush, or rfpush when rf is True
  ("pop", act, fn, bid, idx, matched_after, rf)
  ("corrupt", act, depth, target_act)
  ("ret", act, fn, ok, shadow_top)
  ("abort", act, fn, bid, idx)
  ("halt", r0)
  ("unwind", act, count)
  ("fault", reason)
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

from .mir import NUM_REGS, Program, RETURN_REG
from .analysis import AnalysisChecks, write_class
from .transform import (
    _EMPTY,
    SHADOW_COSTS,
    InstrumentedProgram,
    build_checks,   # bound here too: the benchmark traces it as shadowvm.build_checks
    check_rewrites,
)

MEM_BYTES = 1 << 16
STACK_FLOOR = 8192          # call fault below this; [0, STACK_FLOOR) is the data arena
SHADOW_CAPACITY = 4096
COOKIE_BASE = 1 << 48
EXIT_COOKIE = 1 << 49
MASK = (1 << 64) - 1

COMPLETED = "completed"
ABORTED = "aborted"
UNDETECTED = "undetected"
BUDGET = "budget"
FAULT = "fault"

# Undetected runs whose whole trace a campaign report keeps, and shows.
MAX_COUNTEREXAMPLES = 3
# Findings a campaign report keeps, whose messages `verify` shows; it counts all.
MAX_VIOLATIONS = 100


class Outcome(NamedTuple):
    kind: str
    site: tuple | None = None
    evidence: tuple | None = None
    r0: int | None = None


@dataclass(frozen=True)
class ExecInput:
    """One run's input: the branch decisions, which `brc` takes in order
    (the false arm once they run out), and the initial registers.

    The registers are masked to words and padded with zeros to NUM_REGS
    once, when the input is built, so every run copies them as they are.
    More than NUM_REGS registers raise ValueError."""

    decisions: tuple[bool, ...] = ()
    regs: tuple[int, ...] = (0,) * NUM_REGS

    def __post_init__(self):
        regs = self.regs
        if len(regs) > NUM_REGS:
            raise ValueError(f"{len(regs)} registers given, the VM has {NUM_REGS}")
        # a tuple made from a list takes the freed one of the last input built;
        # one grown from a generator would not, and each input's given tuple
        # would stay on CPython's free list
        object.__setattr__(self, "regs", tuple([v & MASK for v in regs] + [0] * (NUM_REGS - len(regs))))


@dataclass(slots=True)
class Trace:
    """What one run did.  `execute` keeps every field in its own locals while
    it runs and builds the trace once, at the end."""

    log: list               # one plain tuple (kind, *fields) per event, in order; [] unless recorded
    instr_count: int = 0
    shadow_instr: int = 0
    shadow_mem: int = 0
    shadow_ops: int = 0
    mem_accesses: int = 0
    final_shadow_top: int = 0
    globals_log: list = field(default_factory=list)
    height_violations: list = field(default_factory=list)
    activation_problems: list = field(default_factory=list)   # (act, fn, depth message), ordered by act
    corruptions: int = 0    # corrupt instructions executed

    @property
    def total_instr(self) -> int:
        return self.instr_count + self.shadow_instr

    def to_lines(self) -> list[str]:
        return [" ".join(map(str, e)) for e in self.log]

    def to_json(self) -> dict:
        return {
            "events": [list(e) for e in self.log],
            "instr_count": self.instr_count,
            "shadow_instr": self.shadow_instr,
            "shadow_mem": self.shadow_mem,
            "shadow_ops": self.shadow_ops,
            "mem_accesses": self.mem_accesses,
            "globals": [list(g) for g in self.globals_log],
        }


# The running activation is held in `execute`'s locals:
#   act        its number, in call order; the entry activation is 0
#   call_top   shadow depth at the call, which a return must find again;
#              None for the entry activation and a function no plan placed
#   ra_slot    address of its return-address word
#   cookie     the return address its caller stored there
# A call saves the caller's as one tuple on `callers`, these fields in this
# order and then where it resumes, (fname, code, bid, seg), seg the call's c.
_RA_SLOT = 2
_ACTIVATION = 4             # the fields an unwind restores; it resumes in the code that unwound


class _VmFault(Exception):
    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(reason)


def observables(trace: Trace, outcome: Outcome) -> tuple:
    """What a benign run exposes: outcome kind, r0 at halt, global stores."""
    return outcome.kind, outcome.r0, tuple(trace.globals_log)


class _Fn:
    """One function's decoded code, block id -> the block's first segment,
    and whether a plan placed it, so its returns check the shadow depth;
    compiled programs may share it."""

    __slots__ = ("name", "entry", "blocks", "entry_code", "planned")

    def __init__(self, name: str, entry: int, planned: bool):
        self.name, self.entry, self.planned = name, entry, planned
        self.blocks: dict[int, tuple] = {}
        self.entry_code: tuple = ()


@dataclass(frozen=True)
class CompiledProgram:
    """A target decoded once for the step loop, with its checks folded in."""

    entry: _Fn
    functions: tuple[_Fn, ...]   # program order; a call's index or an icall address indexes it


# Decoded opcodes, grouped so the step loop dispatches on ranges: ops below
# RET fall through to the next instruction, RET..UNWIND transfer control,
# SPUSH and up are shadow operations.  The loop writes these numbers and MASK
# as literals, each named in a comment, so dispatch loads no module global.
(MOVI, SPADD, MOVR, BINOP, LEA_SP, STORE_REG, STORE_SP, STORE_GLOBAL, LOAD_SP, LOAD_REG, SPMOV,
 CORRUPT, RET, BR, BRC, CALL, ICALL, HALT, UNWIND, SPUSH, SPOP, RFPUSH, RFPOP, UNKNOWN) = range(24)
_OPCODES = {
    "movi": MOVI, "spadd": SPADD, "movr": MOVR, "binop": BINOP, "lea.sp": LEA_SP,
    "store.reg": STORE_REG, "store.sp": STORE_SP, "store.global": STORE_GLOBAL,
    "load.sp": LOAD_SP, "load.reg": LOAD_REG, "spmov": SPMOV, "corrupt": CORRUPT,
    "ret": RET, "br": BR, "brc": BRC, "call": CALL, "icall": ICALL, "halt": HALT,
    "unwind": UNWIND, "spush": SPUSH, "spop": SPOP, "rfpush": RFPUSH, "rfpop": RFPOP,
}


def compile(target: InstrumentedProgram | Program, checks: AnalysisChecks | None = None) -> CompiledProgram:
    """Decode `target` once for any number of runs.

    Each block becomes segments cut after each control transfer, the first in
    `blocks[bid]`, and each instruction a tuple (opcode, a, b, c, idx):
      call      a = callee's index in program order (icall: address
                register), b = cookie, c = next segment
      stores    a = operand, b = write class, c = expected height or None
      shadow    a = operand, (b, c) = cost charged per execution
      movi      b = immediate masked to a word;  corrupt: b = value masked
      UNKNOWN   a = the reason it faults with: an unhandled opcode, or a call
                or branch to a function or block that does not exist
    `idx` is its index in the block.  Store heights, which give the write
    classes, come from `checks.heights`, which apply to the program they
    were built for; a store they lack reads as no height or class.  Dead
    register masks are not read: `verify` checks them statically.

    Cookies are numbered program-wide, in call order.  A rewrite's decode is
    kept on its ResolvedFunction and reused wherever its output function,
    store heights (by identity), first cookie and callees' indices are the
    same.
    """
    if isinstance(target, InstrumentedProgram):
        program, resolved = target.program, target.functions
    else:
        program, resolved = target, {}
    heights = checks.heights if checks else _EMPTY
    index = {name: i for i, name in enumerate(program.functions)}

    fns = []
    cookie = COOKIE_BASE
    for name, fn in program.functions.items():
        rf = resolved.get(name)
        hmap = heights[name].stores if name in heights else _EMPTY
        d = rf.decoded.get(cookie) if rf and rf.decoded else None
        if d and d[0] is fn and d[1] is hmap and all(index.get(c) == i for c, i in d[2].items()):
            fns.append(d[3])
            cookie = d[4]
            continue
        first, costs = cookie, rf.op_costs if rf else _EMPTY
        out = _Fn(name, fn.entry_block, rf is not None)
        callees = {}    # name -> index, or None for a function the program lacks
        blocks = fn.blocks
        for bid, block in blocks.items():
            parts = [[]]    # the block's instructions, cut after each control transfer
            for idx, ins in enumerate(block.instrs):
                opname, args = ins.opcode, ins.args
                op = _OPCODES.get(opname, UNKNOWN)
                a = args[0] if args else None
                b = args[1] if len(args) > 1 else None
                c = None
                if op == UNKNOWN:
                    a = f"unhandled opcode {opname}"
                elif op == MOVI or op == CORRUPT:
                    b &= MASK
                elif op == CALL or op == ICALL:
                    cookie += 1
                    if op == CALL:
                        callees[a] = index.get(a)
                        op, a = (op, index[a]) if a in index else (UNKNOWN, f"{name}.b{bid}: call to unknown function '{a}'")
                    b = cookie
                elif op == BR or op == BRC:
                    if a not in blocks or op == BRC and b not in blocks:
                        op, a = UNKNOWN, f"{name}.b{bid}: branch to unknown block b{a if a not in blocks else b}"
                elif op == STORE_SP or op == STORE_REG:
                    c = hmap.get((bid, idx))
                    b = None if c is None else write_class(c)
                    c = c if isinstance(c, int) else None
                elif op >= SPUSH:
                    b, c = costs.get((bid, idx)) or SHADOW_COSTS[opname]
                parts[-1].append((op, a, b, c, idx))
                if RET <= op < UNWIND:
                    parts.append([])
            seg = ()
            for part in reversed(parts):    # a call's c is the segment its return resumes
                if part and CALL <= part[-1][0] <= ICALL:
                    part[-1] = (*part[-1][:3], seg, part[-1][4])
                seg = tuple(part)
            out.blocks[bid] = seg
        out.entry_code = out.blocks[out.entry]
        if rf:
            rf.decoded = rf.decoded or {}
            rf.decoded[first] = (fn, hmap, callees, out, cookie)
        fns.append(out)
    return CompiledProgram(fns[index[program.entry]], tuple(fns))


def _bad_address(addr: int) -> _VmFault:
    return _VmFault(f"bad word address {addr}")


def execute(
    target: CompiledProgram | InstrumentedProgram | Program,
    inp: ExecInput = ExecInput(),
    budget: int = 10000,
    record: bool = False,
) -> tuple[Trace, Outcome]:
    """Small-step execution; deterministic in (target, inp).

    A CompiledProgram runs with the checks it was compiled with; a Program
    or InstrumentedProgram is compiled first, without checks.  The event log
    is kept only when `record` is set; nothing else about the run depends
    on it."""
    if not isinstance(target, CompiledProgram):
        target = compile(target)
    by_index = target.functions

    mem: dict[int, int] = {}    # word index -> value; unwritten words read 0
    regs = list(inp.regs)
    decisions = inp.decisions
    n_decisions = len(decisions)
    di = 0
    bad_bits = ~(MEM_BYTES - 8)     # an address with any of these set is not an aligned word of memory

    sp = MEM_BYTES - 8
    mem[sp >> 3] = EXIT_COOKIE
    # the running activation (layout above), then the callers' saved ones
    act, call_top, ra_slot, cookie = 0, None, sp, EXIT_COOKIE
    callers: list[tuple] = []
    next_act = 1

    shadow: list[int] = []
    scratch = 0

    log: list = []
    ev = log.append
    globals_log: list = []
    height_violations: list = []
    problems: list = []
    entry = target.entry
    fname, code, bid, seg = entry.name, entry.blocks, entry.entry, entry.entry_code
    if record:
        ev(("enter", 0, fname, bid))
    shadow_ops = shadow_instr = shadow_mem = mem_accesses = corruptions = 0
    budget = left = max(budget, 0)     # steps not yet charged
    checking = True   # off after an unwind: activation/function pairing no longer matches the analyses

    outcome: Outcome | None = None
    try:
        while outcome is None:
            # a segment is charged whole on entry; the one the budget runs out in is cut to what is left
            if len(seg) > left:
                seg = seg[:left]
            left -= len(seg)
            for op, a, b, c, idx in seg:
                if op < 12:     # below RET: on to the next instruction
                    if op == 0:     # MOVI
                        regs[a] = b
                    elif op == 2:   # MOVR
                        regs[a] = regs[b]
                    elif op == 3:   # BINOP
                        regs[a] = (regs[a] + regs[b]) & 0xFFFF_FFFF_FFFF_FFFF     # MASK
                    elif op == 1:   # SPADD
                        sp += a
                    elif op == 6 or op == 5:    # STORE_SP, STORE_REG
                        addr = sp + a if op == 6 else regs[a]
                        if addr & bad_bits:
                            raise _bad_address(addr)
                        mem[addr >> 3] = regs[RETURN_REG]
                        mem_accesses += 1
                        height = addr - ra_slot
                        if c is not None and checking and height != c:
                            height_violations.append((fname, bid, idx, c, height))
                        if record:
                            ev(("store", act, fname, bid, idx, b, addr, height))
                    elif op == 7:   # STORE_GLOBAL
                        globals_log.append((a, regs[RETURN_REG]))
                        mem_accesses += 1
                        if record:
                            ev(("store", act, fname, bid, idx, "global", -1, None))
                    elif op == 4:   # LEA_SP
                        regs[a] = (sp + b) & 0xFFFF_FFFF_FFFF_FFFF      # MASK
                    elif op == 8 or op == 9:    # LOAD_SP, LOAD_REG
                        addr = sp + b if op == 8 else regs[b]
                        if addr & bad_bits:
                            raise _bad_address(addr)
                        regs[a] = mem.get(addr >> 3, 0)
                        mem_accesses += 1
                    elif op == 11:  # CORRUPT
                        depth = min(a, len(callers))
                        if depth:
                            saved = callers[-depth]
                            victim, slot = saved[0], saved[_RA_SLOT]
                        else:
                            victim, slot = act, ra_slot
                        mem[slot >> 3] = b
                        mem_accesses += 1
                        corruptions += 1
                        if record:
                            ev(("corrupt", act, depth, victim))
                    else:  # SPMOV
                        sp = regs[a]
                elif op < 19:   # below SPUSH: control transfers
                    if op == 12:    # RET
                        value = mem.get(ra_slot >> 3, 0)
                        mem_accesses += 1
                        sp = ra_slot + 8
                        ok = value == cookie
                        top = len(shadow)
                        if call_top is not None and call_top != top:
                            problems.append((act, fname, f"shadow depth {top} at return, {call_top} at call"))
                        if record:
                            ev(("ret", act, fname, ok, top))
                        if ok and callers:
                            act, call_top, ra_slot, cookie, fname, code, bid, seg = callers.pop()
                        else:   # the run ends; COMPLETED positionally, as keyword binding costs more
                            outcome = (Outcome(COMPLETED, None, None, regs[RETURN_REG]) if ok
                                       else Outcome(UNDETECTED, evidence=(fname, cookie, value)))
                    elif op == 13:  # BR
                        bid, seg = a, code[a]
                        if record:
                            ev(("enter", act, fname, bid))
                    elif op == 14:  # BRC
                        bid = (a if decisions[di] else b) if di < n_decisions else b
                        di += 1
                        seg = code[bid]
                        if record:
                            ev(("enter", act, fname, bid))
                    elif op == 15 or op == 16:  # CALL, ICALL
                        if op == 15:
                            callee = by_index[a]
                        else:
                            address = regs[a]
                            if not 0 <= address < len(by_index):
                                raise _VmFault(f"indirect call to invalid address {address}")
                            callee = by_index[address]
                        sp -= 8
                        if sp < STACK_FLOOR:
                            raise _VmFault("stack overflow")
                        if sp & bad_bits:
                            raise _bad_address(sp)
                        mem[sp >> 3] = b
                        mem_accesses += 1
                        callers.append((act, call_top, ra_slot, cookie, fname, code, bid, c))
                        act = next_act
                        next_act += 1
                        call_top = len(shadow) if callee.planned else None
                        ra_slot, cookie = sp, b
                        fname, code, bid, seg = callee.name, callee.blocks, callee.entry, callee.entry_code
                        if record:
                            ev(("call", act, fname, len(shadow)))
                            ev(("enter", act, fname, bid))
                    elif op == 17:  # HALT
                        if record:
                            ev(("halt", regs[RETURN_REG]))
                        outcome = Outcome(COMPLETED, None, None, regs[RETURN_REG])
                    else:  # UNWIND: drop `a` activations, then run on in this code as the one below them
                        depth = len(callers) - a
                        if depth < 0:
                            raise _VmFault(f"unwind {a} with {len(callers) + 1} frames")
                        checking = False
                        if record:
                            ev(("unwind", act, a))
                        act, call_top, ra_slot, cookie = callers[depth][:_ACTIVATION]
                        del callers[depth:]
                        sp = ra_slot
                        continue
                    break   # a segment ends at each transfer
                elif op == 23:  # UNKNOWN: an unhandled opcode or a broken reference, `a` the reason
                    raise _VmFault(a)
                else:
                    shadow_instr += b
                    shadow_mem += c
                    shadow_ops += 1
                    if op == 19:    # SPUSH
                        ra_addr = sp - a
                        if ra_addr & bad_bits:
                            raise _bad_address(ra_addr)
                        if len(shadow) >= SHADOW_CAPACITY:
                            raise _VmFault("shadow region overflow")
                        shadow.append(mem.get(ra_addr >> 3, 0))
                        if record:
                            ev(("push", act, fname, bid, idx, False))
                    elif op == 21:  # RFPUSH
                        scratch = regs[a]
                        regs[a] = mem.get(ra_slot >> 3, 0)
                        if record:
                            ev(("push", act, fname, bid, idx, True))
                    else:  # SPOP, or RFPOP
                        ra = mem.get(ra_slot >> 3, 0)
                        rf = op == 22   # RFPOP
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
                                left += seg[-1][4] - idx    # give back the steps after it
                                break
                        if rf:
                            regs[a] = scratch
                        if record:
                            ev(("pop", act, fname, bid, idx, matched, rf))
            else:   # ran off the segment: the budget cut it, or its block has no terminator
                if left:
                    raise _VmFault(f"{fname}.b{bid}: block does not end with a control transfer")
                outcome = Outcome(BUDGET)
    except _VmFault as fault:
        left += seg[-1][4] - idx if seg else 0     # give back the steps after the faulting one
        if record:
            ev(("fault", fault.reason))
        outcome = Outcome(FAULT, evidence=(fault.reason,))

    if len(problems) > 1:     # found at returns, callees first
        problems.sort(key=itemgetter(0))

    return Trace(
        log, budget - left - shadow_ops, shadow_instr, shadow_mem, shadow_ops, mem_accesses, len(shadow),
        globals_log, height_violations, problems, corruptions,
    ), outcome


@dataclass
class CampaignCase:
    name: str
    mode: str
    target: CompiledProgram | InstrumentedProgram | Program   # run as `execute` runs it
    inp: ExecInput
    adversarial: bool
    budget: int = 10000


class Finding(NamedTuple):
    """One failed check: its kind, the program or run and mode it names (or None), and its message."""

    kind: str
    program: str | None
    mode: str | None
    text: str


@dataclass
class CampaignReport:
    cases: int = 0
    fired: int = 0
    detected: int = 0
    undetected: int = 0
    findings: list = field(default_factory=list)          # the first MAX_VIOLATIONS Finding records
    counts: Counter = field(default_factory=Counter)      # every finding, kept or not, per kind
    counterexamples: list = field(default_factory=list)   # (CampaignCase, Trace), first undetected runs only

    def add(self, *findings: Finding) -> None:
        self.counts.update(f.kind for f in findings)
        self.findings.extend(findings[: MAX_VIOLATIONS - len(self.findings)])

    def check(self, name: str, mode: str, trace: Trace, outcome: Outcome) -> None:
        """Record the run's height violations, then its activation findings."""
        if trace.height_violations:
            self.add(*(Finding("height", name, mode, f"{name}/{mode}: height violation {v}") for v in trace.height_violations))
        if trace.activation_problems or outcome.kind == COMPLETED and trace.final_shadow_top:
            self.add(*(Finding("activation", name, mode, m) for m in _activation_messages(f"{name}/{mode}", trace, outcome)))


def _activation_messages(where: str, trace: Trace, outcome: Outcome) -> list[str]:
    problems = [f"activation: {where} act {act} fn {fn}: {message}" for act, fn, message in trace.activation_problems]
    if outcome.kind == COMPLETED and trace.final_shadow_top:
        problems.append(f"activation: {where}: shadow not balanced at completion")
    return problems


def check_activations(case: CampaignCase, trace: Trace, outcome: Outcome) -> list[str]:
    """The run's activation findings, the shadow depths at its returns and its
    balance at completion; then, for an instrumented target (not a compiled
    one, which keeps no rewrites), its rewrites' `transform.check_rewrites`
    findings, which raises CheckMappingError for a rewrite it cannot map."""
    where = f"{case.name}/{case.mode}"
    problems = _activation_messages(where, trace, outcome)
    if isinstance(case.target, InstrumentedProgram):
        problems += [f"activation: {where} fn {fn}: {m}" for fn, m in check_rewrites(case.target)]
    return problems


def run_campaign(cases: Iterable[CampaignCase]) -> CampaignReport:
    """Execute all cases, each on its own target, count detections, check
    invariants.  `cases` is consumed once, in order, so it may be a generator
    that builds each case as the campaign reaches it.  Every undetected run
    and every finding is counted; only the first MAX_COUNTEREXAMPLES
    undetected runs are kept, as (case, unrecorded trace) counterexamples,
    and the first MAX_VIOLATIONS findings.
    """
    report = CampaignReport()
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
                report.add(Finding("outcome", case.name, case.mode,
                                   f"{case.name}/{case.mode}: corruption fired but run ended {outcome.kind}"))
        elif outcome.kind not in (COMPLETED,):
            report.add(Finding("outcome", case.name, case.mode, f"{case.name}/{case.mode}: benign-path run ended {outcome.kind}"))

        report.check(case.name, case.mode, trace, outcome)
    return report
