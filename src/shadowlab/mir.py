"""Miniature low-level IR: text format, structural validation, CFG and call graph.

A program is an ordered collection of functions, each an ordered collection of
basic blocks over 16 general-purpose registers plus an implicit stack pointer.
The word size is 8 bytes and every memory operation moves exactly one word.
Data convention: stores write the current value of r0; `corrupt` writes its
immediate operand; r0 is the return register.

The parser refuses only what one line shows, and a file with no function;
`validate_program` alone checks that branch targets, callees and the entry exist.
Programs are immutable after parse/validate and safe to share across threads:
a plain program `validate_program` finds clean keeps that verdict (`valid`),
which `transform.plan_program` trusts.  Every other operation in this module
is a pure function of its inputs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

WORD_SIZE = 8
NUM_REGS = 16
RETURN_REG = 0

TERMINATORS = frozenset({"br", "brc", "ret", "halt"})
STORE_OPCODES = frozenset({"store.sp", "store.reg", "store.global", "corrupt"})
SHADOW_OPCODES = frozenset({"spush", "spop", "rfpush", "rfpop"})

# Operand shape per opcode: r = register, i = signed integer, b = block id,
# g = global symbol, f = function symbol.
OPERAND_SHAPES = {
    "spadd": "i",
    "spmov": "r",
    "movi": "ri",
    "movr": "rr",
    "lea.sp": "ri",
    "binop": "rr",
    "store.sp": "i",
    "store.reg": "r",
    "store.global": "g",
    "load.sp": "ri",
    "load.reg": "rr",
    "call": "f",
    "icall": "r",
    "ret": "",
    "br": "b",
    "brc": "bb",
    "halt": "",
    "corrupt": "ii",
    "unwind": "i",
    "spush": "i",
    "spop": "",
    "rfpush": "r",
    "rfpop": "r",
}
# per opcode, the type of each operand (r, i and b are ints; g and f strs),
# and the positions of its registers
_OPERAND_TYPES = {op: tuple(str if k in "gf" else int for k in shape) for op, shape in OPERAND_SHAPES.items()}
_REGISTERS = {op: [at for at, k in enumerate(shape) if k == "r"] for op, shape in OPERAND_SHAPES.items()}


class MirError(Exception):
    """Syntax or structural error in MIR text, with a source position."""

    def __init__(self, msg: str, line: int = 0, col: int = 0):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {msg}" if line else msg)


@dataclass(frozen=True)
class Instr:
    opcode: str
    args: tuple = ()

    def render(self) -> str:
        shape = OPERAND_SHAPES[self.opcode]
        parts = []
        for kind, arg in zip(shape, self.args):
            if kind == "r":
                parts.append(f"r{arg}")
            elif kind == "b":
                parts.append(f"b{arg}")
            else:
                parts.append(str(arg))
        return self.opcode if not parts else self.opcode + " " + ", ".join(parts)

    @cached_property
    def text(self) -> str:
        """The canonical text, rendered on first use and kept with the object."""
        return self.render()

    @property
    def is_store(self) -> bool:
        return self.opcode in STORE_OPCODES


@dataclass(eq=False, slots=True)
class Block:
    bid: int
    instrs: tuple[Instr, ...]
    src_line: int = 0
    instr_lines: tuple[int, ...] = ()

    @property
    def terminator(self) -> Instr | None:
        return self.instrs[-1] if self.instrs else None

    @property
    def successors(self) -> tuple[int, ...]:
        term = self.terminator
        return term.args if term is not None and term.opcode in ("br", "brc") else ()

    def __eq__(self, other):
        return (
            isinstance(other, Block)
            and self.bid == other.bid
            and self.instrs == other.instrs
        )


@dataclass(eq=False, slots=True)
class Function:
    name: str
    blocks: dict[int, Block]
    src_line: int = 0
    _text: str | None = field(default=None, init=False, repr=False)

    @property
    def text(self) -> str:
        """The canonical text, as `print_program` prints it: rendered on
        first use and kept with the object, like `Instr.text`."""
        if self._text is None:
            lines = [f"fn {self.name} {{"]
            for bid, block in self.blocks.items():
                lines.append(f"b{bid}:")
                lines += ["  " + ins.text for ins in block.instrs]
            lines.append("}")
            self._text = "\n".join(lines)
        return self._text

    @property
    def entry_block(self) -> int:
        return next(iter(self.blocks))

    @property
    def exit_blocks(self) -> tuple[int, ...]:
        return tuple(
            bid
            for bid, b in self.blocks.items()
            if b.terminator.opcode in ("ret", "halt")
        )

    @property
    def is_leaf(self) -> bool:
        return not any(
            i.opcode in ("call", "icall") for block in self.blocks.values() for i in block.instrs
        )

    def __eq__(self, other):
        return (
            isinstance(other, Function)
            and self.name == other.name
            and list(self.blocks.items()) == list(other.blocks.items())
        )


@dataclass(eq=False)
class Program:
    functions: dict[str, Function]
    entry: str = ""
    adversarial: bool = False
    valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entry and self.functions:
            self.entry = next(iter(self.functions))

    def __eq__(self, other):
        return (
            isinstance(other, Program)
            and self.entry == other.entry
            and self.adversarial == other.adversarial
            and list(self.functions.items()) == list(other.functions.items())
        )


@dataclass(frozen=True)
class Diagnostic:
    reason: str
    line: int = 0

    def render(self, path: str = "<mir>") -> str:
        """`path:line: reason`, or `path: reason` when no line is known."""
        return f"{path}:{self.line}: {self.reason}" if self.line else f"{path}: {self.reason}"


_FN_RE = re.compile(r"^fn\s+([A-Za-z_][\w.]*)\s*\{(.*)$")
_LABEL_RE = re.compile(r"^b(\d+):\s*(.*)$")
_REG_RE = re.compile(r"^r(\d+)$")
_BLOCK_REF_RE = re.compile(r"^b(\d+)$")
_NAME_RE = re.compile(r"^[A-Za-z_][\w.]*$")
_INT_RE = re.compile(r"^-?\d+$")


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.functions: dict[str, Function] = {}
        self.entry: str | None = None
        self.adversarial = False
        self.fn_name: str | None = None
        self.fn_line = 0
        self.blocks: dict[int, Block] = {}
        self.bid: int | None = None
        self.instrs: list[Instr] = []
        self.instr_lines: list[int] = []
        self.block_line = 0
        # Instruction text -> its decoded Instr, shared by every occurrence.
        # Positions stay in instr_lines, so errors found later keep their line.
        self.decoded: dict[str, Instr] = {}

    def error(self, msg: str, line: int, token: str = "") -> MirError:
        col = 1
        if token and 1 <= line <= len(self.lines):
            # the token as a whole operand, not as part of an earlier, longer one
            m = re.search(rf"(?<![^\s,{{}}:]){re.escape(token)}(?![^\s,{{}}:])", self.lines[line - 1])
            if m:
                col = m.start() + 1
        return MirError(msg, line, col)

    def run(self) -> Program:
        for no, raw in enumerate(self.lines, start=1):
            self.feed(raw.strip(), no)
        if self.fn_name is not None:
            raise self.error(f"unterminated function '{self.fn_name}'", self.fn_line)
        if not self.functions:
            raise MirError("no functions in program")
        return Program(self.functions, entry=self.entry or "", adversarial=self.adversarial)

    def feed(self, line: str, no: int) -> None:
        if not line:
            return
        if line.startswith("#"):
            self.directive(line, no)
            return
        m = _FN_RE.match(line)
        if m:
            if self.fn_name is not None:
                raise self.error("nested function definition", no, "fn")
            name = m.group(1)
            if name in self.functions:
                raise self.error(f"duplicate function '{name}'", no, name)
            self.fn_name = name
            self.fn_line = no
            self.blocks = {}
            self.bid = None
            rest = m.group(2).strip()
            if rest:
                self.feed(rest, no)
            return
        if self.fn_name is None:
            raise self.error(f"statement outside function: '{line}'", no, line.split()[0])
        closing = False
        if line.endswith("}"):
            closing = True
            line = line[:-1].strip()
        if line:
            m = _LABEL_RE.match(line)
            if m:
                self.flush_block()
                bid = int(m.group(1))
                if bid in self.blocks:
                    raise self.error(f"duplicate block b{bid}", no, f"b{bid}")
                self.bid = bid
                self.block_line = no
                rest = m.group(2).strip()
                if rest:
                    self.instruction(rest, no)
            else:
                self.instruction(line, no)
        if closing:
            self.close_function(no)

    def directive(self, line: str, no: int) -> None:
        parts = line.split(None, 1)
        key = parts[0]
        if key == "#entry":
            if len(parts) != 2 or not _NAME_RE.match(parts[1].strip()):
                raise self.error("#entry expects a function name", no, key)
            self.entry = parts[1].strip()
        elif key == "#adversarial":
            val = parts[1].strip() if len(parts) == 2 else ""
            if val not in ("true", "false"):
                raise self.error("#adversarial expects true|false", no, key)
            self.adversarial = val == "true"
        # any other '#' line is a comment

    def instruction(self, text: str, no: int) -> None:
        if self.bid is None:
            raise self.error("instruction outside a block", no, text.split()[0])
        ins = self.decoded.get(text)
        if ins is None:
            ins = self.decoded[text] = self.parse_instr(text, no)
        self.instrs.append(ins)
        self.instr_lines.append(no)

    def parse_instr(self, text: str, no: int) -> Instr:
        parts = text.split(None, 1)
        opcode = parts[0]
        shape = OPERAND_SHAPES.get(opcode)
        if shape is None:
            raise self.error(f"unknown opcode '{opcode}'", no, opcode)
        raw_args = [a.strip() for a in parts[1].split(",")] if len(parts) > 1 else []
        if len(raw_args) != len(shape):
            raise self.error(
                f"'{opcode}' expects {len(shape)} operand(s), got {len(raw_args)}",
                no,
                opcode,
            )
        args = []
        for kind, tok in zip(shape, raw_args):
            if kind == "r":
                m = _REG_RE.match(tok)
                if not m or not 0 <= int(m.group(1)) < NUM_REGS:
                    raise self.error(f"bad register '{tok}'", no, tok)
                args.append(int(m.group(1)))
            elif kind == "b":
                m = _BLOCK_REF_RE.match(tok)
                if not m:
                    raise self.error(f"bad block reference '{tok}'", no, tok)
                args.append(int(m.group(1)))
            elif kind == "i":
                if not _INT_RE.match(tok):
                    raise self.error(f"bad integer '{tok}'", no, tok)
                args.append(int(tok))
            else:  # g or f
                if not _NAME_RE.match(tok):
                    raise self.error(f"bad symbol '{tok}'", no, tok)
                args.append(tok)
        return Instr(opcode, tuple(args))

    def flush_block(self) -> None:
        if self.bid is None:
            return
        self.blocks[self.bid] = Block(
            self.bid, tuple(self.instrs), self.block_line, tuple(self.instr_lines)
        )
        self.bid = None
        self.instrs = []
        self.instr_lines = []

    def close_function(self, no: int) -> None:
        self.flush_block()
        if not self.blocks:
            raise self.error(f"function '{self.fn_name}' has no blocks", self.fn_line)
        self.functions[self.fn_name] = Function(self.fn_name, self.blocks, self.fn_line)
        self.fn_name = None


def parse_program(text: str) -> Program:
    """Parse MIR text, raising MirError with line/column on a malformed line; `validate_program` checks references."""
    return _Parser(text).run()


def print_program(program: Program) -> str:
    """Canonical text form; parse(print(p)) is structurally identical to p.

    Each function is rendered once, on its first print, and its text is
    kept with it (`Function.text`), so programs that share a function, as
    the modes `apply_plan` builds from one plan do, print it from there."""
    out = [f"#entry {program.entry}"]
    if program.adversarial:
        out.append("#adversarial true")
    for fn in program.functions.values():
        out.append("")
        out.append(fn.text)
    return "\n".join(out) + "\n"


def validate_program(
    program: Program, allow_shadow: bool = False, checked: Mapping[int, Function] | None = None
) -> list[Diagnostic]:
    """Structural validation; returns an empty list iff all invariants hold,
    and then, for a plain program checked whole, sets `program.valid`.
    Every broken rule is reported, a missing entry function first.

    `checked` holds functions that already passed, in programs with the same
    function names and `adversarial` flag, keyed by `id()`: a function of
    `program` that is one of those objects is not walked again.  Functions
    compare equal by structure, so identity is matched through the key; the
    mapping holds each object, so no other object takes its id.
    """
    diags: list[Diagnostic] = []
    checked = checked or {}

    def diag(reason, line=0):
        diags.append(Diagnostic(reason, line))

    if program.entry not in program.functions:
        diag(f"entry function '{program.entry}' does not exist")

    for fn in program.functions.values():
        if id(fn) in checked:
            continue
        if not fn.blocks:
            diag("function has no blocks", fn.src_line)
            continue
        for bid, block in fn.blocks.items():
            if not block.instrs:
                diag(f"{fn.name}.b{bid}: empty block", block.src_line)
                continue
            term = block.instrs[-1]
            if term.opcode not in TERMINATORS:
                diag(
                    f"{fn.name}.b{bid}: block does not end with a control transfer",
                    block.src_line,
                )
            for idx, ins in enumerate(block.instrs):
                op, args = ins.opcode, ins.args
                line = block.instr_lines[idx] if idx < len(block.instr_lines) else block.src_line
                if op in TERMINATORS and idx != len(block.instrs) - 1:
                    diag(
                        f"{fn.name}.b{bid}: control transfer '{op}' before end of block",
                        line,
                    )
                if op in SHADOW_OPCODES and not allow_shadow:
                    diag(
                        f"{fn.name}.b{bid}: shadow instruction '{op}' in plain program",
                        line,
                    )
                types = _OPERAND_TYPES.get(op)
                if tuple(map(type, args)) != types:
                    if types is None:
                        diag(f"{fn.name}.b{bid}: unknown opcode '{op}'", line)
                    elif len(args) != len(types):
                        diag(f"{fn.name}.b{bid}: '{op}' expects {len(types)} operand(s), got {len(args)}", line)
                    else:
                        at, want = next((i, t) for i, (t, arg) in enumerate(zip(types, args)) if type(arg) is not t)
                        diag(f"{fn.name}.b{bid}: '{op}' operand {at + 1} must be {want.__name__}", line)
                    continue
                if op == "corrupt":
                    if not program.adversarial:
                        diag(f"{fn.name}.b{bid}: adversarial instruction in benign program", line)
                    if args[0] < 0:
                        diag(f"{fn.name}.b{bid}: corrupt depth must be >= 0", line)
                if op == "unwind" and args[0] < 1:
                    diag(f"{fn.name}.b{bid}: unwind count must be >= 1", line)
                for at in _REGISTERS[op]:
                    if not 0 <= args[at] < NUM_REGS:
                        diag(f"{fn.name}.b{bid}: register index out of range", line)
                if op in ("br", "brc"):
                    for target in args:
                        if target not in fn.blocks:
                            diag(f"{fn.name}.b{bid}: branch to unknown block b{target}", line)
                if op == "brc" and args[0] == args[1]:
                    diag(f"{fn.name}.b{bid}: brc arms must differ", line)
                if op == "call" and args[0] not in program.functions:
                    diag(f"{fn.name}.b{bid}: call to unknown function '{args[0]}'", line)
        # reachability over intra-procedural edges
        seen = set()
        work = [fn.entry_block]
        while work:
            b = work.pop()
            if b in seen or b not in fn.blocks:
                continue
            seen.add(b)
            work.extend(fn.blocks[b].successors)
        for bid, block in fn.blocks.items():
            if bid not in seen:
                diag(f"{fn.name}.b{bid}: unreachable block", block.src_line)
    if not (diags or allow_shadow or checked):
        program.valid = True
    return diags


def sccs(nodes: Iterable, succs: Mapping) -> list[list]:
    """Strongly connected components, iterative Tarjan (1972).

    Roots are tried in the order of `nodes` and edges in the order of
    `succs[node]`.  Components come out in Tarjan's emission order: each one
    after every component reachable from it (on a call graph, callees
    before callers).  Members of a component are in stack-pop order;
    callers sort them.
    """
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list[list] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = lowlink[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succs[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = lowlink[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succs[nxt])))
                    break
                if nxt in on_stack:
                    lowlink[node] = min(lowlink[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    components.append(comp)
    return components
