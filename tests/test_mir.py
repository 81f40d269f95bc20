import pytest
from hypothesis import given, settings, strategies as st

from shadowlab.mir import (
    OPERAND_SHAPES,
    Block,
    Diagnostic,
    Function,
    Instr,
    MirError,
    Program,
    parse_program,
    print_program,
    validate_program,
)
from shadowlab.gen import GenConfig, generate_program

from conftest import CALL_TREE

# Every opcode, spelled loosely: operands without spaces or with extra ones,
# negative immediates, globals, labels and a closing brace sharing a line.
ALL_OPCODES = """\
#entry main
#adversarial   true
# a comment
fn main {
b0:   spadd   -32
  spmov r1
  movi r3,5
  movr   r4 ,r3
  lea.sp r5,  -8
  binop r4,r5
  store.sp -16
  store.reg r5
  store.global  counter
  load.sp r6,-16
  load.reg r7, r5
  call  leaf
  icall r7
  corrupt 8,-1
  brc b1,b2
b1: br   b3
b2:
  unwind 2
  br b3
b3:
  spush -40
  spop
  rfpush r9
  rfpop r9
  ret }
fn leaf { b0: halt }
"""

ALL_OPCODES_CANONICAL = """\
#entry main
#adversarial true

fn main {
b0:
  spadd -32
  spmov r1
  movi r3, 5
  movr r4, r3
  lea.sp r5, -8
  binop r4, r5
  store.sp -16
  store.reg r5
  store.global counter
  load.sp r6, -16
  load.reg r7, r5
  call leaf
  icall r7
  corrupt 8, -1
  brc b1, b2
b1:
  br b3
b2:
  unwind 2
  br b3
b3:
  spush -40
  spop
  rfpush r9
  rfpop r9
  ret
}

fn leaf {
b0:
  halt
}
"""


def test_parse_minimal_program():
    p = parse_program("fn main { b0: halt }")
    assert len(p.functions) == 1
    assert len(p.functions["main"].blocks) == 1
    assert p.entry == "main"


def test_parse_call_tree(call_tree):
    assert list(call_tree.functions) == ["a", "b", "c", "d", "e", "f"]
    calls = [
        ins
        for fn in call_tree.functions.values()
        for block in fn.blocks.values()
        for ins in block.instrs
        if ins.opcode == "call"
    ]
    assert len(calls) == 7
    assert call_tree.entry == "a"


# the parser reads references without resolving them; `validate_program`
# alone refuses a branch target, a callee or an entry that does not exist
def test_parse_unknown_block():
    p = parse_program("fn main { b0: br b9 }")
    assert validate_program(p) == [Diagnostic("main.b0: branch to unknown block b9", 1)]


def test_parse_unknown_function():
    p = parse_program("fn main {\nb0:\n  call ghost\n  ret\n}")
    assert validate_program(p) == [Diagnostic("main.b0: call to unknown function 'ghost'", 3)]


def test_parse_duplicate_function():
    with pytest.raises(MirError, match="duplicate function"):
        parse_program("fn f { b0: ret }\nfn f { b0: ret }")


def test_parse_duplicate_block():
    with pytest.raises(MirError, match="duplicate block"):
        parse_program("fn f {\nb0:\n  ret\nb0:\n  ret\n}")


def test_parse_bad_register():
    with pytest.raises(MirError, match="bad register"):
        parse_program("fn f { b0: movi r16, 1 }")


def test_parse_unknown_opcode():
    with pytest.raises(MirError, match="unknown opcode"):
        parse_program("fn f { b0: frobnicate r1 }")


def test_parse_operand_count():
    with pytest.raises(MirError, match="expects 2 operand"):
        parse_program("fn f { b0: movi r1 }")


def test_parse_error_carries_position():
    # a dangling reference is a diagnostic at its line, a malformed one a parse error
    assert [d.line for d in validate_program(parse_program("fn main {\nb0:\n  br b9\n}"))] == [3]
    try:
        parse_program("fn main {\nb0:\n  br 9\n}")
    except MirError as exc:
        assert exc.line == 3
        assert exc.col >= 1
    else:
        pytest.fail("expected a parse error")


def test_roundtrip_fixture():
    for text, canonical in [(CALL_TREE, CALL_TREE), (ALL_OPCODES, ALL_OPCODES_CANONICAL)]:
        p = parse_program(text)
        printed = print_program(p)
        assert printed == canonical
        assert parse_program(printed) == p


def test_all_opcodes_fixture_covers_every_opcode():
    p = parse_program(ALL_OPCODES)
    opcodes = {ins.opcode for fn in p.functions.values() for b in fn.blocks.values() for ins in b.instrs}
    assert opcodes == set(OPERAND_SHAPES)


def test_repeated_instruction_text_shares_one_instr():
    p = parse_program("fn f {\nb0:\n  movi r1, 2\n  br b1\nb1:\n  movi r1, 2\n  ret\n}")
    blocks = p.functions["f"].blocks
    assert blocks[0].instrs[0] is blocks[1].instrs[0]
    assert blocks[0].instr_lines == (3, 4) and blocks[1].instr_lines == (6, 7)


def test_instr_text_is_rendered_on_first_use():
    ins = Instr("movi", (3, -5))
    assert "text" not in vars(ins)
    assert ins.text == ins.render() == "movi r3, -5"
    assert ins.text is ins.text


def test_shared_instr_error_reports_later_occurrence():
    # the same `br b5` text is valid in f and names an unknown block in g
    text = "fn f {\nb0:\n  br b5\nb5:\n  ret\n}\nfn g {\nb0:\n      br b5\n}\n"
    p = parse_program(text)
    assert p.functions["f"].blocks[0].instrs[0] is p.functions["g"].blocks[0].instrs[0]
    assert validate_program(p) == [Diagnostic("g.b0: branch to unknown block b5", 9)]


def test_error_column_is_the_whole_operand():
    # b is a part of the opcode brc, and r a part of the earlier operand r1
    for text, msg, pos in [
        ("fn f {\nb0:\n  brc b1, b\nb1:\n  ret\n}", "bad block reference 'b'", (3, 11)),
        ("fn main {\nb0:\n  movi r1, r\n  ret\n}", "bad integer 'r'", (3, 12)),
    ]:
        with pytest.raises(MirError, match=msg) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == pos


def test_roundtrip_preserves_header():
    p = parse_program("#entry f\n#adversarial true\nfn f { b0: corrupt 0, 9\n  ret\n}")
    q = parse_program(print_program(p))
    assert q.adversarial and q.entry == "f"
    assert q == p


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_roundtrip_generated_programs(seed):
    p = generate_program(seed, GenConfig(), adversarial=seed % 3 == 0)
    assert parse_program(print_program(p)) == p


def test_validate_call_tree_clean(call_tree):
    assert validate_program(call_tree) == []


def test_validate_midblock_control_transfer():
    p = parse_program("fn f {\nb0:\n  ret\n  movi r1, 5\n}")
    reasons = [d.reason for d in validate_program(p)]
    assert any("before end of block" in r for r in reasons)


def test_validate_corrupt_in_benign_program():
    p = parse_program("fn f {\nb0:\n  corrupt 0, 1\n  ret\n}")
    reasons = [d.reason for d in validate_program(p)]
    assert any("adversarial instruction in benign program" in r for r in reasons)


def test_validate_negative_corrupt_depth():
    # `corrupt` counts activations down from the running one; `run` raised
    # IndexError on a negative depth
    text = "#adversarial true\nfn f {\nb0:\n  corrupt %d, 1\n  ret\n}"
    assert [d.reason for d in validate_program(parse_program(text % -1))] == ["f.b0: corrupt depth must be >= 0"]
    assert validate_program(parse_program(text % 0)) == []


def test_validate_unreachable_block():
    p = parse_program("fn f {\nb0:\n  ret\nb1:\n  ret\n}")
    reasons = [d.reason for d in validate_program(p)]
    assert any("unreachable" in r for r in reasons)


def test_validate_missing_terminator():
    p = parse_program("fn f {\nb0:\n  movi r1, 5\n}")
    reasons = [d.reason for d in validate_program(p)]
    assert any("control transfer" in r for r in reasons)


def test_validate_brc_same_arms():
    p = parse_program("fn f {\nb0:\n  brc b1, b1\nb1:\n  ret\n}")
    reasons = [d.reason for d in validate_program(p)]
    assert any("arms must differ" in r for r in reasons)


def test_validate_shadow_gating():
    p = parse_program("fn f {\nb0:\n  spush 0\n  spop\n  ret\n}")
    assert validate_program(p) != []
    assert validate_program(p, allow_shadow=True) == []


_HALT = Instr("halt")


@pytest.mark.parametrize(
    "functions, entry, reason",
    [
        ({"main": [(_HALT,)]}, "nope", "entry function 'nope' does not exist"),
        ({"main": [(_HALT,)], "f": []}, "main", "function has no blocks"),
        ({"main": [()]}, "main", "main.b0: empty block"),
        ({"main": [(Instr("movi", (16, 1)), _HALT)]}, "main", "main.b0: register index out of range"),
        ({"main": [(Instr("br", (7,)),)]}, "main", "main.b0: branch to unknown block b7"),
        ({"main": [(Instr("call", ("nope",)), _HALT)]}, "main", "main.b0: call to unknown function 'nope'"),
        ({"main": [(Instr("unwind", (0,)), _HALT)]}, "main", "main.b0: unwind count must be >= 1"),
        # these three raised KeyError, raised IndexError, and passed clean
        ({"main": [(Instr("nop"), _HALT)]}, "main", "main.b0: unknown opcode 'nop'"),
        ({"main": [(Instr("br", ()),)]}, "main", "main.b0: 'br' expects 1 operand(s), got 0"),
        ({"main": [(Instr("movi", (1,)), _HALT)]}, "main", "main.b0: 'movi' expects 2 operand(s), got 1"),
    ],
    ids=[
        "no-entry", "no-blocks", "empty-block", "register-range", "unknown-block", "unknown-callee", "unwind-0",
        "unknown-opcode", "br-without-target", "movi-one-operand",
    ],
)
def test_validate_rules_for_built_programs(functions, entry, reason):
    # programs built in Python, as `apply_plan` builds its outputs: the parser
    # refuses only a function with no block and a register out of range before
    # validation, and the rules are what catch a broken rewrite in `verify` and
    # `instrument`
    blocks = lambda bodies: {bid: Block(bid, instrs) for bid, instrs in enumerate(bodies)}
    p = Program({name: Function(name, blocks(bodies)) for name, bodies in functions.items()}, entry)
    assert [d.reason for d in validate_program(p)] == [reason]


def test_diagnostic_rendering():
    p = parse_program("fn f {\nb0:\n  corrupt 0, 1\n  ret\n}")
    d = validate_program(p)[0]
    assert d.render("x.mir").startswith("x.mir:3:")
    assert Diagnostic("no line", 0).render("x.mir") == "x.mir: no line"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_successor_counts_match_terminators(seed):
    p = generate_program(seed, GenConfig(), adversarial=False)
    expected = {"ret": 0, "halt": 0, "br": 1, "brc": 2}
    for fn in p.functions.values():
        for block in fn.blocks.values():
            assert len(block.successors) == expected[block.terminator.opcode]


def test_entry_must_exist():
    p = parse_program("#entry nope\nfn main { b0: halt }")
    assert p.entry == "nope"
    assert validate_program(p) == [Diagnostic("entry function 'nope' does not exist")]


def test_missing_entry_does_not_hide_other_broken_rules():
    # the missing entry is reported first, then every other broken rule
    p = parse_program("#entry g\nfn main {\nb0:\n  call ghost\n  br b9\n}\n")
    assert validate_program(p) == [
        Diagnostic("entry function 'g' does not exist"),
        Diagnostic("main.b0: call to unknown function 'ghost'", 4),
        Diagnostic("main.b0: branch to unknown block b9", 5),
    ]
