import gc
import time

import pytest

from shadowlab.mir import parse_program

# Call tree with a mix of safe and unsafe functions: leaf d, e and near-leaf b
# are safe; a and f contain unclassifiable writes; c is unsafe only because it
# calls f.  Seven call instructions over five distinct edges.
CALL_TREE = """\
#entry a

fn a {
b0:
  spadd -32
  movi r9, 256
  store.reg r9
  call b
  call c
  br b1
b1:
  call b
  ret
}

fn b {
b0:
  spadd -16
  store.sp 8
  call d
  call e
  ret
}

fn c {
b0:
  store.global side
  call f
  call f
  ret
}

fn d {
b0:
  movi r0, 7
  ret
}

fn e {
b0:
  store.sp -8
  ret
}

fn f {
b0:
  movi r9, 320
  store.reg r9
  ret
}
"""

# Intra-procedural CFG with one unsafe block (4) inside a loop; paths 1->6 and
# 1->2->3->5->6 stay on safe blocks.  Exits are 6 and 7.
MEMO_CFG = """\
#entry memo

fn memo {
b1:
  spadd -16
  brc b2, b6
b2:
  movi r1, 1
  br b3
b3:
  store.sp 8
  brc b4, b5
b4:
  movi r9, 512
  store.reg r9
  brc b2, b7
b5:
  movi r2, 2
  br b6
b6:
  store.sp 0
  ret
b7:
  ret
}
"""

# Two registers read at entry then overwritten: no dead registers at entry,
# exactly two once the overwrites are next, with a -16 sp shift in between.
FIXTURE_CHASE = """\
#entry main

fn main {
b0:
  spadd -16
  call chasefn
  ret
}

fn chasefn {
b0:
  spadd -16
  binop r1, r2
  movi r1, 4660
  movi r2, 80
  call sink
  movi r9, 640
  store.reg r9
  ret
}

fn sink {
b0:
  movi r0, 1
  ret
}
"""

# Unsafe leaf referencing r1..r8, leaving r9 as the lowest free register.
FIXTURE_REGFRAME = """\
#entry main

fn main {
b0:
  spadd -16
  call rleaf
  ret
}

fn rleaf {
b0:
  movi r1, 64
  movi r2, 64
  movi r3, 64
  movi r4, 64
  movi r5, 64
  movi r6, 64
  movi r7, 64
  movi r8, 64
  store.reg r1
  ret
}
"""

FIXTURE_INLINE = """\
#entry main

fn main {
b0:
  movi r1, 41
  call id
  store.global out
  halt
}

fn id {
b0:
  movr r0, r1
  ret
}
"""

# Two parallel unsafe branches out of block 1, plus a safe arm from the entry
# so the function keeps a safe path.
FIXTURE_DIAMOND = """\
#entry main

fn main {
b0:
  spadd -16
  brc b1, b4
b1:
  brc b2, b3
b2:
  movi r9, 704
  store.reg r9
  br b4
b3:
  movi r9, 712
  store.reg r9
  br b4
b4:
  ret
}
"""

# A safe arm to b999 beside a chain of 997 branch blocks that ends in one
# unsafe store: the lowering walk follows a path as long as the block-id range.
DEEP_CHAIN = "\n".join(
    ["fn f {", "b0:", "  spadd -16", "  brc b1, b999"]
    + [f"b{i}:\n  br b{i + 1}" for i in range(1, 998)]
    + ["b998:", "  store.sp 16", "  ret", "b999:", "  spadd 16", "  ret", "}", ""]
)


def unwind_fixture(k: int) -> str:
    """Call chain deep enough to discard k frames before the return."""
    depth = k + 1
    lines = ["#entry main", "", "fn main {", "b0:", f"  call u1", "  movi r0, 0", "  halt", "}"]
    for i in range(1, depth):
        lines += ["", f"fn u{i} {{", "b0:", f"  call u{i + 1}", "  ret", "}"]
    lines += ["", f"fn u{depth} {{", "b0:", f"  unwind {k}", "  ret", "}"]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def call_tree():
    return parse_program(CALL_TREE)


@pytest.fixture(scope="session")
def memo_cfg():
    return parse_program(MEMO_CFG)


@pytest.fixture(scope="session")
def fixture_chase():
    return parse_program(FIXTURE_CHASE)


@pytest.fixture(scope="session")
def fixture_regframe():
    return parse_program(FIXTURE_REGFRAME)


@pytest.fixture(scope="session")
def fixture_inline():
    return parse_program(FIXTURE_INLINE)


@pytest.fixture(scope="session")
def fixture_diamond():
    return parse_program(FIXTURE_DIAMOND)


SCALE_SIZES = (1_000, 8_000)


def assert_linear(prepare) -> None:
    """`prepare(n)` builds an input of `n` units and returns, per function
    under test, a call of it on that input.  Each call runs 5 times at each
    of SCALE_SIZES, the sizes taking turns so a slow spell of the host falls
    on both, and its best time per unit at the larger size must stay within
    2x of that at the smaller: a quadratic step shows as about 8x.  The
    collector is paused while the calls run, so a collection the set-up's
    objects provoke is not charged to them."""
    sized = [(n, prepare(n)) for n in SCALE_SIZES]
    per_unit = {label: [float("inf")] * len(sized) for label in sized[0][1]}
    gc.collect()
    gc.disable()
    try:
        for _ in range(5):
            for k, (n, runs) in enumerate(sized):
                for label, run in runs.items():
                    start = time.perf_counter()
                    run()
                    per_unit[label][k] = min(per_unit[label][k], (time.perf_counter() - start) / n)
    finally:
        gc.enable()
    slow = [
        f"{label}: {large * 1e6:.2f} us per unit at {SCALE_SIZES[1]:,}, {small * 1e6:.2f} at {SCALE_SIZES[0]:,}"
        for label, (small, large) in per_unit.items()
        if large >= 2 * small
    ]
    assert not slow, slow
