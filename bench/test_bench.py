"""Self-tests of the benchmark: deterministic inputs, and a tiny run of every
workload that passes all output checks, traced and untraced.

    python3 -m pytest -q bench
"""

import json

import pytest

import corpus
import run
import workloads


def test_scale_corpus_is_deterministic_per_seed():
    sl = run.load_shadowlab()
    shapes = (("gen-dag", 20), ("diamond-chain", 30), ("loop-chain", 30), ("ring", 25))
    first = corpus.build_scale_corpus(5, sl.gen, sl.mir, shapes)
    again = corpus.build_scale_corpus(5, sl.gen, sl.mir, shapes)
    other = corpus.build_scale_corpus(6, sl.gen, sl.mir, shapes)
    assert [(p.text, p.describe()) for p in first] == [(p.text, p.describe()) for p in again]
    assert [p.text for p in first] != [p.text for p in other]
    # sizes are fixed by the shape; the seed varies the content
    assert [(p.functions, p.blocks) for p in first[1:]] == [(p.functions, p.blocks) for p in other[1:]]
    assert [p.max_blocks for p in first] == [4, 91, 61, 3]


def test_long_programs_and_inputs_are_deterministic_per_seed():
    assert corpus.build_long_programs(3) == corpus.build_long_programs(3)
    assert corpus.build_long_programs(3) != corpus.build_long_programs(4)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_every_output_check(name, traced):
    result = run.measure(name, seed=11, seconds=0.01, traced=traced, tiny=True)
    assert result["correct"], result["failures"]
    assert result["attempted"] >= 1
    if name == "compile-scale":
        # the one over-cap program fails with the known PlanError, every pass
        assert {f["item"] for f in result["failures"]} == {"diamond-chain-400"}
        assert all(f["known_defect"] for f in result["failures"])
        assert result["failed"] == result["attempted"] // len(result["input_size"]["programs"])
    else:
        assert result["failures"] == [] and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer" if traced else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared)
    if traced:
        assert metrics["trace.spans"]["value"] > 0
        if name == "compile-scale":
            assert metrics["transform.strip_s"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 19) == (None, None)
    assert run.tail(list(range(20)))[0] == 50.0
    assert run.tail(list(range(1000)))[0] == 99.0
