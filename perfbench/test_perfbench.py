"""Tests of the benchmark's own code: inputs, span arithmetic and the gate.

    python3 -m pytest perfbench/test_perfbench.py
"""

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402


def _take(workload, seed, n=20):
    source = workloads.blocks(workload, seed)
    return [next(source) for _ in range(n)]


def test_inputs_are_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert _take(workload, 7) == _take(workload, 7)
    assert _take("jobs-small", 7) != _take("jobs-small", 8)
    assert _take("cli-default", 7) != _take("cli-default", 8)


def test_every_block_holds_each_operation_kind_once():
    for workload, kinds in (("cli-default", 8), ("jobs-small", 7), ("sseq-wide", 3)):
        for ops in _take(workload, 3):
            if workload in ("cli-default", "jobs-small"):
                distinct = {op.argv[0] for op in ops}
            else:
                distinct = set(ops)
            assert len(ops) == len(distinct) == kinds


def test_every_drawable_operation_has_a_reference():
    refs = workloads.load_refs()
    for workload in workloads.WORKLOADS:
        ops = [op for ops in _take(workload, 11, 200) for op in ops]
        ops += workloads.warmup_ops(workload)
        assert all(op.key in refs for op in ops), workload


# root [0, 10] has children a [1, 4] and b [5, 9]; a has child g [2, 3]
SPAN_TREE = [
    ("cli.main", "cli", 0.0, 10.0, -1),
    ("config.parse_config", "config", 1.0, 4.0, 0),
    ("homotopy.loopspace_shift", "homotopy", 2.0, 3.0, 1),
    ("specseq.turn_page", "specseq", 5.0, 9.0, 0),
]


def test_self_time_is_duration_minus_child_coverage():
    assert spans.self_times(SPAN_TREE) == [3.0, 2.0, 1.0, 4.0]
    assert spans.inclusive_time(SPAN_TREE, {"config.parse_config", "homotopy.loopspace_shift"}) == 3.0
    metrics = spans.layer_metrics(SPAN_TREE, Counter(), ops=2)
    assert metrics["config.self_s"] == 1.0
    assert metrics["homotopy.self_s"] == 0.5
    assert metrics["specseq.turn_self_s"] == 2.0
    assert metrics["cli.main_self_s"] == 1.5
    assert metrics["config.calls"] == 1


def test_tracer_records_parents_and_restores_attributes():
    tracer = spans.Tracer()
    inner = tracer.span("f2.row_reduce", "f2.specseq", lambda vs: list(vs))
    outer = tracer.span("specseq.quotient_basis", "specseq", lambda: inner([1, 2]))
    outer()
    (name0, _, s0, e0, p0), (name1, _, s1, e1, p1) = tracer.spans
    assert (name0, p0, name1, p1) == ("specseq.quotient_basis", -1, "f2.row_reduce", 0)
    assert s0 <= s1 <= e1 <= e0
    assert tracer.counts["f2.specseq.rows_in"] == 2

    import sseqlab.specseq

    original = sseqlab.specseq.kernel_basis
    tracer.install()
    assert sseqlab.specseq.kernel_basis is not original
    tracer.uninstall()
    assert sseqlab.specseq.kernel_basis is original


def test_tracer_patches_every_boundary():
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(owner, attr) for owner, attr, _ in tracer._patches}
        assert len(patched) == len(spans.BOUNDARIES) + len(spans.COUNTED)
    finally:
        tracer.uninstall()


def test_tracer_refuses_a_missing_boundary(monkeypatch):
    import sseqlab.specseq

    monkeypatch.delattr(sseqlab.specseq, "kernel_basis")
    tracer = spans.Tracer()
    try:
        tracer.install()
    except AttributeError as error:
        assert "sseqlab.specseq.kernel_basis" in str(error)
    else:
        raise AssertionError("install() patched around a missing boundary")
    assert not tracer._patches
    import sseqlab.cli

    assert sseqlab.cli.main.__name__ == "main"  # patches made before the failure are undone


def _corrupt(output: bytes, section: str, column: int) -> bytes:
    lines = output.decode().splitlines(keepends=True)
    row = lines.index(f"# ==== {section} ====\n") + 2
    fields = lines[row].rstrip("\n").split(",")
    fields[column] = str(int(fields[column]) + 1)
    lines[row] = ",".join(fields) + "\n"
    return "".join(lines).encode()


def test_gate_rejects_a_corrupted_answer(tmp_path):
    refs = workloads.load_refs()
    cases = [
        (Op("g2-12", ("sweep",)), "sweep.csv", 5),
        (Op("g2-59", ("sweep",)), "sweep.csv", 5),
        (Op("onevar", ("hit", "--bound", "31")), "hit.csv", 1),
    ]
    for op, section, column in cases:
        (tmp_path / f"{op.config}.cfg").write_text(workloads.config_text(op.config))
        ok, output = workloads.run_op(op, tmp_path)
        assert ok and workloads.check(op, output, refs)
        bad = _corrupt(output, section, column)
        assert not workloads.check(op, bad, refs)
        # with its hash re-recorded, the oracle alone still rejects it
        assert not workloads.check(op, bad, {op.key: workloads.digest(bad)})


def test_oracles_match_known_series():
    assert workloads.series((4, 7), 12) == [1, 0, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1, 1]
    header = ["degree", "total_dim", "hit_dim", "quotient_dim"]
    # QP_1 in degree 2 must vanish (alpha(3) = 2 > 1)
    assert not workloads.hit_oracle([header, ["2", "1", "0", "1"]], 1)
    assert workloads.hit_oracle([header, ["3", "1", "0", "1"]], 1)
