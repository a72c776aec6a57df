"""The benchmark tracer's f2 boundaries stay on the paths it times.

``perfbench/spans.py`` times the f2 kernels by swapping the names the
page engine and the hit solver import.  A boundary that still exists
but is no longer called reads 0 in every per-layer metric, and no
other check notices; this test runs the traced jobs and requires each
f2 boundary, and ``PageGroup.quotient_basis``, to be crossed.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import sseqlab.cli

ROOT = Path(__file__).resolve().parent.parent


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_jobs_cross_every_f2_boundary(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert sseqlab.cli.main(["--config", str(ROOT / "g2.cfg"), "sweep"]) == 0
        onevar = str(ROOT / "onevar.cfg")
        assert sseqlab.cli.main(["--config", onevar, "hit", "--bound", "15"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    calls = Counter((layer, name) for name, layer, *_ in tracer.spans)
    expected = {
        (layer, name)
        for _module, _path, layer, name in spans.BOUNDARIES
        if layer.startswith("f2.")
    }
    expected.add(("specseq", "specseq.quotient_basis"))
    assert sorted(b for b in expected if calls[b] == 0) == []
