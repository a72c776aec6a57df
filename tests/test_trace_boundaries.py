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


def test_every_command_crosses_its_cli_boundary(capsys):
    # main dispatches through a table built once per process; an entry that
    # captured a cmd_* function at import would run past the tracer's patch
    spans = load_spans()
    g2, onevar = str(ROOT / "g2.cfg"), str(ROOT / "onevar.cfg")
    commands = {
        "constraints": [g2, "constraints"],
        "e2": [g2, "e2"],
        "einfty": [g2, "einfty", "--set", "eps=1"],
        "sweep": [g2, "sweep"],
        "gauge": [g2, "gauge", "--k", "1"],
        "uct": [g2, "uct"],
        "hit": [onevar, "hit", "--bound", "7"],
        "chart": [g2, "chart", "--page", "6", "--format", "svg"],
    }
    assert {f"cli.cmd_{c}" for c in commands} == {
        name for *_, name in spans.BOUNDARIES if name.startswith("cli.cmd_")
    }
    for command, (config, *argv) in commands.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert sseqlab.cli.main(["--config", config, *argv]) == 0
        finally:
            tracer.uninstall()
        calls = Counter(name for name, *_ in tracer.spans if name.startswith("cli."))
        assert calls == {"cli.main": 1, f"cli.cmd_{command}": 1}, command
    capsys.readouterr()
