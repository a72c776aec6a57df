"""Every operation the benchmark can draw still prints its recorded output.

``perfbench/refs.json`` holds the sha256 of each operation's output, and
``perfbench/workloads.py`` runs an operation in-process and gates it
(digest, then the sweep and hit oracles).  A speed-up that changes any
artifact fails here, not only in the benchmark run.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_recorded_operation_replays_to_its_digest(tmp_path, monkeypatch):
    workloads = load_workloads()
    monkeypatch.chdir(tmp_path)  # a command that writes files writes them here
    refs = workloads.load_refs()
    ops = workloads.all_ops()
    assert sorted(op.key for op in ops) == sorted(refs)
    for config in {op.config for op in ops}:
        (tmp_path / f"{config}.cfg").write_text(workloads.config_text(config))
    failed = []
    for op in ops:
        ok, output = workloads.run_op(op, tmp_path)
        if not (ok and workloads.check(op, output, refs)):
            failed.append(op.key)
    assert (len(ops), failed) == (394, [])
