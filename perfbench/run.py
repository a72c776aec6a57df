"""sseqlab benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it times whole blocks
of operations for about S seconds and prints the end-to-end metrics in
host-adjusted seconds (see ``speed_probe`` and ``child_probe``);
with ``--trace 1`` it runs a fixed seeded list of operations untraced,
then twice with layer spans, and prints the per-layer metrics.  The
last stdout line is the JSON result; lines before it starting with
``#`` record the machine.  Every operation's output goes through the
gate in ``workloads.check``; a failed op fails the run.  Details, and
the reason for each workload, are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Cold set-ups, each in a fresh process; their median is setup_s.
SETUP_REPS = 5
# Host-adjusted times read as if the probe took this long: its typical
# time on the 2-vCPU VM the baseline was recorded on.
PROBE_SECONDS = 0.0017  # speed_probe
CHILD_PROBE_SECONDS = 0.090  # child_probe
PROBE_ROWS = [random.Random(i).getrandbits(120) for i in range(120)]
# Probes whose median the traced run reports, beside its raw layer times.
PROBE_REPS = 20
STARTUP_PROBES = 5
# Whole blocks in the traced list: enough work for stable splits while
# untraced + two traced passes stay within one run.
TRACE_BLOCKS = {"cli-default": 2, "jobs-small": 20, "sseq-wide": 3}


def speed_probe() -> float:
    """Seconds taken by a fixed piece of pure Python: the host's current speed.

    The host's speed drifts by up to 2x over seconds to minutes, and CPU
    time drifts with it.  Python code run in this process slows by about
    the same factor, so an in-process op's time divided by the probe's
    time around it is steady.  The probe is the benchmark's own code (an
    F_2 elimination on bit rows and some dict and str work) and never
    changes with sseqlab.
    """
    start = time.perf_counter()
    pivots = {}
    for row in PROBE_ROWS:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    table = {str(i): i * 3 for i in range(3000)}
    sum(table.values())
    return time.perf_counter() - start


def child_probe(env: dict) -> float:
    """Seconds for a bare interpreter (``python -c pass``) to start and stop.

    The host's speed for child processes: interpreter start-up slows
    less than bytecode when the host is busy, and a ``cli-default`` op is
    mostly start-up, so its ops are scaled by this probe and not by
    ``speed_probe``.  It runs in the ops' own environment.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one the probe measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _cpu_seconds(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mib(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def machine_record() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("PYTHON")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Runs and checks operations of one workload, counting attempts and failures."""

    def __init__(self, workload: str, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.in_child = workload == "cli-default"
        self.env = workloads.child_env(SRC, os.environ) if self.in_child else None
        # Nominal probe seconds over the mean probe time around an op scales
        # it.  A child probe costs about half a cli-default op, so it runs
        # after every second op, which keeps a run above 100 ops.
        if self.in_child:
            self.probe, self.probe_seconds = (lambda: child_probe(self.env)), CHILD_PROBE_SECONDS
            self.probe_every = 2
        else:
            self.probe, self.probe_seconds, self.probe_every = speed_probe, PROBE_SECONDS, 1
        self.refs = workloads.load_refs()
        self.attempted = 0
        self.failed = 0

    def run(self, op: workloads.Op, shim_spans: Path | None = None) -> bool:
        self.attempted += 1
        try:
            if shim_spans is not None:
                prefix = (str(Path(__file__).with_name("shim.py")), str(shim_spans))
                ok, output = workloads.run_subprocess(op, self.workdir, self.env, prefix)
            else:
                ok, output = workloads.run_op(op, self.workdir, self.env)
            ok = ok and workloads.check(op, output, self.refs)
        except Exception:  # an op that raises is a failed op; the run goes on
            traceback.print_exc()
            ok = False
        if not ok:
            print(f"# FAILED {op.key}", file=sys.stderr)
            self.failed += 1
        return ok

    def setup(self) -> None:
        """Write and validate every config, then run the warm-up ops."""
        from sseqlab import config

        self.workdir.mkdir(parents=True, exist_ok=True)
        for name in workloads.configs_of(self.workload):
            text = workloads.config_text(name)
            (self.workdir / f"{name}.cfg").write_text(text)
            config.parse_config(text)
        for op in workloads.warmup_ops(self.workload):
            self.run(op)

    def cpu(self) -> float:
        return _cpu_seconds(self.in_child)


def cold_setups(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(host-adjusted, raw) set-up seconds of SETUP_REPS fresh processes.

    Each is the wall time of a whole ``--setup-only`` process, scaled by
    ``child_probe`` like a ``cli-default`` op.  A fresh process pays every
    one-off cost (imports, module-level caches) that a set-up repeated in
    one warm process would hide.
    """
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    env = workloads.child_env(SRC, os.environ)
    adjusted, raw = [], []
    before = child_probe(env)
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True, timeout=120)
        raw.append(time.perf_counter() - start)
        after = child_probe(env)
        adjusted.append(raw[-1] * 2 * CHILD_PROBE_SECONDS / (before + after))
        before = after
    return adjusted, raw


def _summary(wall: list[float], cpu: list[float], setups: list[float], rss: float) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(wall) / sum(wall), "1/s"),
        "op_p50_s": (statistics.median(wall), "s"),
        "op_p90_s": (statistics.quantiles(wall, n=10)[8], "s"),
        "cpu_per_op_s": (sum(cpu) / len(cpu), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def timed_run(runner: Runner, seed: int, seconds: float, record: dict) -> dict:
    """End-to-end metrics over whole blocks, tracing off, in host-adjusted seconds.

    A probe runs after every ``runner.probe_every`` ops.  The ops between
    two probes have their wall and CPU time scaled by the runner's nominal
    probe seconds over the mean of those two probes.  The raw figures go
    to the run record.
    """
    setups, raw_setups = cold_setups(runner.workload, seed)
    runner.setup()
    wall, cpu, raw_wall, raw_cpu, probes, pending = [], [], [], [], [], []
    record["samples"] = []
    source = workloads.blocks(runner.workload, seed)
    before = runner.probe()

    def settle() -> None:
        """Probe, then scale the pending ops by the probes around them."""
        nonlocal before, pending
        after = runner.probe()
        scale = 2 * runner.probe_seconds / (before + after)
        for key, op_wall, op_cpu in pending:
            raw_wall.append(op_wall)
            raw_cpu.append(op_cpu)
            wall.append(op_wall * scale)
            cpu.append(op_cpu * scale)
            record["samples"].append((key, op_wall, scale))
        probes.append(after)
        before, pending = after, []

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(pending) + len(wall) < 2:
        for op in next(source):
            cpu0 = runner.cpu()
            t0 = time.perf_counter()
            runner.run(op)
            pending.append((op.key, time.perf_counter() - t0, runner.cpu() - cpu0))
            if len(pending) == runner.probe_every:
                settle()
    if pending:
        settle()
    rss = _peak_rss_mib(runner.in_child)
    record["raw"] = {k: v for k, (v, _u) in _summary(raw_wall, raw_cpu, raw_setups, rss).items()}
    record["probe_s"] = statistics.median(probes)
    return _summary(wall, cpu, setups, rss)


def _pass(runner: Runner, ops, tracer: spans.Tracer | None) -> tuple[float, float]:
    """One pass over ``ops``; returns (wall, cpu) seconds."""
    cpu0 = runner.cpu()
    start = time.perf_counter()
    if tracer is None:
        for op in ops:
            runner.run(op)
    elif runner.in_child:
        child_spans = runner.workdir / "shim_spans.json"
        for op in ops:
            runner.run(op, shim_spans=child_spans)
            if child_spans.is_file():
                data = json.loads(child_spans.read_text())
                child_spans.unlink()
                tracer.merge(data["spans"], data["counts"])
    else:
        tracer.install()
        try:
            for op in ops:
                runner.run(op)
        finally:
            tracer.uninstall()
    return time.perf_counter() - start, runner.cpu() - cpu0


def startup_probe(env: dict) -> tuple[float, float]:
    """Median wall of a bare interpreter and of ``import sseqlab.cli``, alternated."""
    bare, imported = [], []
    for _ in range(STARTUP_PROBES):
        bare.append(child_probe(env))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sseqlab.cli"], env=env, check=True, timeout=60)
        imported.append(time.perf_counter() - t0)
    return statistics.median(bare), statistics.median(imported)


def traced_run(runner: Runner, seed: int, record: dict) -> tuple[dict, bool]:
    """Per-layer metrics of a fixed seeded op list, plus the tracing overhead.

    The second result is False when the deterministic counts of the two
    traced passes differ: that is an error, not noise.
    """
    runner.setup()
    source = workloads.blocks(runner.workload, seed)
    ops = [op for _ in range(TRACE_BLOCKS[runner.workload]) for op in next(source)]
    wall, cpu = _pass(runner, ops, None)
    tracer = spans.Tracer()
    passes = []
    for _ in range(2):
        tracer.reset()
        traced_wall, _ = _pass(runner, ops, tracer)
        passes.append((traced_wall, tracer.spans, tracer.counts))
    first = spans.deterministic_counts(passes[0][1], passes[0][2])
    second = spans.deterministic_counts(passes[1][1], passes[1][2])
    drift = {k: (first.get(k), second.get(k)) for k in first.keys() | second.keys()
             if first.get(k) != second.get(k)}
    if drift:
        print(f"# ERROR deterministic counts differ between passes: {drift}", file=sys.stderr)
    a, b = (spans.layer_metrics(s, c, len(ops)) for _, s, c in passes)
    # counts agree (checked above); times are the mean of the two passes
    metrics = {k: a[k] if a[k] == b[k] else (a[k] + b[k]) / 2 for k in a}
    env = runner.env or workloads.child_env(SRC, os.environ)
    bare, imported = startup_probe(env)
    metrics.update(
        {
            "host.probe_s": statistics.median(speed_probe() for _ in range(PROBE_REPS)),
            "interp.start_s": bare,
            "import.self_s": imported - bare,
            "trace.overhead_frac": (passes[0][0] + passes[1][0]) / 2 / wall - 1,
            "trace.ops": len(ops),
            "sched.wait_frac": 1 - cpu / wall,
            "fail_frac": runner.failed / runner.attempted,
        }
    )
    record["counts"] = first
    record["count_drift"] = {k: list(v) for k, v in drift.items()}
    record["spans"] = passes[0][1]
    return {k: (v, _unit(k)) for k, v in metrics.items()}, not drift


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up (timed from outside for setup_s)")
    args = parser.parse_args(argv)

    if not (SRC / "sseqlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sseqlab sources under {SRC}")
    sys.dont_write_bytecode = True  # never write under src/
    sys.path.insert(0, str(SRC))
    import sseqlab

    if Path(sseqlab.__file__).resolve().parent != SRC / "sseqlab":
        raise SystemExit(f"perfbench: imported sseqlab from {sseqlab.__file__}, not {SRC}")
    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(args.workload, workdir)
    pin_to_one_cpu()
    if args.setup_only:
        runner.setup()
        return 0 if runner.failed == 0 else 1

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "loadavg_before": os.getloadavg()}
    print("# machine " + json.dumps(record["machine"], sort_keys=True))
    print(f"# loadavg before {record['loadavg_before']}")
    if args.trace:
        metrics, counts_repeat = traced_run(runner, args.seed, record)
    else:
        metrics, counts_repeat = timed_run(runner, args.seed, args.seconds, record), True
    record["loadavg_after"] = os.getloadavg()
    print(f"# loadavg after {record['loadavg_after']}")
    result = {
        "correct": runner.failed == 0 and counts_repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (OUT / f"{workdir.name}.json").write_text(json.dumps(record, separators=(",", ":")) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
