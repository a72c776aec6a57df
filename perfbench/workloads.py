"""Workload inputs, the operations that run them, and the output gate.

An operation is one sseqlab command on one generated config.  Inputs
come in blocks: a block holds every kind of operation of its workload
once, in an order and with arguments drawn from the seed, so every
whole block costs about the same whatever the seed.  The program only
sees the generated config files and arguments.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import subprocess
import sys
from math import comb
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"

WORKLOADS = ("cli-default", "jobs-small", "sseq-wide")

JOBS_WINDOWS = range(10, 25)
WIDE_WINDOWS = (59, 60, 61)
GAUGE_KS = range(8)
CHART_PAGES = range(2, 8)

# The default job (the shipped g2.cfg) with the window as a parameter.
G2_TEMPLATE = """\
degree_bound = {window}

[base]
x_4 = 4
x_6 = 6
x_7 = 7

[homotopy]
3 = Z ; Mimura-Toda
4 = 0 ; Mimura-Toda
5 = 0 ; Mimura-Toda
6 = Z/3 ; Mimura-Toda (3-torsion; order configurable)
7 = 0 ; Mimura-Toda
8 = contains Z/2 ; Mimura-Toda (contains 2-torsion)

[fibre]
derive = homotopy

[unknowns]
eps = d6 u_5 -> x_6

[epsilon]
modulus = 4
class = 0 : 0
class = 2
class = 1 3
"""


def _degree_one_text(names) -> str:
    """Polynomial algebra on degree-1 classes; their squares are forced."""
    lines = ["degree_bound = 31", "", "[base]"]
    lines += [f"{n} = 1" for n in names]
    lines += ["", "[steenrod]"]
    for n in names:
        lines += [f"sq0 {n} = {n}", f"sq1 {n} = {n}^2"]
    return "\n".join(lines) + "\n"


# Degree-1 variables of each hit config, for the Wood oracle.
HIT_VARIABLES = {"onevar": 1}


def config_text(name: str) -> str:
    if name.startswith("g2-"):
        return G2_TEMPLATE.format(window=int(name[3:]))
    if name == "onevar":
        return _degree_one_text(["t"])
    raise ValueError(f"unknown config {name!r}")


class Op(NamedTuple):
    config: str
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join((self.config, *self.argv))


def _g2_commands(rng: random.Random, windows) -> list[Op]:
    """Each README command on the g2 job once, with seeded arguments."""
    commands = [
        ("constraints",),
        ("e2",),
        ("einfty", "--set", f"eps={rng.randrange(2)}"),
        ("sweep",),
        ("gauge", "--k", str(rng.choice(GAUGE_KS))),
        ("uct",),
        ("chart", "--page", str(rng.choice(CHART_PAGES)), "--format", rng.choice(("svg", "tikz"))),
    ]
    return [Op(f"g2-{rng.choice(windows)}", c) for c in commands]


def block(workload: str, rng: random.Random) -> list[Op]:
    if workload == "cli-default":
        ops = _g2_commands(rng, (10,)) + [Op("onevar", ("hit", "--bound", "31"))]
    elif workload == "jobs-small":
        ops = _g2_commands(rng, JOBS_WINDOWS)
    elif workload == "sseq-wide":
        ops = [Op(f"g2-{n}", ("sweep",)) for n in WIDE_WINDOWS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def blocks(workload: str, seed: int):
    """Endless seeded sequence of blocks; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield block(workload, rng)


def configs_of(workload: str) -> list[str]:
    """Every config a workload's operations can name."""
    return {
        "cli-default": ["g2-10", "onevar"],
        "jobs-small": [f"g2-{n}" for n in JOBS_WINDOWS],
        "sseq-wide": ["g2-20"] + [f"g2-{n}" for n in WIDE_WINDOWS],
    }[workload]


def warmup_ops(workload: str) -> list[Op]:
    """Small operations run during set-up, so imports and lazy state are ready."""
    if workload == "cli-default":
        return [Op("g2-10", ("constraints",))]
    if workload == "jobs-small":
        return _g2_commands(random.Random(0), (10,))
    return [Op("g2-20", ("sweep",))]


# ------------------------------------------------------------------ runners


def child_env(src: Path, base_env) -> dict:
    """Environment of a CLI child: absolute sources, no bytecode writes."""
    env = {k: v for k, v in base_env.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_subprocess(op: Op, workdir: Path, env: dict, prefix=("-m", "sseqlab")) -> tuple[bool, bytes]:
    """One fresh ``python -m sseqlab`` process, as a user runs the tool."""
    proc = subprocess.run(
        [sys.executable, *prefix, "--config", f"{op.config}.cfg", *op.argv],
        cwd=workdir,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=120,
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return proc.returncode == 0, proc.stdout


def run_in_process(op: Op, workdir: Path) -> tuple[bool, bytes]:
    """The same command through ``sseqlab.cli.main`` with stdout captured."""
    import sseqlab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sseqlab.cli.main(["--config", str(workdir / f"{op.config}.cfg"), *op.argv])
    return code == 0, out.getvalue().encode()


# ------------------------------------------------------------------ gate


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())


def _sections(text: str) -> dict:
    out, name = {}, None
    for line in text.splitlines():
        if line.startswith("# ==== ") and line.endswith(" ===="):
            name = line[7:-5]
            out[name] = []
        elif name is not None:
            out[name].append(line)
    return out


def series(degrees, top: int) -> list[int]:
    """Hilbert series of a polynomial algebra, coefficients 0..top."""
    coeffs = [1] + [0] * top
    for d in degrees:
        for j in range(d, top + 1):
            coeffs[j] += coeffs[j - d]
    return coeffs


def sweep_oracle(rows: list[list[str]]) -> bool:
    """Totals of the g2 job from series alone, sharing no code with the engine.

    eps = 1 transgresses u_5 onto x_6, leaving F_2[x_4, x_7]; eps = 0
    kills nothing, leaving F_2[x_4, x_6, x_7] (x) {1, u_5}.
    """
    top = len(rows[0]) - 2
    p = series((4, 6, 7), top)
    expect = {
        "1": series((4, 7), top),
        "0": [p[j] + (p[j - 5] if j >= 5 else 0) for j in range(top + 1)],
    }
    got = {row[0]: [int(x) for x in row[1:]] for row in rows[1:]}
    return got == expect


def hit_oracle(rows: list[list[str]], variables: int) -> bool:
    """Degree-1 Peterson problem: monomial count, and Wood's vanishing theorem.

    total_dim = C(d + k - 1, k - 1); the quotient vanishes whenever the
    binary digit sum of d + k exceeds k (Wood 1989).
    """
    k = variables
    for row in rows[1:]:
        d, total, hit, quotient = (int(x) for x in row[:4])
        if total != comb(d + k - 1, k - 1) or hit + quotient != total:
            return False
        if bin(d + k).count("1") > k and quotient != 0:
            return False
    return True


def check(op: Op, output: bytes, refs: dict) -> bool:
    """Output gate: sha256 against the recorded reference, then the oracles."""
    if digest(output) != refs[op.key]:
        return False
    sections = _sections(output.decode())
    if op.argv[0] == "sweep":
        return sweep_oracle(list(csv.reader(sections["sweep.csv"])))
    if op.argv[0] == "hit":
        return hit_oracle(list(csv.reader(sections["hit.csv"])), HIT_VARIABLES[op.config])
    return True


def all_ops() -> list[Op]:
    """Every operation any workload can draw, for recording references."""
    ops = [Op("onevar", ("hit", "--bound", "31"))]
    for n in JOBS_WINDOWS:
        g2 = f"g2-{n}"
        ops += [Op(g2, ("constraints",)), Op(g2, ("e2",)), Op(g2, ("sweep",)), Op(g2, ("uct",))]
        ops += [Op(g2, ("einfty", "--set", f"eps={e}")) for e in (0, 1)]
        ops += [Op(g2, ("gauge", "--k", str(k))) for k in GAUGE_KS]
        ops += [
            Op(g2, ("chart", "--page", str(p), "--format", f))
            for p in CHART_PAGES
            for f in ("svg", "tikz")
        ]
    ops += [Op(f"g2-{n}", ("sweep",)) for n in WIDE_WINDOWS]
    return ops


def run_op(op: Op, workdir: Path, env=None) -> tuple[bool, bytes]:
    """Run one operation: as a child process when ``env`` is given."""
    if env is not None:
        return run_subprocess(op, workdir, env)
    return run_in_process(op, workdir)
