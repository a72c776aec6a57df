"""Acceptance suite: one test per criterion, one printed line each.

F_2 arithmetic is exact, so every criterion is exact equality; there
are no tolerances to calibrate.
"""

import contextlib
import io
import itertools
import json
import math
import random
from pathlib import Path

from sseqlab.cli import main as cli_main
from sseqlab.f2 import (
    F2Matrix,
    F2Vector,
    image_basis,
    in_span,
    kernel_basis,
    rank,
    solve,
)
from sseqlab.gauge import (
    G2_BASE,
    g2_fibration_spec,
    g2_homotopy_table,
    gauge_report,
)
from sseqlab.graded import poincare_dims
from sseqlab.homotopy import FGAbelianGroup, fibre_truncation_dims, loopspace_shift
from sseqlab.fibration import admissible_differentials, build_e2, run_to_einfty
from sseqlab.specseq import resolve_assignment, total_dims
from sseqlab.steenrod import hit_quotient, sq, table_from_entries
from sseqlab.graded import Monomial, PolyAlgebraSpec, Polynomial

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def _criterion(num: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_criterion_1_base_algebra_dims():
    got = poincare_dims(G2_BASE, 10)
    _criterion(
        1,
        "base-algebra dims 0..10 are [1,0,0,0,1,0,1,1,1,0,1]",
        got == [1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1],
    )


def test_criterion_2_fibre_truncation():
    ok = True
    pi8_options = [
        FGAbelianGroup.cyclic(2),
        FGAbelianGroup.cyclic(4),
        FGAbelianGroup.cyclic(8),
        FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(2),
        FGAbelianGroup.free(1) + FGAbelianGroup.cyclic(2),
        FGAbelianGroup.cyclic(2) + FGAbelianGroup.cyclic(9),
    ]
    reference_low = None
    for pi6_order in (3, 9, 27, 81):
        for pi8 in pi8_options:
            table = g2_homotopy_table(FGAbelianGroup.cyclic(pi6_order), pi8)
            dims = fibre_truncation_dims(loopspace_shift(table, 3))
            low = [(j, dims.entry(j).value, dims.entry(j).exact) for j in range(5)]
            if reference_low is None:
                reference_low = low
            ok &= low == reference_low
            ok &= low == [(0, 1, True)] + [(j, 0, True) for j in range(1, 5)]
            ok &= dims.entry(5).value >= 1
    _criterion(
        2,
        "fibre truncation gives 1,0,0,0,0 and a nonzero degree 5 for every "
        "placeholder structure",
        ok,
    )


def test_criterion_3_only_d6_mechanized():
    spec = g2_fibration_spec()
    arrows = set(admissible_differentials(spec))
    ok = arrows == {(6, (0, 5), (6, 0)), (6, (4, 5), (10, 0))}
    code, out, _ = run_cli("--config", str(ROOT / "g2.cfg"), "constraints")
    ok &= code == 0
    csv_part = out.split("# ==== constraints_log.txt ====")[0]
    rows = [
        line.split(",")
        for line in csv_part.splitlines()
        if line and not line.startswith(("#", "page,"))
    ]
    for source in (("0", "5"), ("4", "5")):
        source_rows = {row[0]: row for row in rows if (row[1], row[2]) == source}
        # reason codes for every page 2..5 and the whole range r >= 7
        for r in ("2", "3", "4", "5"):
            ok &= source_rows[r][5] == "rejected" and source_rows[r][6] != ""
        ok &= source_rows[">=7"][6] == "negative_fibre_degree"
        ok &= source_rows["6"][5] == "admissible"
    _criterion(
        3,
        "admissible arrows are exactly the two transgressions and the log "
        "carries reason codes for 2..5 and >=7",
        ok,
    )


def test_criterion_4_collapse_branch():
    spec = g2_fibration_spec()
    page, _ = run_to_einfty(spec, resolve_assignment(spec, {"eps": 0}))
    start = build_e2(spec)
    ok = True
    for s in range(11):
        for t in range(11 - s):
            ok &= page.dim(s, t) == start.dim(s, t)
    _criterion(4, "zero scalar collapses: limit equals start bidegree-wise", ok)


def test_criterion_5_nontrivial_branch():
    spec = g2_fibration_spec()
    page, report = run_to_einfty(spec, resolve_assignment(spec, {"eps": 1}))
    start = build_e2(spec)
    fixture = json.loads((DATA / "einfty_nontrivial_branch.json").read_text())
    ok = total_dims(report, 10) == fixture["total_dims"]
    ok &= {
        f"{s},{t}": page.dim(s, t) for s, t in page.reported_bidegrees()
    } == fixture["bidegree_dims"]
    removed = []
    for (s, t), labels in sorted(start.groups.items()):
        lost = start.dim(s, t) - page.dim(s, t)
        if lost:
            removed.extend(spec.format_label(lab) for lab in labels)
    ok &= sorted(removed) == sorted(["x_6", "u_5", "x_4*x_6", "x_4*u_5"])
    _criterion(
        5,
        "nontrivial scalar removes exactly x_6, u_5, x_4*x_6, x_4*u_5 "
        "(dims match the hand-executed fixture)",
        ok,
    )


def test_criterion_6_epsilon_rules():
    rng = random.Random(424242)
    ok = True
    ks = [rng.randint(-10_000, 10_000) for _ in range(193)] + [-1, -2, -4, -7, 0, 4, 100]
    for k in ks:
        ok &= gauge_report(k).payload() == gauge_report(k % 4).payload()
    for k in ks:
        if k % 4 == 0:
            report = gauge_report(k)
            ok &= len(report.branches) == 1
            ok &= report.branches[0].values == (("eps", 0),)
    _criterion(
        6,
        "200 random bundle classes: reports depend only on k mod 4 and "
        "multiples of 4 give the single zero branch",
        ok,
    )


def test_criterion_7_linear_algebra_soundness():
    rng = random.Random(20240817)
    ok = True
    for _ in range(10_000):
        rows = rng.randint(1, 16)
        cols = rng.randint(1, 16)
        m = F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        kernel = kernel_basis(m)
        ok &= rank(m) + len(kernel) == cols
        ok &= all(m.apply(v).is_zero() for v in kernel)
        seed = F2Vector(cols, rng.getrandbits(cols))
        b = m.apply(seed)
        x = solve(m, b)
        ok &= x is not None and m.apply(x) == b
        image = image_basis(m)
        ok &= len(image) == rank(m)
        ok &= all(in_span(image, m.column(j)) for j in range(cols))
        if not ok:
            break
    for _ in range(150):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 12)
        m = F2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        enumerated = set()
        column_bits = [m.column(j).bits for j in range(cols)]
        for picks in itertools.product((0, 1), repeat=cols):
            acc = 0
            for pick, bits in zip(picks, column_bits):
                if pick:
                    acc ^= bits
            enumerated.add(acc)
        basis = image_basis(m)
        spanned = set()
        for picks in itertools.product((0, 1), repeat=len(basis)):
            acc = 0
            for pick, v in zip(picks, basis):
                if pick:
                    acc ^= v.bits
            spanned.add(acc)
        ok &= spanned == enumerated
        if not ok:
            break
    _criterion(
        7,
        "10,000 random matrices satisfy rank-nullity, solve-substitution and "
        "image-span; image span equals exhaustive enumeration for cols <= 12",
        ok,
    )


def test_criterion_8_one_variable_oracle():
    one_var = PolyAlgebraSpec.from_pairs([("t", 1)])
    table = table_from_entries(one_var, {})
    ok = True
    for n in range(0, 33):
        for i in range(0, 33 - n):
            got = sq(table, i, Polynomial.of(Monomial((n,))))
            want = (
                Polynomial.of(Monomial((n + i,)))
                if math.comb(n, i) % 2
                else Polynomial.zero()
            )
            ok &= got == want
    report = hit_quotient(table, 31)
    ok &= report.non_hit_degrees() == [0, 1, 3, 7, 15, 31]
    brute = [
        d
        for d in range(32)
        if not any(math.comb(d - i, i) % 2 for i in range(1, d // 2 + 1))
    ]
    ok &= report.non_hit_degrees() == brute
    _criterion(
        8,
        "one-variable squares match mod-2 binomials for n+i <= 32 and the "
        "non-hit degrees are 0,1,3,7,15,31",
        ok,
    )


def test_criterion_9_cli_determinism():
    commands = [
        ("constraints",),
        ("e2",),
        ("einfty", "--set", "eps=0"),
        ("einfty", "--set", "eps=1"),
        ("sweep",),
        ("gauge", "--k", "0"),
        ("gauge", "--k", "1"),
        ("gauge", "--k", "2"),
        ("uct",),
        ("hit", "--bound", "8"),  # validation failure, still byte-deterministic
        ("chart", "--page", "6", "--format", "svg"),
        ("chart", "--page", "6", "--format", "tikz"),
    ]
    ok = True
    for command in commands:
        first = run_cli("--config", str(ROOT / "g2.cfg"), *command)
        second = run_cli("--config", str(ROOT / "g2.cfg"), *command)
        ok &= first == second
    _criterion(
        9,
        "every CLI command is byte-identical across two consecutive runs on "
        "the shipped fixture",
        ok,
    )
