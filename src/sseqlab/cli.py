"""Command-line interface: config ingestion, dispatch, report emission.

Every artifact is plain text, CSV, SVG, or TikZ with no timestamps;
re-running a command on the same inputs is byte-identical.  A command
returns its artifacts, name to text, and ``main`` writes them only after
it succeeds, so exit 1 or 2 writes nothing: no stdout, no file, not even
the ``--out`` directory (only a failed write can leave the artifacts
written before it).  Exit codes: 0 success, 1 validation error, 2
internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import _deferred
from .config import WorkbenchConfig, load_config
from .errors import InvariantBreach, SseqlabError, ValidationError
from .fibration import ADMISSIBLE, BASE_ZERO, FibrationSpec, build_e2, run_to_einfty
from .graded import format_monomial
from .homotopy import FIBRE_TOP, fibre_truncation_dims, hurewicz_homology, loopspace_shift

# only the command that calls one of these loads its module
resolve_assignment = _deferred("specseq", "resolve_assignment")
sweep_unknowns = _deferred("specseq", "sweep_unknowns")
total_dims = _deferred("specseq", "total_dims")
build_chart = _deferred("chart", "build_chart")
render = _deferred("chart", "render")
gauge_report = _deferred("gauge", "gauge_report")
validate_table = _deferred("steenrod", "validate_table")
format_violations = _deferred("steenrod", "format_violations")
hit_quotient = _deferred("steenrod", "hit_quotient")


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 (2 is reserved for breaches)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


Artifacts = dict[str, str]  # artifact name -> text, in output order


def _write(out_dir: Optional[str], artifacts: Artifacts) -> None:
    """Artifacts as files under ``out_dir``, or on stdout under ``# ==== name ====`` headers."""
    if not out_dir:
        for name, text in artifacts.items():
            sys.stdout.write(f"# ==== {name} ====\n{text}")
        return
    path = Path(out_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            path = Path(out_dir) / name
            path.write_text(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _csv(rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


# ------------------------------------------------------------- constraints


def _arrow_table(spec: FibrationSpec) -> tuple[list[list[object]], str]:
    """The constraints.csv rows and the constraints_log.txt text, from one walk of the arrows.

    A row admits or rejects one (page, source) pair with a machine-checkable
    reason; the negative-fibre row of each source is labelled ``>=`` its first page.
    """
    rows = [["page", "source_s", "source_t", "target_s", "target_t", "status", "reason"]]
    lines = [
        f"admissible-differential analysis, total degree <= {spec.degree_bound}",
        "base-row classes are permanent cycles: every differential out of "
        "fibre degree 0 lands in negative fibre degree",
    ]
    for t in sorted(spec.unproven_degrees):
        lines.append(f"fibre degree {t} is only >=0: no source there is listed, "
                     "and arrows into it stay admissible")
    lines.append("")
    admitted = []
    current = None
    for r, (s, t), target, verdict in spec.arrows:
        if (s, t) != current:
            current = (s, t)
            lines.append(f"source ({s},{t}):")
        if target is None:
            rows.append([f">={r}", s, t, "", "", "rejected", verdict])
            lines.append(f"  r>={r}: negative fibre degree, no target")
            continue
        ts, tt = target
        if verdict == ADMISSIBLE:
            rows.append([r, s, t, ts, tt, "admissible", ""])
            lines.append(f"  r={r}: target ({ts},{tt}) admissible")
            admitted.append(f"  d_{r}: ({s},{t}) -> ({ts},{tt})")
        else:
            rows.append([r, s, t, ts, tt, "rejected", verdict])
            zero = f"base degree {ts}" if verdict == BASE_ZERO else f"fibre degree {tt}"
            lines.append(f"  r={r}: target ({ts},{tt}) vanishes, {zero} is zero")
    lines += ["", f"admissible arrows: {len(admitted)}", *admitted]
    return rows, "\n".join(lines) + "\n"


def cmd_constraints(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    rows, log = _arrow_table(cfg.fibration_spec())
    return {"constraints.csv": _csv(rows), "constraints_log.txt": log}


# ------------------------------------------------------------- e2 / einfty


def cmd_e2(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    spec = cfg.fibration_spec()
    basis = build_e2(spec)
    rows = [["s", "t", "dim", "labels"]]
    for s, t in basis.bidegrees():
        labels = " ".join(spec.format_label(lab) for lab in basis.labels(s, t))
        rows.append([s, t, basis.dim(s, t), labels])
    artifacts = {"e2.csv": _csv(rows)}
    unproven = sorted(t for t in spec.unproven_degrees if t <= spec.degree_bound)
    if unproven:
        lines = [f"starting page, total degree <= {spec.degree_bound}"]
        for t in unproven:
            lines.append(f"fibre degree {t} is only >=0: e2.csv lists no class there, "
                         "yet the degree is unproven, not zero")
        artifacts["e2_log.txt"] = "\n".join(lines) + "\n"
    return artifacts


def _parse_bit_flags(flag: str, noun: str, pairs: list[str]) -> dict[str, int]:
    """``NAME=BIT`` pairs of a repeatable flag, by name."""
    values: dict[str, int] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or value not in ("0", "1"):
            raise ValidationError(f"{flag} expects {noun}=0 or {noun}=1, got {pair!r}")
        if name in values:
            raise ValidationError(f"{flag} gives {noun} {name!r} twice")
        values[name] = int(value)
    return values


def cmd_einfty(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    spec = cfg.fibration_spec()
    values = _parse_bit_flags("--set", "name", args.set)
    assignment = resolve_assignment(spec, values)
    page, report = run_to_einfty(spec, assignment)
    rows = [["s", "t", "dim", "survivors"]]
    for s, t in page.reported_bidegrees():
        rows.append([s, t, page.dim(s, t), " ".join(page.describe(s, t))])
    totals = [["degree", "dim"], *enumerate(total_dims(report, spec.degree_bound))]
    lines = [f"limit page (r = {page.r}) for " + ", ".join(
        f"{name}={value}" for name, value in sorted(values.items())
    )]
    if page.unevaluated:
        lines.append("differentials not evaluated (target beyond the window):")
        for r, (s, t), (ts, tt) in page.unevaluated:
            lines.append(f"  d_{r}: ({s},{t}) -> ({ts},{tt})")
    else:
        lines.append("all admissible differentials evaluated inside the window")
    return {
        "einfty.csv": _csv(rows),
        "einfty_totals.csv": _csv(totals),
        "einfty_log.txt": "\n".join(lines) + "\n",
    }


def cmd_sweep(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    spec = cfg.fibration_spec()
    names = list(spec.unknown_names())
    rows = [names + [f"deg{j}" for j in range(spec.degree_bound + 1)]]
    for key, report in sweep_unknowns(spec).items():
        values = [value for _name, value in key]
        rows.append(values + total_dims(report, spec.degree_bound))
    return {"sweep.csv": _csv(rows)}


# ------------------------------------------------------------- gauge


def cmd_gauge(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    if cfg.epsilon_rule is None:
        raise ValidationError("the gauge command needs an epsilon section")
    parsed = _parse_bit_flags("--epsilon", "label", args.epsilon)
    spec = cfg.fibration_spec()
    report = gauge_report(args.k, parsed, rule=cfg.epsilon_rule, spec=spec)
    header = ["k", "class", "branch"] + [
        name for name, _ in report.branches[0].values
    ] + [f"deg{j}" for j in range(spec.degree_bound + 1)]
    rows = [header]
    for index, branch in enumerate(report.branches):
        rows.append(
            [report.k, report.epsilon_label, index]
            + [value for _name, value in branch.values]
            + list(branch.total_dims)
        )
    lines = [
        f"bundle class k = {report.k}",
        f"residue class: {report.epsilon_label} (mod {cfg.epsilon_rule.modulus})",
        (
            f"scalar proved: eps = {report.epsilon_known}"
            if report.epsilon_known is not None
            else "scalar not proved for this class"
        ),
        "",
    ]
    lines.extend(report.notes)
    lines.append("")
    lines.append("admissible differentials on the tracked module:")
    for r, (s, t), (ts, tt) in report.admissible:
        lines.append(f"  d_{r}: ({s},{t}) -> ({ts},{tt})")
    lines.append("")
    lines.append(_arrow_table(spec)[1])
    return {"gauge_dims.csv": _csv(rows), "gauge_log.txt": "\n".join(lines)}


# ------------------------------------------------------------- uct


def cmd_uct(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    if cfg.homotopy is None:
        raise ValidationError("the uct command needs a homotopy section")
    rows = [["step", "degree", "value", "provenance"]]
    shifted = loopspace_shift(cfg.homotopy, 3)
    homology = hurewicz_homology(shifted, FIBRE_TOP)
    for step, entries in (
        ("input", cfg.homotopy.items()),
        ("shifted", shifted.items()),
        ("homology", sorted(homology.items())),
    ):
        for degree, entry in entries:
            rows.append([step, degree, str(entry), entry.citation])
    dims = fibre_truncation_dims(shifted)
    for degree, entry in dims.items():
        provenance = (
            f"ext of homology degree {degree - 1} plus hom of degree {degree}"
            if degree else "unit class of a path-connected fibre"
        )
        rows.append(["cohomology_dim", degree, str(entry), provenance])
    return {"uct.csv": _csv(rows)}


# ------------------------------------------------------------- hit


def cmd_hit(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    if cfg.steenrod is None:
        raise ValidationError("the hit command needs a steenrod section")
    violations = validate_table(cfg.steenrod)
    if violations:
        raise ValidationError(
            "squaring table is invalid:\n" + format_violations(violations)
        )
    report = hit_quotient(cfg.steenrod, args.bound)
    rows = [["degree", "total_dim", "hit_dim", "quotient_dim", "representatives"]]
    for row in report.rows:
        reps = " ".join(format_monomial(cfg.base, m) for m in row.representatives)
        rows.append([row.degree, row.total_dim, row.hit_dim, row.quotient_dim, reps])
    return {"hit.csv": _csv(rows)}


# ------------------------------------------------------------- chart


def cmd_chart(cfg: WorkbenchConfig, args: argparse.Namespace) -> Artifacts:
    chart = build_chart(cfg.fibration_spec(), args.page)
    return {f"chart_p{args.page}.{args.format}": render(chart, args.format)}


# ------------------------------------------------------------- dispatch


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sseqlab", description=__doc__)
    parser.add_argument("--config", default="g2.cfg", help="configuration file")
    parser.add_argument("--out", default=None, help="artifact output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("constraints", help="admissible-differential table and proof log")
    sub.add_parser("e2", help="starting-page basis per bidegree")
    einfty = sub.add_parser("einfty", help="limit page for a resolved assignment")
    einfty.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=BIT",
        help="resolve an unknown scalar (repeatable)",
    )
    sub.add_parser("sweep", help="limit pages for every unknown assignment")
    gauge = sub.add_parser("gauge", help="per-class report for a bundle class")
    gauge.add_argument("--k", type=int, required=True, help="bundle class")
    gauge.add_argument(
        "--epsilon",
        action="append",
        default=[],
        metavar="LABEL=BIT",
        help="override the scalar on a residue class (repeatable)",
    )
    sub.add_parser("uct", help="fibre cohomology derivation chain")
    hit = sub.add_parser("hit", help="hit subspaces and indecomposable quotients")
    hit.add_argument("--bound", type=int, required=True, help="top degree")
    chart = sub.add_parser("chart", help="render one page as SVG or TikZ")
    chart.add_argument("--page", type=int, required=True)
    chart.add_argument("--format", choices=["svg", "tikz"], required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # looked up per call, so a patched module attribute is the one run
        command = globals()[f"cmd_{args.command}"]
        # a command builds no reference cycles, so the cyclic collector would
        # only walk its live pages: pause it, then hand it back as it was found
        enabled = gc.isenabled()
        gc.disable()
        try:
            artifacts = command(load_config(args.config), args)
        finally:
            if enabled:
                gc.enable()
        _write(args.out, artifacts)
        return 0
    except SystemExit as exc:  # _Parser.error exits 1, --help 0
        return exc.code
    except InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 2
    except SseqlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
