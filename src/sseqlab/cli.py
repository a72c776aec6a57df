"""Command-line interface: config ingestion, dispatch, report emission.

Every artifact is plain text, CSV, SVG, or TikZ with no timestamps;
re-running a command on the same inputs is byte-identical.  Exit codes:
0 success, 1 validation error, 2 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import _deferred
from .config import WorkbenchConfig, load_config
from .errors import InvariantBreach, SseqlabError, ValidationError
from .graded import format_monomial
from .homotopy import fibre_truncation_dims, hurewicz_homology, loopspace_shift
from .specseq import (
    ADMISSIBLE,
    BASE_ZERO,
    NEGATIVE_FIBRE,
    FibrationSpec,
    build_e2,
    resolve_assignment,
    run_to_einfty,
    sweep_unknowns,
    total_dims,
)

# only the command that calls one of these loads its module
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


class _Emitter:
    """Writes named artifacts to an output directory or to stdout."""

    def __init__(self, out_dir: Optional[str]):
        self.out_dir = Path(out_dir) if out_dir else None
        if self.out_dir:
            self._write(self.out_dir, self.out_dir.mkdir, parents=True, exist_ok=True)

    def emit(self, name: str, text: str) -> None:
        if self.out_dir:
            self._write(self.out_dir / name, (self.out_dir / name).write_text, text)
        else:
            sys.stdout.write(f"# ==== {name} ====\n")
            sys.stdout.write(text)

    @staticmethod
    def _write(path: Path, write, *args, **kwargs) -> None:
        try:
            write(*args, **kwargs)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from None


def _csv(rows: Sequence[Sequence[object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(list(row))
    return buffer.getvalue()


# ------------------------------------------------------------- constraints


STATUS_ADMISSIBLE = "admissible"
STATUS_REJECTED = "rejected"


def constraint_rows(spec: FibrationSpec):
    """Admit/reject every (page, source) pair with a machine-checkable reason.

    One CSV row per verdict of the spec's arrow table; the negative-fibre
    row of each source is labelled ``>=`` its first page.
    """
    rows = []
    for r, (s, t), target, verdict in spec.arrows:
        if target is None:
            rows.append((f">={r}", s, t, "", "", STATUS_REJECTED, verdict))
        elif verdict == ADMISSIBLE:
            rows.append((str(r), s, t, *target, STATUS_ADMISSIBLE, ""))
        else:
            rows.append((str(r), s, t, *target, STATUS_REJECTED, verdict))
    return rows


def _constraints_log(spec: FibrationSpec, rows: list) -> str:
    lines = [
        f"admissible-differential analysis, total degree <= {spec.degree_bound}",
        "base-row classes are permanent cycles: every differential out of "
        "fibre degree 0 lands in negative fibre degree",
    ]
    for t in sorted(spec.unproven_degrees):
        lines.append(f"fibre degree {t} is only >=0: no source there is listed, "
                     "and arrows into it stay admissible")
    lines.append("")
    current = None
    for page, s, t, ts, tt, status, reason in rows:
        if (s, t) != current:
            current = (s, t)
            lines.append(f"source ({s},{t}):")
        if status == STATUS_ADMISSIBLE:
            lines.append(f"  r={page}: target ({ts},{tt}) admissible")
        elif reason == NEGATIVE_FIBRE:
            lines.append(f"  r{page}: negative fibre degree, no target")
        elif reason == BASE_ZERO:
            lines.append(f"  r={page}: target ({ts},{tt}) vanishes, base degree {ts} is zero")
        else:
            lines.append(f"  r={page}: target ({ts},{tt}) vanishes, fibre degree {tt} is zero")
    admitted = [row for row in rows if row[5] == STATUS_ADMISSIBLE]
    lines.append("")
    lines.append(f"admissible arrows: {len(admitted)}")
    for page, s, t, ts, tt, _status, _reason in admitted:
        lines.append(f"  d_{page}: ({s},{t}) -> ({ts},{tt})")
    return "\n".join(lines) + "\n"


def cmd_constraints(cfg: WorkbenchConfig, emitter: _Emitter) -> int:
    spec = cfg.fibration_spec()
    rows = constraint_rows(spec)
    header = ["page", "source_s", "source_t", "target_s", "target_t", "status", "reason"]
    emitter.emit("constraints.csv", _csv([header] + rows))
    emitter.emit("constraints_log.txt", _constraints_log(spec, rows))
    return 0


# ------------------------------------------------------------- e2 / einfty


def cmd_e2(cfg: WorkbenchConfig, emitter: _Emitter) -> int:
    spec = cfg.fibration_spec()
    basis = build_e2(spec)
    rows = [["s", "t", "dim", "labels"]]
    for s, t in basis.bidegrees():
        labels = " ".join(spec.format_label(lab) for lab in basis.labels(s, t))
        rows.append([s, t, basis.dim(s, t), labels])
    emitter.emit("e2.csv", _csv(rows))
    unproven = sorted(t for t in spec.unproven_degrees if t <= spec.degree_bound)
    if unproven:
        lines = [f"starting page, total degree <= {spec.degree_bound}"]
        for t in unproven:
            lines.append(f"fibre degree {t} is only >=0: e2.csv lists no class there, "
                         "yet the degree is unproven, not zero")
        emitter.emit("e2_log.txt", "\n".join(lines) + "\n")
    return 0


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


def cmd_einfty(cfg: WorkbenchConfig, emitter: _Emitter, set_flags: list[str]) -> int:
    spec = cfg.fibration_spec()
    values = _parse_bit_flags("--set", "name", set_flags)
    assignment = resolve_assignment(spec, values)
    page, report = run_to_einfty(spec, assignment)
    rows = [["s", "t", "dim", "survivors"]]
    for s, t in page.reported_bidegrees():
        rows.append([s, t, page.dim(s, t), " ".join(page.describe(s, t))])
    emitter.emit("einfty.csv", _csv(rows))
    totals = [["degree", "dim"]] + [
        [j, d] for j, d in enumerate(total_dims(report, spec.degree_bound))
    ]
    emitter.emit("einfty_totals.csv", _csv(totals))
    lines = [f"limit page (r = {page.r}) for " + ", ".join(
        f"{name}={value}" for name, value in sorted(values.items())
    )]
    if page.unevaluated:
        lines.append("differentials not evaluated (target beyond the window):")
        for r, (s, t), (ts, tt) in page.unevaluated:
            lines.append(f"  d_{r}: ({s},{t}) -> ({ts},{tt})")
    else:
        lines.append("all admissible differentials evaluated inside the window")
    emitter.emit("einfty_log.txt", "\n".join(lines) + "\n")
    return 0


def cmd_sweep(cfg: WorkbenchConfig, emitter: _Emitter) -> int:
    spec = cfg.fibration_spec()
    names = list(spec.unknown_names())
    rows = [names + [f"deg{j}" for j in range(spec.degree_bound + 1)]]
    for key, report in sweep_unknowns(spec).items():
        values = [value for _name, value in key]
        rows.append(values + total_dims(report, spec.degree_bound))
    emitter.emit("sweep.csv", _csv(rows))
    return 0


# ------------------------------------------------------------- gauge


def cmd_gauge(
    cfg: WorkbenchConfig, emitter: _Emitter, k: int, overrides: list[str]
) -> int:
    parsed = _parse_bit_flags("--epsilon", "label", overrides)
    spec = cfg.fibration_spec()
    report = gauge_report(k, parsed, rule=cfg.epsilon_rule, spec=spec)
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
    emitter.emit("gauge_dims.csv", _csv(rows))
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
    lines.append(_constraints_log(spec, constraint_rows(spec)))
    emitter.emit("gauge_log.txt", "\n".join(lines))
    return 0


# ------------------------------------------------------------- uct


def cmd_uct(cfg: WorkbenchConfig, emitter: _Emitter) -> int:
    if cfg.homotopy is None:
        raise ValidationError("the uct command needs a homotopy section")
    rows = [["step", "degree", "value", "provenance"]]
    shifted = loopspace_shift(cfg.homotopy, 3)
    homology = hurewicz_homology(shifted, 5)
    for step, entries in (
        ("input", cfg.homotopy.items()),
        ("shifted", shifted.items()),
        ("homology", sorted(homology.items())),
    ):
        for degree, entry in entries:
            rows.append([step, degree, str(entry), entry.citation])
    dims = fibre_truncation_dims(shifted)
    for degree, entry in dims.items():
        if degree == 0:
            provenance = "unit class of a path-connected fibre"
        else:
            provenance = (
                f"ext of homology degree {degree - 1} plus hom of degree {degree}"
            )
        rows.append(["cohomology_dim", degree, str(entry), provenance])
    emitter.emit("uct.csv", _csv(rows))
    return 0


# ------------------------------------------------------------- hit


def cmd_hit(cfg: WorkbenchConfig, emitter: _Emitter, bound: int) -> int:
    if cfg.steenrod is None:
        raise ValidationError("the hit command needs a steenrod section")
    violations = validate_table(cfg.steenrod)
    if violations:
        raise ValidationError(
            "squaring table is invalid:\n" + format_violations(violations)
        )
    report = hit_quotient(cfg.steenrod, bound)
    rows = [["degree", "total_dim", "hit_dim", "quotient_dim", "representatives"]]
    for row in report.rows:
        reps = " ".join(format_monomial(cfg.base, m) for m in row.representatives)
        rows.append([row.degree, row.total_dim, row.hit_dim, row.quotient_dim, reps])
    emitter.emit("hit.csv", _csv(rows))
    return 0


# ------------------------------------------------------------- chart


def cmd_chart(cfg: WorkbenchConfig, emitter: _Emitter, page: int, fmt: str) -> int:
    chart = build_chart(cfg.fibration_spec(), page)
    emitter.emit(f"chart_p{page}.{fmt}", render(chart, fmt))
    return 0


# ------------------------------------------------------------- dispatch


@functools.cache
def build_parser() -> _Parser:
    # each ``run`` looks its cmd_* up when called, so a patched module attribute is the one run
    parser = _Parser(prog="sseqlab", description=__doc__)
    parser.add_argument("--config", default="g2.cfg", help="configuration file")
    parser.add_argument("--out", default=None, help="artifact output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    constraints = sub.add_parser("constraints", help="admissible-differential table and proof log")
    constraints.set_defaults(run=lambda cfg, out, args: cmd_constraints(cfg, out))
    e2 = sub.add_parser("e2", help="starting-page basis per bidegree")
    e2.set_defaults(run=lambda cfg, out, args: cmd_e2(cfg, out))
    einfty = sub.add_parser("einfty", help="limit page for a resolved assignment")
    einfty.set_defaults(run=lambda cfg, out, args: cmd_einfty(cfg, out, args.set))
    einfty.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="NAME=BIT",
        help="resolve an unknown scalar (repeatable)",
    )
    sweep = sub.add_parser("sweep", help="limit pages for every unknown assignment")
    sweep.set_defaults(run=lambda cfg, out, args: cmd_sweep(cfg, out))
    gauge = sub.add_parser("gauge", help="per-class report for a bundle class")
    gauge.set_defaults(run=lambda cfg, out, args: cmd_gauge(cfg, out, args.k, args.epsilon))
    gauge.add_argument("--k", type=int, required=True, help="bundle class")
    gauge.add_argument(
        "--epsilon",
        action="append",
        default=[],
        metavar="LABEL=BIT",
        help="override the scalar on a residue class (repeatable)",
    )
    uct = sub.add_parser("uct", help="fibre cohomology derivation chain")
    uct.set_defaults(run=lambda cfg, out, args: cmd_uct(cfg, out))
    hit = sub.add_parser("hit", help="hit subspaces and indecomposable quotients")
    hit.set_defaults(run=lambda cfg, out, args: cmd_hit(cfg, out, args.bound))
    hit.add_argument("--bound", type=int, required=True, help="top degree")
    chart = sub.add_parser("chart", help="render one page as SVG or TikZ")
    chart.set_defaults(run=lambda cfg, out, args: cmd_chart(cfg, out, args.page, args.format))
    chart.add_argument("--page", type=int, required=True)
    chart.add_argument("--format", choices=["svg", "tikz"], required=True)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(load_config(args.config), _Emitter(args.out), args)
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
