"""Bigraded page charts as SVG or TikZ text.

Filtration degree runs horizontally, fibre degree vertically. Dots are
sized by group dimension and differentials are drawn as labelled
arrows.  Output is byte-deterministic for fixed input: coordinates are
integers, iteration orders are sorted, and nothing is timestamped.
"""

from __future__ import annotations

from .errors import ValidationError
from .fibration import Bidegree, FibrationSpec, admissible_differentials, build_e2
from .record import Record

CELL = 40  # pixel pitch of the grid
MARGIN = 60


class ChartSpec(Record):
    """Page number, window, dots (s, t, dim) with dimensions, and labelled arrows."""

    def __init__(
        self, page: int, s_max: int, t_max: int, dots: tuple[tuple[int, int, int], ...],
        arrows: tuple[tuple[Bidegree, Bidegree, str], ...],
    ) -> None:
        if page < 2:
            raise ValidationError(f"chart page must be >= 2 (pages start at E_2), got {page}")
        for (s, t), (s2, t2), _label in arrows:
            if (s2, t2) != (s + page, t - page + 1):
                raise ValidationError(
                    f"arrow {((s, t), (s2, t2))} violates the page-{page} bidegree law"
                )
        self.__dict__.update(page=page, s_max=s_max, t_max=t_max, dots=dots, arrows=arrows)


def build_chart(spec: FibrationSpec, page: int) -> ChartSpec:
    """Chart of the starting-page groups with the page's admissible arrows.

    Arrows are the bidegree-admissible differentials of the requested
    page; each is labelled by the unknown scalars that govern it, comma-joined
    in declaration order, else by the page differential's name.
    """
    basis = build_e2(spec)
    dots = tuple(
        (s, t, len(labels)) for (s, t), labels in sorted(basis.groups.items())
    )
    arrows = []
    for r, src, tgt in admissible_differentials(spec):
        if r != page:
            continue
        names = [
            u.name for u in spec.unknowns
            if u.page == r and spec.fibre_degree_of(u.generator) == src[1]
        ]
        arrows.append((src, tgt, ",".join(names) or f"d{r}"))
    s_max = spec.degree_bound
    t_max = max(spec.fibre_degrees())  # degree 0, the unit's, is always there
    return ChartSpec(page, s_max, t_max, dots, tuple(arrows))


def _x(s: int) -> int:
    return MARGIN + s * CELL


def _y(t: int, t_max: int) -> int:
    return MARGIN + (t_max - t) * CELL


def render_svg(chart: ChartSpec) -> str:
    width = 2 * MARGIN + chart.s_max * CELL
    height = 2 * MARGIN + chart.t_max * CELL
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        "<g stroke=\"#cccccc\" stroke-width=\"1\">",
    ]
    for s in range(chart.s_max + 1):
        x = _x(s)
        lines.append(
            f'<line x1="{x}" y1="{MARGIN - CELL // 2}" x2="{x}" '
            f'y2="{height - MARGIN + CELL // 2}"/>'
        )
    for t in range(chart.t_max + 1):
        y = _y(t, chart.t_max)
        lines.append(
            f'<line x1="{MARGIN - CELL // 2}" y1="{y}" x2="{width - MARGIN + CELL // 2}" '
            f'y2="{y}"/>'
        )
    lines.append("</g>")
    lines.append('<g font-family="monospace" font-size="12" fill="#555555">')
    for s in range(chart.s_max + 1):
        lines.append(
            f'<text x="{_x(s)}" y="{height - MARGIN // 3}" text-anchor="middle">{s}</text>'
        )
    for t in range(chart.t_max + 1):
        lines.append(
            f'<text x="{MARGIN // 3}" y="{_y(t, chart.t_max) + 4}" text-anchor="middle">{t}</text>'
        )
    lines.append("</g>")
    # each arrow's endpoints, read by its line and by its label
    ends = [(_x(s), _y(t, chart.t_max), _x(s2), _y(t2, chart.t_max), label)
            for (s, t), (s2, t2), label in chart.arrows]
    lines.append('<g stroke="#000000" stroke-width="2" fill="none">')
    for x1, y1, x2, y2, _label in ends:
        lines.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>')
    lines.append("</g>")
    lines.append('<g font-family="monospace" font-size="12" fill="#aa0000">')
    for x1, y1, x2, y2, label in ends:
        lines.append(
            f'<text x="{(x1 + x2) // 2}" y="{(y1 + y2) // 2 - 6}" '
            f'text-anchor="middle">{label}</text>'
        )
    lines.append("</g>")
    lines.append('<g fill="#222222">')
    for s, t, dim in chart.dots:
        x, y = _x(s), _y(t, chart.t_max)
        radius = 3 + 2 * (dim - 1)
        lines.append(f'<circle cx="{x}" cy="{y}" r="{radius}"/>')
        if dim > 1:
            lines.append(
                f'<text x="{x + 8}" y="{y - 8}" font-family="monospace" '
                f'font-size="11">{dim}</text>'
            )
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_tikz(chart: ChartSpec) -> str:
    lines = [
        "\\begin{tikzpicture}[x=0.8cm,y=0.8cm]",
        f"  \\draw[step=1,gray!40,thin] (-0.5,-0.5) grid "
        f"({chart.s_max}.5,{chart.t_max}.5);",
    ]
    for s in range(chart.s_max + 1):
        lines.append(f"  \\node[below,gray] at ({s},-0.5) {{{s}}};")
    for t in range(chart.t_max + 1):
        lines.append(f"  \\node[left,gray] at (-0.5,{t}) {{{t}}};")
    for s, t, dim in chart.dots:
        size = 2 + dim
        lines.append(f"  \\fill ({s},{t}) circle ({size}pt/2);")
        if dim > 1:
            lines.append(f"  \\node[above right] at ({s},{t}) {{{dim}}};")
    for (s, t), (s2, t2), label in chart.arrows:
        lines.append(
            f"  \\draw[->,thick] ({s},{t}) -- node[midway,above,sloped] "
            f"{{${label}$}} ({s2},{t2});"
        )
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"


def render(chart: ChartSpec, fmt: str) -> str:
    if fmt == "svg":
        return render_svg(chart)
    if fmt == "tikz":
        return render_tikz(chart)
    raise ValidationError(f"unknown chart format {fmt!r} (expected svg or tikz)")
