"""Render the page-six chart of the default job as SVG and TikZ.

Files land in the current directory; both formats are byte-deterministic,
so re-running always writes the same bytes.
"""

from pathlib import Path

from sseqlab import g2_fibration_spec
from sseqlab.chart import build_chart, render_svg, render_tikz

spec = g2_fibration_spec()
chart = build_chart(spec, 6)

print("dots:", chart.dots)
print("arrows:", chart.arrows)

svg_path = Path("chart_p6.svg")
svg_path.write_text(render_svg(chart))
print("wrote", svg_path)

tikz_path = Path("chart_p6.tikz")
tikz_path.write_text(render_tikz(chart))
print("wrote", tikz_path)
