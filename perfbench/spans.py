"""Layer spans recorded from outside the program.

The tracer swaps the module attributes through which one sseqlab layer
calls another for timing wrappers, in the benchmark process only.  Each
span records name, layer, start, end and parent; spans stay in memory
and are written when the benchmark ends.  Nothing under ``src/`` is
changed.  A boundary whose attribute no longer exists makes ``install``
raise, so a renamed function cannot turn its metrics into zeros.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (module, attribute path, layer, span name).  The attribute is looked up
# in the *calling* module, so ``sseqlab.specseq.kernel_basis`` times the
# f2 kernel as called by the page engine and no other caller.
BOUNDARIES = (
    ("sseqlab.cli", "main", "cli", "cli.main"),
    *(
        ("sseqlab.cli", f"cmd_{c}", "cli", f"cli.cmd_{c}")
        for c in ("constraints", "e2", "einfty", "sweep", "gauge", "uct", "hit", "chart")
    ),
    ("sseqlab.cli", "load_config", "config", "config.load_config"),
    ("sseqlab.config", "parse_config", "config", "config.parse_config"),
    ("sseqlab.config", "WorkbenchConfig.fibration_spec", "config", "config.fibration_spec"),
    ("sseqlab.config", "table_from_entries", "steenrod", "steenrod.table_from_entries"),
    ("sseqlab.config", "loopspace_shift", "homotopy", "homotopy.loopspace_shift"),
    ("sseqlab.config", "fibre_truncation_dims", "homotopy", "homotopy.fibre_truncation_dims"),
    ("sseqlab.cli", "loopspace_shift", "homotopy", "homotopy.loopspace_shift"),
    ("sseqlab.cli", "hurewicz_homology", "homotopy", "homotopy.hurewicz_homology"),
    ("sseqlab.cli", "fibre_truncation_dims", "homotopy", "homotopy.fibre_truncation_dims"),
    ("sseqlab.cli", "build_e2", "specseq", "specseq.build_e2"),
    ("sseqlab.cli", "resolve_assignment", "specseq", "specseq.resolve_assignment"),
    ("sseqlab.cli", "run_to_einfty", "specseq", "specseq.run_to_einfty"),
    ("sseqlab.cli", "sweep_unknowns", "specseq", "specseq.sweep_unknowns"),
    ("sseqlab.gauge", "resolve_assignment", "specseq", "specseq.resolve_assignment"),
    ("sseqlab.gauge", "run_to_einfty", "specseq", "specseq.run_to_einfty"),
    ("sseqlab.gauge", "admissible_differentials", "specseq", "specseq.admissible_differentials"),
    ("sseqlab.chart", "build_e2", "specseq", "specseq.build_e2"),
    ("sseqlab.chart", "admissible_differentials", "specseq", "specseq.admissible_differentials"),
    ("sseqlab.specseq", "run_to_einfty", "specseq", "specseq.run_to_einfty"),
    ("sseqlab.specseq", "initial_page", "specseq", "specseq.initial_page"),
    ("sseqlab.specseq", "build_e2", "specseq", "specseq.build_e2"),
    ("sseqlab.specseq", "turn_page", "specseq", "specseq.turn_page"),
    ("sseqlab.specseq", "PageGroup.quotient_basis", "specseq", "specseq.quotient_basis"),
    *(
        ("sseqlab.specseq", fn, "f2.specseq", f"f2.{fn}")
        for fn in ("row_reduce", "reduce_against", "in_span", "kernel_basis", "solve")
    ),
    ("sseqlab.steenrod", "row_reduce", "f2.steenrod", "f2.row_reduce"),
    ("sseqlab.steenrod", "reduce_against", "f2.steenrod", "f2.reduce_against"),
    ("sseqlab.cli", "validate_table", "steenrod", "steenrod.validate_table"),
    ("sseqlab.cli", "hit_quotient", "steenrod", "steenrod.hit_quotient"),
    ("sseqlab.steenrod", "sq", "steenrod", "steenrod.sq"),
    ("sseqlab.cli", "gauge_report", "gauge", "gauge.gauge_report"),
    ("sseqlab.cli", "build_chart", "chart", "chart.build_chart"),
    ("sseqlab.cli", "render", "chart", "chart.render"),
)

# Boundaries crossed too often for a span each (thousands per hit op):
# they are counted, not timed.
COUNTED = (("sseqlab.steenrod", "multiply", "graded.multiply_calls"),)

CALLERS = ("specseq", "steenrod")


def _f2_work(name, args, result):
    """(rows fed into elimination, rows found independent) for one f2 call."""
    if name == "f2.row_reduce":
        return len(args[0]), len(result)
    if name == "f2.reduce_against":
        return 1, int(not result.is_zero())
    if name == "f2.in_span":
        return 1, int(not result)
    if name == "f2.kernel_basis":
        return args[0].rows, args[0].cols - len(result)
    if name == "f2.solve":
        return args[0].rows, int(result is not None)
    return 0, 0


def _count(counts: Counter, name: str, layer: str, args, result) -> None:
    """Deterministic work counters read at the boundary, outside the span."""
    if layer.startswith("f2."):
        rows_in, rank_out = _f2_work(name, args, result)
        counts[f"{layer}.rows_in"] += rows_in
        counts[f"{layer}.rank_out"] += rank_out
    elif name == "specseq.turn_page":
        counts["specseq.inert_pages"] += not args[0].differentials
    elif name == "specseq.initial_page":
        counts["specseq.e2_classes"] += sum(len(g.labels) for g in result.groups.values())
    elif name == "steenrod.sq":
        counts["steenrod.hit_vectors"] += not result.is_zero()
    elif name == "steenrod.hit_quotient":
        counts["steenrod.hit_dim"] += sum(row.hit_dim for row in result.rows)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, layer, start, end, parent index or -1)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list = []

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def span(self, name: str, layer: str, fn):
        """Wrap ``fn`` so each call records one span and its counters."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            _count(self.counts, name, layer, args, result)
            return result

        return wrapper

    def counter(self, key: str, fn):
        """Wrap ``fn`` so each call only bumps ``counts[key]``."""

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def merge(self, spans, counts) -> None:
        """Append spans and counts recorded by another process."""
        offset = len(self.spans)
        for name, layer, start, end, parent in spans:
            self.spans.append((name, layer, start, end, parent + offset if parent >= 0 else -1))
        self.counts.update(counts)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, path, layer, name in BOUNDARIES:
            self._patch(module, path, lambda fn, n=name, l=layer: self.span(n, l, fn))
        for module, path, key in COUNTED:
            self._patch(module, path, lambda fn, k=key: self.counter(k, fn))

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr = _resolve(module, path)
        original = owner.__dict__.get(attr)
        if original is None:
            self.uninstall()
            raise AttributeError(f"tracer boundary {module}.{path} does not exist")
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def self_times(spans) -> list[float]:
    """Per span: its duration minus the time its child spans cover.

    Spans come from one thread, so children of one parent never overlap
    and their coverage is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for _name, _layer, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_n, _l, start, end, _p) in enumerate(spans)]


def inclusive_time(spans, names) -> float:
    """Wall time inside spans of ``names``, not counting one nested in another."""
    inside = [False] * len(spans)
    total = 0.0
    for i, (name, _layer, start, end, parent) in enumerate(spans):
        ancestor = parent >= 0 and (inside[parent] or spans[parent][0] in names)
        inside[i] = ancestor
        if name in names and not ancestor:
            total += end - start
    return total


def deterministic_counts(spans, counts: Counter) -> dict:
    """Calls per boundary plus the work counters; equal inputs give equal values."""
    out = Counter(f"calls:{layer}:{name}" for name, layer, *_ in spans)
    out.update(counts)
    return dict(out)


def layer_metrics(spans, counts: Counter, ops: int) -> dict:
    """Per-layer metrics of one traced pass over ``ops`` operations.

    Times are seconds per operation; counts are totals over the pass and
    repeat exactly for the same inputs.
    """
    selfs = self_times(spans)
    by_layer: Counter = Counter()
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for (name, layer, *_), own in zip(spans, selfs):
        by_layer[layer] += own
        by_name[name] += own
        calls[name] += 1
        if layer.startswith("f2."):
            calls[layer] += 1
    per_op = 1.0 / ops
    out = {
        "config.self_s": by_layer["config"] * per_op,
        "config.calls": calls["config.parse_config"],
        "homotopy.self_s": by_layer["homotopy"] * per_op,
        "specseq.e2_s": inclusive_time(spans, {"specseq.build_e2", "specseq.initial_page"}) * per_op,
        "specseq.turn_self_s": by_name["specseq.turn_page"] * per_op,
        "specseq.pages_turned": calls["specseq.turn_page"],
        "specseq.inert_pages": counts["specseq.inert_pages"],
        "specseq.quotient_basis_s": inclusive_time(spans, {"specseq.quotient_basis"}) * per_op,
        "specseq.quotient_basis_calls": calls["specseq.quotient_basis"],
        "specseq.e2_classes": counts["specseq.e2_classes"],
    }
    totals = Counter()
    for caller in CALLERS:
        layer = f"f2.{caller}"
        part = {
            "self_s": by_layer[layer] * per_op,
            "calls": calls[layer],
            "rows_in": counts[f"{layer}.rows_in"],
            "rank_out": counts[f"{layer}.rank_out"],
        }
        totals.update(part)
        for key, value in part.items():
            out[f"{layer}.{key}"] = value
        out[f"{layer}.useful_ratio"] = _ratio(part["rank_out"], part["rows_in"])
    for key in ("self_s", "calls", "rows_in", "rank_out"):
        out[f"f2.{key}"] = totals[key]
    out["f2.useful_ratio"] = _ratio(totals["rank_out"], totals["rows_in"])
    out.update(
        {
            "steenrod.sq_s": inclusive_time(spans, {"steenrod.sq"}) * per_op,
            "steenrod.sq_calls": calls["steenrod.sq"],
            "graded.multiply_calls": counts["graded.multiply_calls"],
            "steenrod.echelon_s": by_layer["f2.steenrod"] * per_op,
            "steenrod.hit_vectors": counts["steenrod.hit_vectors"],
            "steenrod.hit_dim": counts["steenrod.hit_dim"],
            "steenrod.useful_ratio": _ratio(
                counts["steenrod.hit_dim"], counts["steenrod.hit_vectors"]
            ),
            "gauge.self_s": by_layer["gauge"] * per_op,
            "chart.self_s": by_layer["chart"] * per_op,
            "cli.self_s": sum(v for k, v in by_name.items() if k.startswith("cli.cmd_")) * per_op,
            "cli.main_self_s": by_name["cli.main"] * per_op,
        }
    )
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
