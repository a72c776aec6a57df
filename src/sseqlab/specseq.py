"""Cohomology Serre spectral sequence engine in a bounded degree window.

The starting page is base (x) fibre; differentials originate on fibre
generators, are propagated by the Leibniz rule (base classes are
permanent cycles), and pages are turned with exact F_2 linear algebra.
Every page class keeps its expansion in the fixed starting-page tensor
basis, so survivors can be reported by name.

State is tracked through total degree N+1 so that kernels of
differentials leaving total degree N are computed correctly; groups at
total degree N+1 are internal upper bounds and are never reported.
Differentials whose target falls beyond N+1 are not evaluated; they
are recorded as out-of-scope, never silently zeroed.
"""

from __future__ import annotations

import itertools
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import InvariantBreach, UsageError, ValidationError
from .f2 import F2Matrix, F2Vector, in_span, kernel_basis, reduce_against, row_reduce, solve
from .f2 import _kept, _matrix, _vector  # private: trusted values, the greedy choice
from .fibration import Bidegree, FibrationSpec, Label, build_e2, run_to_einfty
from .graded import Polynomial
from .record import Record, frozen_copy, kept


class DifferentialAssignment(Record):
    """Resolved unknown values plus concrete generator images.

    Images are base-row polynomials keyed by (generator, page); a zero
    polynomial is an explicit declaration that the differential
    vanishes; both maps are read-only copies.  Nothing is checked here:
    a run checks the assignment against its spec with ``check_images``.
    """

    def __init__(
        self, values: Mapping[str, int], generator_images: Mapping[tuple[str, int], Polynomial]
    ) -> None:
        values, images = frozen_copy(values), frozen_copy(generator_images)
        self.__dict__.update(values=values, generator_images=images)

    def image_of(self, gen: str, r: int) -> Optional[Polynomial]:
        return self.generator_images.get((gen, r))


def resolve_assignment(spec: FibrationSpec, values: Mapping[str, int]) -> DifferentialAssignment:
    """Turn unknown values into an assignment: each unknown's image is its target, or zero.

    The values are checked here, before any page is built; the spec-level
    checks of ``check_images`` come when a run starts.
    """
    names = set(spec.unknown_names())
    for name in values:
        if name not in names:
            raise UsageError(f"value given for undeclared unknown {name!r}")
    missing = names - set(values)
    if missing:
        raise UsageError(f"unresolved unknowns: {', '.join(sorted(missing))}")
    for name, v in values.items():
        if v not in (0, 1):
            raise ValidationError(f"unknown {name!r} must be 0 or 1, got {v!r}")
    images = {
        (u.generator, u.page): u.target if values[u.name] else Polynomial.zero()
        for u in spec.unknowns
    }
    return DifferentialAssignment(values, images)


def check_images(spec: FibrationSpec, assignment: DifferentialAssignment) -> None:
    """Validate an assignment against the spec: the one gate, where each run starts.

    ``initial_page`` calls it.  No fibre degree in the window may be unproven:
    its missing classes could support or kill any class.  Every image must sit
    on page >= 2, and a nonzero one must be a transgression onto the base row,
    homogeneous of its page's degree.  Every generator that supports an
    admissible transgression needs a declared image (possibly zero), and every
    unknown a value.
    """
    unproven = sorted(t for t in spec.unproven_degrees if t <= spec.degree_bound)
    if unproven:
        raise UsageError(
            f"fibre degree {unproven[0]} is only bounded below (>=0), so no page can be "
            "turned; pin the homotopy it is derived from, or declare its classes"
        )
    for (gen, r), poly in assignment.generator_images.items():
        t = spec.fibre_degree_of(gen)
        if r < 2:
            raise ValidationError(f"differential page must be >= 2, got {r}")
        if poly.is_zero():
            continue
        if r != t + 1:
            raise ValidationError(
                f"nonzero image of d_{r}({gen}) cannot land on the base row "
                f"(transgression page is {t + 1})"
            )
        if poly.homogeneous_degree(spec.base) != r:
            raise ValidationError(
                f"image of d_{r}({gen}) must be homogeneous of degree {r}"
            )
    for r, (s, t), _target in spec.admissible:
        if s != 0:
            continue
        for gen in spec.fibre_gens[t]:
            if assignment.image_of(gen, r) is None:
                raise UsageError(
                    f"no image declared for d_{r}({gen}); declare it (possibly zero)"
                )
    missing = set(spec.unknown_names()) - set(assignment.values)
    if missing:
        raise UsageError(f"unresolved unknowns: {', '.join(sorted(missing))}")


# ------------------------------------------------------------------ pages


class PageGroup(Record):
    """One bidegree on one page: alive subspace modulo boundaries.

    Vectors live in coordinates over the fixed starting-page labels, so
    every class remembers its ancestry.  ``cycles`` Z and ``boundaries`` B
    are RREF, B inside span Z, so B and the quotient reps span Z.  Pages
    share the groups and halves no differential touches, so groups are immutable.
    """

    def __init__(
        self, labels: Sequence[Label], cycles: Sequence[F2Vector],
        boundaries: Sequence[F2Vector],
    ) -> None:
        fields = self.__dict__  # one store per field: no keyword dict per group
        fields["labels"] = tuple(labels)
        fields["cycles"] = cycles = tuple(cycles)
        fields["boundaries"] = boundaries = tuple(boundaries)
        fields["dim"] = len(cycles) - len(boundaries)  # derived, not a field: no descriptor

    def quotient_basis(self) -> list[F2Vector]:
        """Greedy representatives of cycles modulo boundaries (deterministic).

        Computed once per group; each call returns a fresh list.
        """
        return list(self._quotient_reps)

    @kept
    def _quotient_reps(self) -> tuple[F2Vector, ...]:
        """B is RREF, so ``reduce_against(B, .)`` is linear with kernel span B: a cycle lies
        in span(B and the kept cycles) exactly when its residue lies in the span of theirs,
        so the greedy choice over the residues (``_kept``) keeps the reps."""
        residues = [reduce_against(self.boundaries, v).bits for v in self.cycles]
        return tuple(map(self.cycles.__getitem__, _kept(residues, len(self.labels))))


class Page(Record):
    """Page r: groups, in bidegree order, d_r in current-basis coordinates, and each d_r's
    images by source, as ``_page`` checked them; read-only copies."""

    def __init__(
        self, spec: FibrationSpec, assignment: DifferentialAssignment, r: int,
        groups: Mapping[Bidegree, PageGroup],
        differentials: Optional[Mapping[Bidegree, F2Matrix]] = None,
        images: Optional[Mapping[Bidegree, tuple[F2Vector, ...]]] = None,
    ) -> None:
        self.__dict__.update(
            spec=spec, assignment=assignment, r=r, groups=frozen_copy(groups),
            differentials=frozen_copy(differentials or {}), images=frozen_copy(images or {}),
        )

    def dim(self, s: int, t: int) -> int:
        group = self.groups.get((s, t))
        return group.dim if group else 0

    @kept
    def unevaluated(self) -> tuple[tuple[int, Bidegree, Bidegree], ...]:
        """The arrows ``_page`` leaves past the window, in page order: on each page r with a
        nonzero image, (N + 2 - r, r - 1) -> (N + 2, 0) when that group is nonzero, since
        ``check_images`` makes the image a transgression."""
        top = self.spec.degree_bound + 2
        pages = sorted({r for (_g, r), image in self.assignment.generator_images.items() if image})
        return tuple((r, (top - r, r - 1), (top, 0)) for r in pages if self.dim(top - r, r - 1))

    def describe(self, s: int, t: int) -> list[str]:
        group = self.groups.get((s, t))
        if group is None:
            return []
        return [
            " + ".join(self.spec.format_label(group.labels[i]) for i in v.support)
            for v in group.quotient_basis()
        ]

    def reported_bidegrees(self) -> list[Bidegree]:
        return sorted(
            bd
            for bd, group in self.groups.items()
            if sum(bd) <= self.spec.degree_bound and group.dim > 0
        )


def _page(
    spec: FibrationSpec, assignment: DifferentialAssignment, r: int,
    groups: Mapping[Bidegree, PageGroup],
) -> Page:
    """Page r over ``groups``, with its d_r inside the window."""
    matrices: dict[Bidegree, F2Matrix] = {}
    images: dict[Bidegree, tuple[F2Vector, ...]] = {}
    # each generator's nonzero d_r image, as its packed base monomials; Leibniz then gives
    # d(m (x) g) = m * d(g) on the base row, and a packed product is a sum
    image_terms = {
        g: [n.packed for n in image.terms]
        for (g, page), image in assignment.generator_images.items() if page == r and image
    }
    if not image_terms:  # d_r = 0: no matrix
        return Page(spec, assignment, r, groups)
    active = {spec.fibre_degree_of(g) for g in image_terms}
    coordinates: dict[tuple[int, int, int], F2Matrix] = {}
    for (s, t), group in groups.items():  # in bidegree order, as start_groups sorted them
        if t not in active or not group.dim:
            continue
        # check_images forces r = t + 1, so the target is the base-row group (s + t + 1, 0), whose
        # labels all carry the unit; it holds the source monomial times each image monomial
        target_bd = (s + r, t - r + 1)
        if s + t > spec.degree_bound:  # beyond the tracked window: in ``Page.unevaluated``
            continue
        target = groups[target_bd]
        labels, cycles, boundaries = target.labels, target.cycles, target.boundaries
        source_reps = group.quotient_basis()
        target_reps = target.quotient_basis()
        target_index = {m.packed: i for i, (m, _g) in enumerate(labels)}
        # each label's image as target bits: m * n, summed per term n; the product lies
        # in the target's degree, whose monomials all fit their fields, so nothing carries
        label_bits = []
        for monomial, gen in group.labels:
            bits, packed = 0, monomial.packed
            for n in image_terms.get(gen, ()):
                bits ^= 1 << target_index[packed + n]
            label_bits.append(bits)
        n_labels = len(labels)
        # one [target reps | target boundaries] per (Z, B) pair, which same-size E_2 groups share
        key = (id(cycles), id(boundaries), n_labels)
        if key not in coordinates:  # built from its words, as the d_r blocks below are
            words = tuple(v.bits for v in (*target_reps, *boundaries))
            coordinates[key] = _matrix(n_labels, len(words), None, words)
        coordinate = coordinates[key]
        rep_mask = (1 << len(target_reps)) - 1
        columns, vectors = [], []
        for v in source_reps:
            bits, support = 0, v.bits
            while support:  # v.support, inlined
                bits ^= label_bits[(support & -support).bit_length() - 1]
                support &= support - 1
            w = _vector(n_labels, bits)
            if not in_span(cycles, w):
                raise ValidationError(
                    f"d_{r} image at {target_bd} lies in a vanished subquotient: "
                    "inconsistent assignment"
                )
            coords = solve(coordinate, w)
            assert coords is not None
            columns.append(coords.bits & rep_mask)
            vectors.append(w)
        if columns and target_reps:  # the images' coordinates are its column words
            matrices[(s, t)] = _matrix(len(target_reps), len(columns), None, tuple(columns))
            images[(s, t)] = tuple(vectors)
    return Page(spec, assignment, r, groups, matrices, images)


def start_groups(spec: FibrationSpec) -> Mapping[Bidegree, PageGroup]:
    """The starting page's groups through total degree N + 1, read-only; the spec keeps them.

    Groups of one size share their unit vectors, so ``_page`` builds one
    coordinate matrix per size, and their quotient reps: the first group of
    a size computes them, and the others are seeded with its tuple.
    """
    basis = build_e2(spec, total_bound=spec.degree_bound + 1)
    sizes = set(map(len, basis.groups.values()))
    units = {n: tuple(_vector(n, 1 << i) for i in range(n)) for n in sizes}
    groups, reps = {}, {}
    for bd, labels in sorted(basis.groups.items()):
        group = groups[bd] = PageGroup(labels, units[len(labels)], ())
        if len(labels) in reps:
            group.__dict__["_quotient_reps"] = reps[len(labels)]
        else:
            reps[len(labels)] = group._quotient_reps
    return MappingProxyType(groups)


def initial_page(spec: FibrationSpec, assignment: DifferentialAssignment) -> Page:
    """The starting page (r = 2) over the spec's kept groups, through total degree N + 1."""
    check_images(spec, assignment)
    return _page(spec, assignment, 2, spec.start_groups)


def _combine(length: int, reps: Sequence[F2Vector], coefficients: int) -> F2Vector:
    """Sum of the reps whose index is a set bit of ``coefficients``."""
    bits = 0
    while coefficients:
        bits ^= reps[(coefficients & -coefficients).bit_length() - 1].bits
        coefficients &= coefficients - 1
    return _vector(length, bits)


def turn_page(page: Page) -> Page:
    """Homology with respect to d_r: next page with kernels over images.

    Only the half of a group that d_r touches is reduced again.  B lies in
    span Z and RREF is canonical, so Z stays when no d_r leaves (B' and the
    reps span Z), B stays when none enters, and Z' = B' when ker d_r is 0.
    """
    spec, assignment, r = page.spec, page.assignment, page.r
    # composability: consecutive differential matrices must compose to zero
    for src, m1 in page.differentials.items():
        mid = (src[0] + r, src[1] - r + 1)
        m2 = page.differentials.get(mid)
        if m2 is not None and not m2.matmul(m1).is_zero():
            raise InvariantBreach(f"d_{r} o d_{r} != 0 out of {src}")
    new_groups: dict[Bidegree, PageGroup] = {}
    for bd, group in page.groups.items():  # in bidegree order, which the next page keeps
        s, t = bd
        m_in = page.differentials.get((s - r, t + r - 1))
        m_out = page.differentials.get(bd)
        if m_in is None and m_out is None:
            # recomputing would give back the same RREF cycles and boundaries
            new_groups[bd] = group
            continue
        # boundaries gain the images of d_r coming in from (s - r, t + r - 1), as _page built them
        new_b = group.boundaries
        if m_in is not None:
            new_b = tuple(row_reduce([*new_b, *page.images[(s - r, t + r - 1)]]))
        # cycles shrink to the kernel of the outgoing differential
        new_z = group.cycles
        if m_out is not None:
            reps, n = group.quotient_basis(), len(group.labels)
            kept = [_combine(n, reps, c.bits) for c in kernel_basis(m_out)]
            new_z = tuple(row_reduce(list(new_b) + kept)) if kept else new_b
        new_groups[bd] = PageGroup(group.labels, new_z, new_b)
    return _page(spec, assignment, r + 1, new_groups)


EinftyReport = dict[int, list[tuple[Bidegree, int]]]


def limit_page(
    spec: FibrationSpec, assignment: DifferentialAssignment
) -> tuple[Page, EinftyReport]:
    """``run_to_einfty``: the limit page and its surviving dimensions per total degree.

    A page with no d_r matrix turns into the same groups, and so does each page
    with no nonzero image: one ``_page`` call skips them all, to the next page
    with an image or past the spec's last page; ``Page.unevaluated`` needs none of them.
    """
    page, last_page = initial_page(spec, assignment), spec.last_page
    image_pages = {r for (_gen, r), image in assignment.generator_images.items() if image}
    while page.r <= last_page:
        if page.differentials:
            page = turn_page(page)
        else:
            r = min([p for p in image_pages if p > page.r] + [last_page + 1])
            page = _page(spec, assignment, r, page.groups)
    report: EinftyReport = {j: [] for j in range(spec.degree_bound + 1)}
    for (s, t), group in page.groups.items():  # in bidegree order
        if s + t <= spec.degree_bound and group.dim:
            report[s + t].append(((s, t), group.dim))
    return page, report


def total_dims(report: EinftyReport, degree_bound: int) -> list[int]:
    """Summed surviving dimension per total degree 0..degree_bound; other degrees are ignored."""
    totals = [0] * (degree_bound + 1)
    for j in range(degree_bound + 1):  # one pass, summed in place: no generator per degree
        for _, d in report.get(j, ()):
            totals[j] += d
    return totals


def sweep_unknowns(
    spec: FibrationSpec,
) -> dict[tuple[tuple[str, int], ...], EinftyReport]:
    """Limit reports for every point of F_2^unknowns, in binary order.

    Every point's values are checked before any page is built, spec-level refusals
    come at the first run, and each point runs from the spec's kept starting page.
    """
    names = spec.unknown_names()
    points = [tuple(zip(names, p)) for p in itertools.product((0, 1), repeat=len(names))]
    assignments = [resolve_assignment(spec, dict(point)) for point in points]
    return {point: run_to_einfty(spec, a)[1] for point, a in zip(points, assignments)}
