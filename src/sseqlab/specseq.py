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
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import InvariantBreach, UsageError, ValidationError
from .f2 import (
    F2Matrix,
    F2Vector,
    in_span,
    kernel_basis,
    reduce_against,
    row_reduce,
    solve,
)
from .graded import (
    Monomial,
    PolyAlgebraSpec,
    Polynomial,
    _degree_dim,
    basis_in_degree,
    format_monomial,
)
from .record import Record

UNIT_GEN = "1"

Bidegree = tuple[int, int]
Label = tuple[Monomial, str]


class UnknownScalar(Record):
    """A named F_2 scalar multiplying one transgressive generator image.

    Value 1 activates d_page(generator) = target; value 0 makes the
    differential vanish.  The target is a base-row polynomial, so the
    page must be the generator degree plus one.
    """

    def __init__(self, name: str, generator: str, page: int, target: Polynomial) -> None:
        self.__dict__.update(name=name, generator=generator, page=page, target=target)


class FibrationSpec(Record):
    """Base algebra, fibre generators per degree (a read-only copy), window, and unknowns."""

    def __init__(
        self, base: PolyAlgebraSpec, fibre_gens: Mapping[int, tuple[str, ...]],
        degree_bound: int = 10, unknowns: tuple[UnknownScalar, ...] = (),
        unproven_degrees: frozenset[int] = frozenset(),  # no generator, only bounded below by 0
    ) -> None:
        fibre_gens = MappingProxyType(dict(fibre_gens))
        self.__dict__.update(
            base=base, fibre_gens=fibre_gens, degree_bound=degree_bound, unknowns=unknowns,
            unproven_degrees=unproven_degrees,
        )
        if degree_bound < 1:
            raise ValidationError("degree bound must be >= 1")
        gens0 = fibre_gens.get(0)
        if gens0 is None or len(gens0) != 1:
            raise ValidationError("fibre degree 0 must hold exactly the unit generator")
        degree_of: dict[str, int] = {}
        for degree, gens in fibre_gens.items():
            if degree < 0:
                raise ValidationError(f"negative fibre degree {degree}")
            for g in gens:
                if not g:
                    raise ValidationError("empty fibre generator name")
                if g in degree_of:
                    raise ValidationError(f"duplicate fibre generator {g!r}")
                degree_of[g] = degree
        if any(d < 1 or self.fibre_dim(d) for d in unproven_degrees):
            raise ValidationError("an unproven fibre degree must be positive and hold no generator")
        names = [u.name for u in unknowns]
        if len(set(names)) != len(names):
            raise ValidationError("unknown scalar names must be distinct")
        for u in unknowns:
            t = degree_of.get(u.generator)
            if t is None:
                raise ValidationError(f"unknown {u.name}: unknown fibre generator {u.generator!r}")
            if u.generator == self.unit_gen:
                raise ValidationError(
                    f"unknown {u.name}: the unit class never supports a differential"
                )
            if u.target.is_zero():
                raise ValidationError(f"unknown {u.name} needs a nonzero target")
            if u.page != t + 1:
                raise ValidationError(
                    f"unknown {u.name}: a base-row image forces page {t + 1}, got {u.page}"
                )
            if u.target.homogeneous_degree(self.base) != u.page:
                raise ValidationError(
                    f"unknown {u.name}: target must be homogeneous of degree {u.page}"
                )
            first = next(v for v in unknowns if v.generator == u.generator)
            if first is not u:  # both would key the one image of d_page(generator)
                raise ValidationError(
                    f"unknowns {first.name} and {u.name} both set d_{u.page}({u.generator})"
                )

    @property
    def unit_gen(self) -> str:
        return self.fibre_gens[0][0]

    def fibre_degrees(self) -> list[int]:
        return sorted(self.fibre_gens)

    def fibre_dim(self, t: int) -> int:
        return len(self.fibre_gens.get(t, ()))

    def fibre_degree_of(self, gen: str) -> int:
        for degree, gens in self.fibre_gens.items():
            if gen in gens:
                return degree
        raise ValidationError(f"unknown fibre generator {gen!r}")

    def base_dim(self, s: int) -> int:
        return _degree_dim(self.base, s)

    def e2_dim(self, s: int, t: int) -> int:
        return self.base_dim(s) * self.fibre_dim(t)

    def unknown_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.unknowns)

    @cached_property
    def arrows(self) -> tuple[Arrow, ...]:
        return tuple(classify_arrows(self))  # the spec is frozen: walk once

    @cached_property
    def admissible(self) -> tuple[tuple[int, Bidegree, Bidegree], ...]:
        """The admissible (page, source, target) triples of ``arrows``, sorted."""
        return tuple(
            sorted((r, src, tgt) for r, src, tgt, verdict in self.arrows if verdict == ADMISSIBLE)
        )

    @cached_property
    def last_page(self) -> int:
        """The highest page an admissible arrow sits on, or 1 when none does."""
        return max((r for r, _, _ in self.admissible), default=1)

    @cached_property
    def start_groups(self) -> Mapping[Bidegree, PageGroup]:
        """The starting page's groups through total degree N + 1, built once, read-only.

        Groups of one size share their unit vectors, so ``_page`` builds one
        coordinate matrix per size.
        """
        basis = build_e2(self, total_bound=self.degree_bound + 1)
        sizes = set(map(len, basis.groups.values()))
        units = {n: tuple(F2Vector.unit(n, i) for i in range(n)) for n in sizes}
        return MappingProxyType(
            {bd: PageGroup(ls, units[len(ls)], ()) for bd, ls in sorted(basis.groups.items())}
        )

    def format_label(self, label: Label) -> str:
        monomial, gen = label
        if gen == self.unit_gen:
            return format_monomial(self.base, monomial)
        if monomial.is_unit():
            return gen
        return f"{format_monomial(self.base, monomial)}*{gen}"


class BigradedBasis(Record):
    """Tensor-product basis labels per bidegree with s + t <= bound, a read-only copy."""

    def __init__(self, degree_bound: int, groups: Mapping[Bidegree, tuple[Label, ...]]) -> None:
        self.__dict__.update(degree_bound=degree_bound, groups=MappingProxyType(dict(groups)))

    def dim(self, s: int, t: int) -> int:
        return len(self.groups.get((s, t), ()))

    def labels(self, s: int, t: int) -> tuple[Label, ...]:
        return self.groups.get((s, t), ())

    def bidegrees(self) -> list[Bidegree]:
        return sorted(self.groups)


def build_e2(spec: FibrationSpec, *, total_bound: Optional[int] = None) -> BigradedBasis:
    """Starting-page basis in all bidegrees with s + t <= the window.

    Each base degree's monomials are built once and shared by every fibre degree.
    """
    bound = spec.degree_bound if total_bound is None else total_bound
    bases: dict[int, list[Monomial]] = {}
    groups: dict[Bidegree, tuple[Label, ...]] = {}
    for t in spec.fibre_degrees():
        gens = spec.fibre_gens[t]
        if not gens:
            continue
        for s in range(bound - t + 1):
            if s not in bases:
                bases[s] = basis_in_degree(spec.base, s)
            if bases[s]:
                groups[(s, t)] = tuple((m, g) for m in bases[s] for g in gens)
    return BigradedBasis(bound, groups)


ADMISSIBLE = "admissible"
BASE_ZERO = "base_zero"
FIBRE_ZERO = "fibre_zero"
NEGATIVE_FIBRE = "negative_fibre_degree"

Arrow = tuple[int, Bidegree, Optional[Bidegree], str]


def classify_arrows(spec: FibrationSpec) -> list[Arrow]:
    """Every (r, source, target) triple out of the window, with its verdict.

    Sources are the nonzero starting-page groups of positive fibre degree
    and total degree <= N, so every target has total degree <= N + 1.
    Pages 2..t+1 are ADMISSIBLE when the target group is nonzero on the
    starting page or its fibre degree is unproven, else BASE_ZERO or
    FIBRE_ZERO after the factor that vanishes; one NEGATIVE_FIBRE row at
    page t + 2, with no target, stands for all higher pages.  No
    differential values are consulted.
    """
    out: list[Arrow] = []
    base_dims = [spec.base_dim(s) for s in range(spec.degree_bound + 2)]  # targets reach N + 1
    for t in spec.fibre_degrees():
        if t < 1 or not spec.fibre_dim(t):
            continue
        for s in range(spec.degree_bound - t + 1):
            if base_dims[s] == 0:
                continue
            for r in range(2, t + 2):
                target = (s + r, t - r + 1)
                if base_dims[target[0]] == 0:
                    verdict = BASE_ZERO
                elif spec.fibre_dim(target[1]) == 0 and target[1] not in spec.unproven_degrees:
                    verdict = FIBRE_ZERO
                else:
                    verdict = ADMISSIBLE
                out.append((r, (s, t), target, verdict))
            out.append((t + 2, (s, t), None, NEGATIVE_FIBRE))
    return out


def admissible_differentials(
    spec: FibrationSpec,
) -> list[tuple[int, Bidegree, Bidegree]]:
    """The admissible triples of ``classify_arrows``, sorted."""
    return list(spec.admissible)


class DifferentialAssignment(Record):
    """Resolved unknown values plus concrete generator images.

    Images are base-row polynomials keyed by (generator, page); a zero
    polynomial is an explicit declaration that the differential
    vanishes; both maps are read-only copies.  ``_checked``, outside the
    fields, is the spec whose ``check_images`` this assignment passed.
    """

    def __init__(
        self, values: Mapping[str, int], generator_images: Mapping[tuple[str, int], Polynomial]
    ) -> None:
        values, images = MappingProxyType(dict(values)), MappingProxyType(dict(generator_images))
        self.__dict__.update(values=values, generator_images=images, _checked=None)

    def image_of(self, gen: str, r: int) -> Optional[Polynomial]:
        return self.generator_images.get((gen, r))


def resolve_assignment(
    spec: FibrationSpec,
    values: Mapping[str, int],
    extra_images: Optional[Mapping[tuple[str, int], Polynomial]] = None,
) -> DifferentialAssignment:
    """Turn unknown values (plus optional direct images) into an assignment."""
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
    images: dict[tuple[str, int], Polynomial] = {}
    for u in spec.unknowns:
        images[(u.generator, u.page)] = (
            u.target if values[u.name] else Polynomial.zero()
        )
    for (gen, r), poly in (extra_images or {}).items():
        if (gen, r) in images and images[(gen, r)] != poly:
            raise UsageError(f"conflicting image for d_{r}({gen})")
        images[(gen, r)] = poly
    assignment = DifferentialAssignment(values, images)
    check_images(spec, assignment)
    return assignment


def check_images(spec: FibrationSpec, assignment: DifferentialAssignment) -> None:
    """Validate an assignment's generator images against the spec.

    Every image must sit on page >= 2, and a nonzero one must be a
    transgression onto the base row, homogeneous of its page's degree.
    Every generator that supports an admissible transgression needs a
    declared image (possibly zero), and no fibre degree in the window may
    be unproven: its missing classes could support or kill any class.
    A passed check is kept on the assignment, where ``initial_page`` reads it.
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
    object.__setattr__(assignment, "_checked", spec)


def _require_images(spec: FibrationSpec, assignment: DifferentialAssignment) -> None:
    if assignment._checked is not spec:
        check_images(spec, assignment)


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
        self.__dict__.update(
            labels=tuple(labels), cycles=tuple(cycles), boundaries=tuple(boundaries)
        )

    @property
    def dim(self) -> int:
        return len(self.cycles) - len(self.boundaries)

    def quotient_basis(self) -> list[F2Vector]:
        """Greedy representatives of cycles modulo boundaries (deterministic).

        Computed once per group; each call returns a fresh list.
        """
        return list(self._quotient_reps)

    @cached_property
    def _quotient_reps(self) -> tuple[F2Vector, ...]:
        """B is RREF, so ``reduce_against(B, .)`` is linear with kernel span B: a cycle lies
        in span(B and the kept cycles) exactly when its residue lies in the span of theirs,
        which a dict of the kept residues, keyed by lowest bit, decides."""
        kept: dict[int, int] = {}
        reps = []
        for v in self.cycles:
            word = reduce_against(self.boundaries, v).bits
            while word and (low := word & -word) in kept:
                word ^= kept[low]
            if word:
                kept[low] = word
                reps.append(v)
        return tuple(reps)


class Page(Record):
    """Bigraded page r with its differentials in current-basis coordinates; read-only copies."""

    def __init__(
        self, spec: FibrationSpec, assignment: DifferentialAssignment, r: int,
        groups: Mapping[Bidegree, PageGroup],
        differentials: Optional[Mapping[Bidegree, F2Matrix]] = None,
        unevaluated: tuple[tuple[int, Bidegree, Bidegree], ...] = (),
    ) -> None:
        self.__dict__.update(
            spec=spec, assignment=assignment, r=r, groups=MappingProxyType(dict(groups)),
            differentials=MappingProxyType(dict(differentials or {})), unevaluated=unevaluated,
        )

    def dim(self, s: int, t: int) -> int:
        group = self.groups.get((s, t))
        return group.dim if group else 0

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
    spec: FibrationSpec,
    assignment: DifferentialAssignment,
    r: int,
    groups: Mapping[Bidegree, PageGroup],
    flagged: Sequence[tuple[int, Bidegree, Bidegree]] = (),
) -> Page:
    """Page r over ``groups``, with its d_r and its unevaluated arrows added to ``flagged``."""
    matrices: dict[Bidegree, F2Matrix] = {}
    unevaluated: list[tuple[int, Bidegree, Bidegree]] = []
    # each generator's nonzero d_r image, as its packed base monomials; Leibniz then gives
    # d(m (x) g) = m * d(g) on the base row, and a packed product is a sum
    image_terms = {
        g: [n.packed for n in image.terms]
        for (g, page), image in assignment.generator_images.items() if page == r and image
    }
    if not image_terms:  # d_r = 0: no matrix, and no arrow out of the window
        return Page(spec, assignment, r, groups, unevaluated=tuple(sorted(set(flagged))))
    active = {spec.fibre_degree_of(g) for g in image_terms}
    coordinates: dict[tuple[int, int, int], F2Matrix] = {}
    for (s, t), group in sorted(groups.items()):
        if t not in active or group.dim == 0:
            continue
        # check_images forces r = t + 1, so the target is the base-row group (s + t + 1, 0), whose
        # labels all carry the unit; it holds the source monomial times each image monomial
        target_bd = (s + r, t - r + 1)
        if s + t > spec.degree_bound:  # the target lands beyond the tracked window
            unevaluated.append((r, (s, t), target_bd))
            continue
        target = groups[target_bd]
        source_reps = group.quotient_basis()
        target_reps = target.quotient_basis()
        target_index = {m.packed: i for i, (m, _g) in enumerate(target.labels)}
        # each label's image as target bits: m * n, summed per term n; the product lies
        # in the target's degree, whose monomials all fit their fields, so nothing carries
        label_bits = []
        for monomial, gen in group.labels:
            bits, packed = 0, monomial.packed
            for n in image_terms.get(gen, ()):
                bits ^= 1 << target_index[packed + n]
            label_bits.append(bits)
        n_labels = len(target.labels)
        # one [target reps | target boundaries] per (Z, B) pair, which same-size E_2 groups share
        key = (id(target.cycles), id(target.boundaries), n_labels)
        if key not in coordinates:
            coordinates[key] = F2Matrix.from_columns([*target_reps, *target.boundaries], n_labels)
        rep_mask = (1 << len(target_reps)) - 1
        columns = []
        for v in source_reps:
            bits, support = 0, v.bits
            while support:  # v.support, inlined
                bits ^= label_bits[(support & -support).bit_length() - 1]
                support &= support - 1
            w = F2Vector(n_labels, bits)
            if not in_span(target.cycles, w):
                raise ValidationError(
                    f"d_{r} image at {target_bd} lies in a vanished subquotient: "
                    "inconsistent assignment"
                )
            coords = solve(coordinates[key], w)
            assert coords is not None
            columns.append(coords.bits & rep_mask)
        if columns and target_reps:
            # the transpose of the images' coordinate rows; it keeps them as its column words
            matrices[(s, t)] = F2Matrix(len(columns), len(target_reps), columns).transpose()
    return Page(spec, assignment, r, groups, matrices, tuple(sorted({*flagged, *unevaluated})))


def initial_page(spec: FibrationSpec, assignment: DifferentialAssignment) -> Page:
    """The starting page (r = 2) over the spec's kept groups, through total degree N + 1."""
    _require_images(spec, assignment)
    return _page(spec, assignment, 2, spec.start_groups)


def leibniz_extend(
    spec: FibrationSpec,
    assignment: DifferentialAssignment,
    r: int,
    page: Optional[Page] = None,
) -> dict[Bidegree, F2Matrix]:
    """Page-r differential matrices, one per source bidegree.

    With no page given the matrices act on the starting-page tensor
    bases; otherwise on the given page's surviving bases.
    """
    if page is None:
        page = initial_page(spec, assignment)
    else:
        _require_images(spec, assignment)
    return _page(spec, assignment, r, page.groups).differentials


def _combine(length: int, reps: Sequence[F2Vector], coefficients: int) -> F2Vector:
    """Sum of the reps whose index is a set bit of ``coefficients``."""
    bits = 0
    while coefficients:
        bits ^= reps[(coefficients & -coefficients).bit_length() - 1].bits
        coefficients &= coefficients - 1
    return F2Vector(length, bits)


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
    for bd, group in sorted(page.groups.items()):
        s, t = bd
        m_in = page.differentials.get((s - r, t + r - 1))
        m_out = page.differentials.get(bd)
        if m_in is None and m_out is None:
            # recomputing would give back the same RREF cycles and boundaries
            new_groups[bd] = group
            continue
        reps = group.quotient_basis()
        n = len(group.labels)
        # boundaries gain the image of d_r coming in from (s - r, t + r - 1)
        new_b = group.boundaries
        if m_in is not None:
            incoming = [_combine(n, reps, col) for col in m_in._column_words]
            new_b = tuple(row_reduce(list(new_b) + incoming))
        # cycles shrink to the kernel of the outgoing differential
        new_z = group.cycles
        if m_out is not None:
            kept = [_combine(n, reps, c.bits) for c in kernel_basis(m_out)]
            new_z = tuple(row_reduce(list(new_b) + kept)) if kept else new_b
        new_groups[bd] = PageGroup(group.labels, new_z, new_b)
    return _page(spec, assignment, r + 1, new_groups, page.unevaluated)


EinftyReport = dict[int, list[tuple[Bidegree, int]]]


def run_to_einfty(
    spec: FibrationSpec, assignment: DifferentialAssignment
) -> tuple[Page, EinftyReport]:
    """Turn pages until no admissible differential remains in the window.

    Returns the limit page and, per total degree, the surviving
    dimensions by bidegree (the associated graded of the filtration;
    extension problems between filtration steps are not solved).  A page
    with no d_r matrix turns into the same groups and adds no arrows, and
    so does each page with no nonzero image: one ``_page`` call skips them
    all, to the next page with an image or past the spec's last page.
    """
    missing = set(spec.unknown_names()) - set(assignment.values)
    if missing:
        raise UsageError(f"unresolved unknowns: {', '.join(sorted(missing))}")
    page, last_page = initial_page(spec, assignment), spec.last_page
    image_pages = {r for (_gen, r), image in assignment.generator_images.items() if image}
    while page.r <= last_page:
        if page.differentials:
            page = turn_page(page)
        else:
            r = min([p for p in image_pages if p > page.r] + [last_page + 1])
            page = _page(spec, assignment, r, page.groups, page.unevaluated)
    report: EinftyReport = {j: [] for j in range(spec.degree_bound + 1)}
    for (s, t), group in sorted(page.groups.items()):
        if s + t <= spec.degree_bound and group.dim:
            report[s + t].append(((s, t), group.dim))
    return page, report


def total_dims(report: EinftyReport, degree_bound: int) -> list[int]:
    """Summed surviving dimension per total degree 0..degree_bound."""
    return [sum(d for _, d in report.get(j, [])) for j in range(degree_bound + 1)]


def sweep_unknowns(
    spec: FibrationSpec,
) -> dict[tuple[tuple[str, int], ...], EinftyReport]:
    """Limit reports for every point of F_2^unknowns, in binary order.

    Every point is resolved before any page is built, so a refused point
    refuses the sweep; each then runs from the spec's kept starting page.
    """
    names = spec.unknown_names()
    points = [tuple(zip(names, p)) for p in itertools.product((0, 1), repeat=len(names))]
    assignments = [resolve_assignment(spec, dict(point)) for point in points]
    return {point: run_to_einfty(spec, a)[1] for point, a in zip(points, assignments)}
