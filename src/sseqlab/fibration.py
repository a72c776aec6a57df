"""What every command reads of a fibration: the spec, its starting-page basis, its arrows.

None of it needs F_2 linear algebra, so a command that turns no page compiles
neither the page engine (``specseq``) nor ``f2``; ``run_to_einfty`` and a
spec's kept starting page load them.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import DeclaredNameError, ValidationError
from .graded import Monomial, PolyAlgebraSpec, Polynomial, _degree_dim, basis_in_degree
from .graded import format_monomial, poincare_dims
from .record import Record, frozen_copy, kept

if TYPE_CHECKING:
    from .specseq import DifferentialAssignment, EinftyReport, Page, PageGroup

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
        fibre_gens = frozen_copy(fibre_gens)
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
            first = next(v for v in unknowns if v.generator == u.generator)
            if t is None:
                problem = f"unknown {u.name}: unknown fibre generator {u.generator!r}"
            elif u.generator == self.unit_gen:
                problem = f"unknown {u.name}: the unit class never supports a differential"
            elif u.target.is_zero():
                problem = f"unknown {u.name} needs a nonzero target"
            elif u.page != t + 1:
                problem = f"unknown {u.name}: a base-row image forces page {t + 1}, got {u.page}"
            elif u.target.homogeneous_degree(self.base) != u.page:
                problem = f"unknown {u.name}: target must be homogeneous of degree {u.page}"
            elif first is not u:  # both would key the one image of d_page(generator)
                problem = f"unknowns {first.name} and {u.name} both set d_{u.page}({u.generator})"
            else:
                continue
            raise DeclaredNameError(problem, "unknowns", u.name)  # a config locates it at u's row

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

    @kept
    def arrows(self) -> tuple[Arrow, ...]:
        return tuple(classify_arrows(self))  # the spec is frozen: walk once

    @kept
    def admissible(self) -> tuple[tuple[int, Bidegree, Bidegree], ...]:
        """The admissible (page, source, target) triples of ``arrows``, sorted."""
        return tuple(
            sorted((r, src, tgt) for r, src, tgt, verdict in self.arrows if verdict == ADMISSIBLE)
        )

    @kept
    def last_page(self) -> int:
        """The highest page an admissible arrow sits on, or 1 when none does."""
        return max((r for r, _, _ in self.admissible), default=1)

    @kept
    def start_groups(self) -> Mapping[Bidegree, PageGroup]:
        """The starting page's groups through total degree N + 1, built once, read-only."""
        from .specseq import start_groups  # the page engine loads with the first page
        return start_groups(self)

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
        self.__dict__.update(degree_bound=degree_bound, groups=frozen_copy(groups))

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
                groups[(s, t)] = tuple(itertools.product(bases[s], gens))
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
    base_dims = poincare_dims(spec.base, spec.degree_bound + 1)  # targets reach N + 1
    live = {t for t, gens in spec.fibre_gens.items() if gens}.union(spec.unproven_degrees)
    for t in spec.fibre_degrees():
        if t < 1 or not spec.fibre_dim(t):
            continue
        for s in range(spec.degree_bound - t + 1):
            if base_dims[s] == 0:
                continue
            source = (s, t)  # one tuple per source, shared by its pages' arrows
            for r in range(2, t + 2):
                target = (s + r, t - r + 1)
                if base_dims[target[0]] == 0:
                    verdict = BASE_ZERO
                elif target[1] not in live:
                    verdict = FIBRE_ZERO
                else:
                    verdict = ADMISSIBLE
                out.append((r, source, target, verdict))
            out.append((t + 2, source, None, NEGATIVE_FIBRE))
    return out


def admissible_differentials(spec: FibrationSpec) -> list[tuple[int, Bidegree, Bidegree]]:
    """The admissible triples of ``classify_arrows``, sorted."""
    return list(spec.admissible)


def run_to_einfty(
    spec: FibrationSpec, assignment: DifferentialAssignment
) -> tuple[Page, EinftyReport]:
    """Turn pages until no admissible differential remains in the window.

    Returns the limit page and, per total degree, the surviving dimensions
    by bidegree (the associated graded of the filtration; extension problems
    are not solved).  The page engine, ``specseq.limit_page``, loads on the first call.
    """
    from .specseq import limit_page
    return limit_page(spec, assignment)
