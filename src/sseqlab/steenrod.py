"""Unstable squaring operations on graded polynomial algebras.

The action is given on generators and extended everywhere by the
Cartan rule; the total square of an element is a ring homomorphism, so
the extension is the graded convolution of generator tables.  On top
of that sits a bounded-degree hit-problem solver: a class is hit when
it lies in the span of positive-degree operations applied to lower
degrees, and the quotient measures minimal generating sets.

Concrete generator values for a specific space are configuration
input, never hardcoded here; only the axiom-forced entries (Sq^0,
the top square, vanishing above the degree) are filled in for the
caller.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Mapping, Optional

from .errors import UsageError, ValidationError
from .f2 import F2Vector, _kept, reduce_against, row_reduce
from .graded import (
    Monomial,
    PolyAlgebraSpec,
    Polynomial,
    _FIELD,
    _monomial,
    basis_in_degree,
    multiply,
)
from .record import Record, frozen_copy, kept


class Violation(Record):
    """One failed table invariant; a list of these is the validation result."""

    def __init__(self, generator: str, i: int, kind: str, message: str) -> None:
        # kind: sq0 | squaring | instability | homogeneity | missing
        self.__dict__.update(generator=generator, i=i, kind=kind, message=message)

    def __str__(self) -> str:
        return f"Sq^{self.i}({self.generator}): {self.kind}: {self.message}"


class SteenrodTable(Record):
    """Squaring operations on the generators of a polynomial algebra.

    ``action`` maps (generator, i) to the value of Sq^i; a None value
    marks an entry awaiting user input from the literature.  Entries
    for i above the generator degree may be omitted (they are zero);
    one omitted at or below it is reported missing, like a None value.
    The action is a read-only copy, so the verdict and total squares kept
    on the table stay true.
    """

    def __init__(
        self,
        algebra: PolyAlgebraSpec,
        action: Mapping[tuple[str, int], Optional[Polynomial]],
    ) -> None:
        totals = {Monomial((0,) * len(algebra.generators)): {0: algebra.unit()}}  # Sq(1) = 1
        self.__dict__.update(algebra=algebra, action=frozen_copy(action), _totals=totals)

    @kept
    def _validated(self) -> tuple[Violation, ...]:
        """Every invariant on every entry and every slot up to its degree, by generator, index."""
        algebra, action = self.algebra, self.action
        position = {gen: k for k, gen in enumerate(algebra.names)}
        slots = {(gen, i) for gen, degree in algebra.generators for i in range(degree + 1)}
        keys = (key for key in slots.union(action) if key[0] in position)
        violations: list[Violation] = []
        for gen, i in sorted(keys, key=lambda key: (position[key[0]], key[1])):
            degree = algebra.degrees[position[gen]]
            value = action.get((gen, i))
            if value is None:
                note = "entry is marked user-supplied" if (gen, i) in action else "entry is absent"
                violations.append(Violation(gen, i, "missing", note))
                continue
            unit = algebra.gen(gen)
            if i == 0 and value != unit:
                violations.append(Violation(gen, i, "sq0", "Sq^0 must fix the generator"))
            if i == degree and value != multiply(algebra, unit, unit):
                violations.append(Violation(gen, i, "squaring", "top square must be the square"))
            if value.is_zero():
                continue
            if i > degree:
                vanish = f"must vanish above degree {degree}"
                violations.append(Violation(gen, i, "instability", vanish))
            try:
                got = value.homogeneous_degree(algebra)
            except UsageError:
                violations.append(Violation(gen, i, "homogeneity", "image is not homogeneous"))
                continue
            if i <= degree and got != degree + i:
                expected = f"image has degree {got}, expected {degree + i}"
                violations.append(Violation(gen, i, "homogeneity", expected))
        return tuple(violations)

    def generator_sq(self, gen: str, i: int) -> Polynomial:
        degree = self.algebra.degrees[self.algebra.index_of(gen)]
        if i > degree:
            return Polynomial.zero()
        value = self.action.get((gen, i))
        if value is None:
            raise UsageError(
                f"Sq^{i}({gen}) is not specified; fill the user-supplied entries first"
            )
        return value

    def missing_entries(self) -> list[tuple[str, int]]:
        return [(v.generator, v.i) for v in self._validated if v.kind == "missing"]


def table_from_entries(
    algebra: PolyAlgebraSpec,
    entries: Optional[Mapping[str, Mapping[int, Polynomial]]] = None,
) -> SteenrodTable:
    """Build a table, auto-filling only what the axioms force.

    Sq^0 fixes the generator and the top square is the literal square;
    entries strictly between are taken from ``entries`` and left as
    user-supplied placeholders when absent.  Caller-provided values are
    kept verbatim even in the forced slots so that validation can
    report contradictions instead of silently repairing them.
    """
    entries = entries or {}
    for gen in entries:
        algebra.index_of(gen)  # raises on unknown names
    action: dict[tuple[str, int], Optional[Polynomial]] = {}
    for gen, degree in algebra.generators:
        given = dict(entries.get(gen, {}))
        for i, value in given.items():
            if i < 0:
                raise ValidationError(f"negative squaring index for {gen}")
        unit = algebra.gen(gen)
        action[(gen, 0)] = given.pop(0, unit)
        top = multiply(algebra, unit, unit)
        action[(gen, degree)] = given.pop(degree, top) if degree > 0 else action[(gen, 0)]
        for i in range(1, degree):
            action[(gen, i)] = given.pop(i, None)
        for i, value in given.items():
            action[(gen, i)] = value  # beyond the degree; validation flags nonzero
    return SteenrodTable(algebra, action)


def validate_table(table: SteenrodTable) -> list[Violation]:
    """Every table invariant checked on every entry; empty means valid.  Kept on the table."""
    return list(table._validated)


def _require_valid(table: SteenrodTable) -> None:
    if table._validated:
        listed = "; ".join(str(v) for v in table._validated)
        raise ValidationError(f"squaring table is invalid: {listed}")


def _convolve(
    algebra: PolyAlgebraSpec, f: dict[int, Polynomial], g: dict[int, Polynomial]
) -> dict[int, Polynomial]:
    terms: defaultdict[int, set[Monomial]] = defaultdict(set)
    for a, pa in f.items():
        for b, pb in g.items():
            terms[a + b] ^= multiply(algebra, pa, pb).terms
    return {i: Polynomial(frozenset(t)) for i, t in terms.items() if t}


def _total_square_monomial(table: SteenrodTable, m: Monomial) -> dict[int, Polynomial]:
    """Sq(m) = Sq(m / x) Sq(x), x the last generator dividing m: one Cartan step per monomial.

    Walks down to the nearest kept total (the unit's is kept from construction), then back up.
    """
    cache = table._totals
    algebra = table.algebra
    chain = []
    while m not in cache:
        j = (m.packed.bit_length() - 1) // _FIELD  # the highest nonzero field
        chain.append((m, j))
        exponents = list(m.exponents)
        exponents[j] -= 1
        m = _monomial(tuple(exponents), m.packed - (1 << _FIELD * j))
    total = cache[m]
    for m, j in reversed(chain):
        gen, degree = algebra.generators[j]
        gen_total = {i: p for i in range(degree + 1) if (p := table.generator_sq(gen, i))}
        total = cache[m] = _convolve(algebra, total, gen_total)
    return total


def sq(table: SteenrodTable, i: int, p: Polynomial) -> Polynomial:
    """Sq^i extended to all polynomials by the Cartan rule.

    The result does not depend on how monomials are factored: the
    total square is multiplicative, so any factorization tree yields
    the same graded convolution.
    """
    if i < 0:
        raise UsageError("squaring index must be nonnegative")
    _require_valid(table)
    n = len(table.algebra.generators)
    terms: set[Monomial] = set()
    for m in p.terms:
        if len(m.exponents) != n:
            raise UsageError(f"monomial has {len(m.exponents)} exponents for {n} generators")
        if part := _total_square_monomial(table, m).get(i):
            terms ^= part.terms
    return Polynomial(frozenset(terms))


class DegreeHitData(Record):
    def __init__(
        self, degree: int, total_dim: int, hit_dim: int, quotient_dim: int,
        representatives: tuple[Monomial, ...],
    ) -> None:
        self.__dict__.update(
            degree=degree, total_dim=total_dim, hit_dim=hit_dim, quotient_dim=quotient_dim,
            representatives=representatives,
        )


class HitReport(Record):
    def __init__(self, bound: int, rows: tuple[DegreeHitData, ...]) -> None:
        self.__dict__.update(bound=bound, rows=rows)

    def non_hit_degrees(self) -> list[int]:
        return [row.degree for row in self.rows if row.quotient_dim > 0]


def hit_quotient(table: SteenrodTable, bound: int) -> HitReport:
    """Hit subspace and indecomposable quotient per degree up to the bound.

    The hit subspace of degree d is spanned by Sq^i of every monomial
    of degree d - i for 0 < i <= d.  Non-hit representatives are chosen
    greedily in the fixed monomial order.
    """
    if bound < 0:
        raise UsageError("bound must be nonnegative")
    _require_valid(table)
    rows = []
    bases: list[list[Monomial]] = []  # bases[d], built once: the source list of every later degree
    for d in range(bound + 1):
        basis = basis_in_degree(table.algebra, d)
        bases.append(basis)
        index = {m: j for j, m in enumerate(basis)}
        n = len(basis)
        hit_vectors = []
        for i in range(1, d + 1):
            for m in bases[d - i]:
                image = sq(table, i, Polynomial.of(m))
                if image.is_zero():
                    continue
                bits = 0
                for term in image.terms:
                    bits ^= 1 << index[term]
                hit_vectors.append(F2Vector(n, bits))
        hit_basis = row_reduce(hit_vectors)
        # the hit basis is RREF, so reducing against it is linear with the hits as kernel: the
        # greedy choice over the residues keeps the monomials outside the hits and those before
        residues = [reduce_against(hit_basis, F2Vector.unit(n, j)).bits for j in range(n)]
        reps = [basis[j] for j in _kept(residues, n)]
        rows.append(
            DegreeHitData(
                degree=d,
                total_dim=n,
                hit_dim=len(hit_basis),
                quotient_dim=n - len(hit_basis),
                representatives=tuple(reps),
            )
        )
    return HitReport(bound, tuple(rows))


def suggest_g2_table() -> SteenrodTable:
    """Scaffold for the default job's base algebra, ``gauge.G2_BASE``.

    Only axiom-forced entries are populated; everything strictly
    between Sq^0 and the top square is left user-supplied, to be filled
    from the literature via the configuration file.
    """
    from .gauge import G2_BASE

    return table_from_entries(G2_BASE, {})


def format_violations(violations: list[Violation]) -> str:
    return "\n".join(str(v) for v in violations)
