"""Graded polynomial algebras over F_2.

An algebra is given by named generators with positive degrees; all
coefficients are implicitly 1, so polynomials are just sets of
monomials and addition is symmetric difference.  Signs vanish mod 2,
so graded commutativity reduces to plain commutativity.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from operator import add
from typing import Iterable

from .errors import UsageError, ValidationError
from .record import Record, kept


class PolyAlgebraSpec(Record):
    """Polynomial algebra F_2[g_1, ..., g_n] with deg(g_i) >= 1."""

    def __init__(self, generators: tuple[tuple[str, int], ...]) -> None:
        generators = tuple(generators)
        names = [name for name, _ in generators]
        if len(set(names)) != len(names):
            raise ValidationError("generator names must be distinct")
        for name, degree in generators:
            if degree < 1:
                raise ValidationError(f"generator {name} has degree {degree} < 1")
        self.__dict__["generators"] = generators

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "PolyAlgebraSpec":
        return cls(tuple((str(n), int(d)) for n, d in pairs))

    @kept
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.generators)

    @kept
    def degrees(self) -> tuple[int, ...]:
        return tuple(degree for _, degree in self.generators)

    def index_of(self, name: str) -> int:
        for i, (n, _) in enumerate(self.generators):
            if n == name:
                return i
        raise UsageError(f"unknown generator {name!r}")

    def gen(self, name: str) -> "Polynomial":
        i = self.index_of(name)
        exps = [0] * len(self.generators)
        exps[i] = 1
        return Polynomial(frozenset({Monomial(tuple(exps))}))

    def unit(self) -> "Polynomial":
        return Polynomial(frozenset({Monomial((0,) * len(self.generators))}))


_FIELD = 16  # bits per exponent in ``Monomial.packed``


@total_ordering
class Monomial(Record):
    """Exponents, one per generator, ordered as a tuple; ``packed``: exponent i at bit _FIELD*i."""

    __slots__ = ("exponents", "packed")

    def __init__(self, exponents: tuple[int, ...]) -> None:
        exponents = tuple(exponents)
        if exponents and min(exponents) < 0:
            raise UsageError("negative exponent")
        if exponents and max(exponents) >> _FIELD:
            raise UsageError(f"exponent {max(exponents)} does not fit a {_FIELD}-bit field")
        _set_packed(self, sum(e << _FIELD * i for i, e in enumerate(exponents)))
        _set_exponents(self, exponents)

    def __eq__(self, other: object) -> bool:  # the base's, inlined: monomials are hot set keys
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self) -> int:
        return hash((self.exponents,))

    def __lt__(self, other: "Monomial") -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.exponents < other.exponents

    def degree(self, algebra: PolyAlgebraSpec) -> int:
        return sum(e * d for e, d in zip(self.exponents, algebra.degrees))

    def __mul__(self, other: "Monomial") -> "Monomial":
        a, b = self.exponents, other.exponents
        if len(a) != len(b):
            raise UsageError(f"cannot multiply monomials of {len(a)} and {len(b)} exponents")
        exponents = tuple(map(add, a, b))
        if max(exponents, default=0) >> _FIELD:
            return Monomial(exponents)  # a field would carry: refused there
        return _monomial(exponents, self.packed + other.packed)

    def is_unit(self) -> bool:
        return not self.packed


_set_exponents, _set_packed = Monomial.exponents.__set__, Monomial.packed.__set__


def _monomial(exponents: tuple[int, ...], packed: int) -> Monomial:
    """The trusted path: nonnegative exponents and their packing, set past the frozen setattr."""
    m = object.__new__(Monomial)
    _set_exponents(m, exponents)
    _set_packed(m, packed)
    return m


class Polynomial(Record):
    """Set of monomials; mod-2 cancellation is already applied."""

    def __init__(self, terms: frozenset[Monomial]) -> None:
        self.__dict__["terms"] = terms

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(frozenset())

    @classmethod
    def of(cls, *monomials: Monomial) -> "Polynomial":
        terms: set[Monomial] = set()
        for m in monomials:
            terms ^= {m}
        return cls(frozenset(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return Polynomial(self.terms ^ other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[Monomial]:
        """Terms in the fixed display order (descending lexicographic)."""
        return sorted(self.terms, key=lambda m: m.exponents, reverse=True)

    def homogeneous_degree(self, algebra: PolyAlgebraSpec) -> int:
        """Common degree of all terms; zero polynomial has degree -1."""
        degs = {m.degree(algebra) for m in self.terms}
        if not degs:
            return -1
        if len(degs) > 1:
            raise UsageError(f"polynomial is not homogeneous: degrees {sorted(degs)}")
        return degs.pop()


@lru_cache(maxsize=None)
def _monomials(degrees: tuple[int, ...], d: int) -> tuple[Monomial, ...]:
    if not degrees:
        return (_monomial((), 0),) if d == 0 else ()
    head, tail = degrees[0], degrees[1:]
    out = []
    for e in range(d // head, -1, -1):
        for rest in _monomials(tail, d - e * head):
            out.append(Monomial((e,) + rest.exponents))  # built and checked once
    return tuple(out)


def basis_in_degree(algebra: PolyAlgebraSpec, d: int) -> list[Monomial]:
    """All monomials of exact degree d, in descending lexicographic order."""
    if d < 0:
        return []
    return list(_monomials(algebra.degrees, d))


def multiply(algebra: PolyAlgebraSpec, p: Polynomial, q: Polynomial) -> Polynomial:
    terms: set[Monomial] = set()
    for a in p.terms:
        for b in q.terms:
            terms ^= {a * b}
    return Polynomial(frozenset(terms))


def _degree_dim(algebra: PolyAlgebraSpec, d: int) -> int:
    """Number of monomials of exact degree d, read off the kept basis."""
    return len(_monomials(algebra.degrees, d)) if d >= 0 else 0


def poincare_dims(algebra: PolyAlgebraSpec, n: int) -> list[int]:
    """dims[d] = number of monomials of degree d, for d = 0..n."""
    return [_degree_dim(algebra, d) for d in range(n + 1)]


# ------------------------------------------------------------- formatting


def format_monomial(algebra: PolyAlgebraSpec, m: Monomial) -> str:
    parts = []
    for (name, _), e in zip(algebra.generators, m.exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_polynomial(algebra: PolyAlgebraSpec, p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    return " + ".join(format_monomial(algebra, m) for m in p.sorted_terms())


def parse_monomial(algebra: PolyAlgebraSpec, text: str) -> Monomial:
    text = text.strip()
    exps = [0] * len(algebra.generators)
    if text == "1":
        return Monomial(tuple(exps))
    for factor in text.split("*"):
        factor = factor.strip()
        if not factor:
            raise ValidationError(f"empty factor in monomial {text!r}")
        if "^" in factor:
            name, _, power = factor.partition("^")
            try:
                e = int(power)
            except ValueError:
                raise ValidationError(f"bad exponent {power!r} in {text!r}") from None
            if e < 0:
                raise ValidationError(f"negative exponent in {text!r}")
        else:
            name, e = factor, 1
        name = name.strip()
        try:
            i = algebra.index_of(name)
        except UsageError:
            raise ValidationError(f"unknown generator {name!r} in {text!r}") from None
        exps[i] += e
    return Monomial(tuple(exps))


def parse_polynomial(algebra: PolyAlgebraSpec, text: str) -> Polynomial:
    text = text.strip()
    if text == "0":
        return Polynomial.zero()
    terms: set[Monomial] = set()
    for chunk in text.split("+"):
        terms ^= {parse_monomial(algebra, chunk)}
    return Polynomial(frozenset(terms))
