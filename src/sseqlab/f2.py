"""Exact linear algebra over the two-element field.

Vectors and matrix rows are bit-packed into Python integers: bit ``i``
of a word is the coefficient of coordinate ``i``, so every row
operation is a single XOR of arbitrary-width machine words.  All
returned bases are in reduced row-echelon form, which makes equality
of subspaces testable as equality of basis lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvariantBreach, UsageError


def _parity(word: int) -> int:
    return word.bit_count() & 1


def _lowest_bit(word: int) -> int:
    """Index of the least significant set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


@dataclass(frozen=True)
class F2Vector:
    """A vector in F_2^length, support held in the bits of one integer."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise UsageError(f"negative vector length {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise UsageError("support index out of range")

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "F2Vector":
        bits = 0
        for i in support:
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def unit(cls, length: int, i: int) -> "F2Vector":
        return cls(length, 1 << i)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.length) if self.bits >> i & 1)

    def is_zero(self) -> bool:
        return self.bits == 0

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise UsageError(f"coordinate {i} out of range for length {self.length}")
        return self.bits >> i & 1

    def __xor__(self, other: "F2Vector") -> "F2Vector":
        if self.length != other.length:
            raise UsageError("vector length mismatch")
        return F2Vector(self.length, self.bits ^ other.bits)

    def __str__(self) -> str:
        return "".join(str(self.bits >> i & 1) for i in range(self.length))


@dataclass(frozen=True)
class F2Matrix:
    """Dense matrix over F_2 with bit-packed rows (row-major)."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise UsageError("negative matrix dimension")
        if len(self.row_bits) != self.rows:
            raise UsageError("row count does not match row data")
        for word in self.row_bits:
            if word < 0 or word >> self.cols:
                raise UsageError("row entries out of column range")

    @classmethod
    def from_rows(cls, entries: Sequence[Sequence[int]], cols: Optional[int] = None) -> "F2Matrix":
        if cols is None:
            cols = len(entries[0]) if entries else 0
        words = []
        for row in entries:
            if len(row) != cols:
                raise UsageError("ragged rows")
            word = 0
            for j, e in enumerate(row):
                if e & 1:
                    word |= 1 << j
            words.append(word)
        return cls(len(entries), cols, tuple(words))

    @classmethod
    def from_columns(cls, columns: Sequence[F2Vector], rows: Optional[int] = None) -> "F2Matrix":
        if rows is None:
            if not columns:
                raise UsageError("cannot infer row count from an empty column list")
            rows = columns[0].length
        words = [0] * rows
        for j, col in enumerate(columns):
            if col.length != rows:
                raise UsageError("column length mismatch")
            for i in range(rows):
                if col.bits >> i & 1:
                    words[i] |= 1 << j
        return cls(rows, len(columns), tuple(words))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> F2Vector:
        return F2Vector(self.cols, self.row_bits[i])

    def column(self, j: int) -> F2Vector:
        if not 0 <= j < self.cols:
            raise UsageError(f"column {j} out of range")
        bits = 0
        for i, word in enumerate(self.row_bits):
            if word >> j & 1:
                bits |= 1 << i
        return F2Vector(self.rows, bits)

    def columns(self) -> list[F2Vector]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "F2Matrix":
        words = [0] * self.cols
        for i, word in enumerate(self.row_bits):
            while word:
                j = _lowest_bit(word)
                words[j] |= 1 << i
                word &= word - 1
        return F2Matrix(self.cols, self.rows, tuple(words))

    def apply(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product m*v, with v of length cols."""
        if v.length != self.cols:
            raise UsageError("vector length does not match column count")
        bits = 0
        for i, word in enumerate(self.row_bits):
            if _parity(word & v.bits):
                bits |= 1 << i
        return F2Vector(self.rows, bits)

    def matmul(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise UsageError("inner dimensions do not match")
        other_t = other.transpose()
        words = []
        for word in self.row_bits:
            out = 0
            for j, col_word in enumerate(other_t.row_bits):
                if _parity(word & col_word):
                    out |= 1 << j
            words.append(out)
        return F2Matrix(self.rows, other.cols, tuple(words))

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.row_bits)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))


def _echelon(words: Iterable[int]) -> dict[int, int]:
    """Semi-echelon of bit-packed rows, pivot (lowest set bit) -> row, zero rows dropped.

    A row is reduced only until its lowest bit is a new pivot; the pivots are the RREF's.
    """
    rows: dict[int, int] = {}
    for word in words:
        while word:
            pivot = (word & -word).bit_length() - 1  # _lowest_bit, inlined
            if pivot not in rows:
                rows[pivot] = word
                break
            word ^= rows[pivot]
    return rows


def _rref_words(words: Iterable[int]) -> list[tuple[int, int]]:
    """Reduced row-echelon form of bit-packed rows.

    Returns (pivot index, row word) pairs sorted by pivot; zero rows are
    dropped.  Pivot of a row is its lowest set bit.  The rows go into a
    semi-echelon, and one back-substitution, highest pivot first, clears
    each pivot column outside its own row.
    """
    rows = _echelon(words)
    mask = sum(1 << pivot for pivot in rows)
    for pivot in sorted(rows, reverse=True):
        row = rows[pivot]
        hits = (row & mask) ^ (1 << pivot)
        while hits:
            row ^= rows[_lowest_bit(hits)]
            hits &= hits - 1
        rows[pivot] = row
    return sorted(rows.items())


def row_reduce(vectors: Sequence[F2Vector]) -> list[F2Vector]:
    """Canonical (RREF) basis of the span of the given vectors."""
    if not vectors:
        return []
    length = vectors[0].length
    for v in vectors:
        if v.length != length:
            raise UsageError("vector length mismatch")
    return [F2Vector(length, word) for _, word in _rref_words(v.bits for v in vectors)]


def reduce_against(basis: Sequence[F2Vector], v: F2Vector) -> F2Vector:
    """Residue of v after elimination against an echelon basis.

    Rows are read in insertion order.  Each row's pivot is its lowest
    set bit, and that bit is clear in every later row; an RREF list is
    one such echelon, and appending a nonzero residue keeps it one.
    The residue is zero exactly when v is in the span.
    """
    bits = v.bits
    for b in basis:
        row = b.bits
        if bits & row & -row:  # the row's pivot bit is set in the residue
            bits ^= row
    return F2Vector(v.length, bits)


def in_span(basis: Sequence[F2Vector], v: F2Vector) -> bool:
    """Whether v lies in the span of an echelon basis (see ``reduce_against``)."""
    return reduce_against(basis, v).is_zero()


def rank(m: F2Matrix) -> int:
    """Dimension of the row space (= column space) over F_2."""
    return len(_rref_words(m.row_bits))


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """RREF basis of {v : m*v = 0}; size is cols - rank(m)."""
    reduced = _rref_words(m.row_bits)
    pivots = {p for p, _ in reduced}
    kernel_words = []
    for free in range(m.cols):
        if free in pivots:
            continue
        word = 1 << free
        for p, row in reduced:
            if row >> free & 1:
                word |= 1 << p
        kernel_words.append(word)
    return [F2Vector(m.cols, word) for _, word in _rref_words(kernel_words)]


def image_basis(m: F2Matrix) -> list[F2Vector]:
    """RREF basis of the column space; size is rank(m)."""
    return [F2Vector(m.rows, word) for _, word in _rref_words(m.transpose().row_bits)]


def solve(m: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """Some x with m*x = b, or None when b is outside the column space."""
    if b.length != m.rows:
        raise UsageError(
            f"right-hand side length {b.length} does not match row count {m.rows}"
        )
    augmented = (
        word | ((b.bits >> i & 1) << m.cols) for i, word in enumerate(m.row_bits)
    )
    rows = _echelon(augmented)
    if m.cols in rows:
        return None
    x = 0  # back-substitute the right-hand side alone, highest pivot first
    for pivot, row in sorted(rows.items(), reverse=True):
        if (row >> m.cols ^ _parity(row & x)) & 1:
            x |= 1 << pivot
    return F2Vector(m.cols, x)


def quotient_dim(space: Sequence[F2Vector], subspace: Sequence[F2Vector]) -> int:
    """dim span(space) - dim span(subspace), with containment enforced."""
    space_basis = row_reduce(space)
    for v in subspace:
        if not in_span(space_basis, v):
            raise InvariantBreach(
                "subspace vector outside the ambient span: inconsistent page data"
            )
    return len(space_basis) - len(row_reduce(subspace))
