"""Exact linear algebra over the two-element field.

Vectors and matrix rows are bit-packed into Python integers: bit ``i`` of a word is
the coefficient of coordinate ``i``, so every row operation is a single XOR of
arbitrary-width machine words.  An ``F2Vector`` is a slotted immutable value: equal and
hashed by (length, bits).  The public constructors, copies and unpickling check their
input; f2's own results, in range by construction, take the trusted path (``_vector``,
``_matrix``).  All returned bases are in reduced row-echelon form, which makes equality
of subspaces testable as equality of basis lists.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InvariantBreach, UsageError
from .record import Record, kept


def _parity(word: int) -> int:
    return word.bit_count() & 1


def _lowest_bit(word: int) -> int:
    """Index of the least significant set bit of a nonzero word."""
    return (word & -word).bit_length() - 1


class F2Vector(Record):
    """A vector in F_2^length, support held in the bits of one integer.

    An immutable value compared and hashed by (length, bits), its range checked here (not
    in ``_vector``); slotted, so the vectors the engine builds by the thousand stay cheap.
    """

    __slots__ = ("length", "bits")

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise UsageError(f"negative vector length {length}")
        if bits < 0 or bits >> length:
            raise UsageError("support index out of range")
        _set_length(self, length)
        _set_bits(self, bits)

    @classmethod
    def from_support(cls, length: int, support: Iterable[int]) -> "F2Vector":
        bits = 0
        for i in support:
            if i < 0:
                raise UsageError("support index out of range")
            bits |= 1 << i
        return cls(length, bits)

    @classmethod
    def unit(cls, length: int, i: int) -> "F2Vector":
        if i < 0:
            raise UsageError("support index out of range")
        return cls(length, 1 << i)

    @property
    def support(self) -> tuple[int, ...]:
        out = []
        bits = self.bits
        while bits:
            out.append(_lowest_bit(bits))
            bits &= bits - 1
        return tuple(out)

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


# the slot setters, which bypass the frozen __setattr__
_set_length = F2Vector.length.__set__
_set_bits = F2Vector.bits.__set__


def _vector(length: int, bits: int) -> F2Vector:
    """``F2Vector(length, bits)`` unchecked: only for bits proven to lie below ``length``."""
    v = object.__new__(F2Vector)
    _set_length(v, length)
    _set_bits(v, bits)
    return v


class F2Matrix(Record):
    """Dense matrix over F_2, bit-packed; it keeps the word form it was built from, rows or
    columns, and derives the other on first read."""

    def __init__(self, rows: int, cols: int, row_bits: Sequence[int]) -> None:
        row_bits = tuple(row_bits)
        if rows < 0 or cols < 0:
            raise UsageError("negative matrix dimension")
        if len(row_bits) != rows:
            raise UsageError("row count does not match row data")
        if row_bits and (min(row_bits) < 0 or max(row_bits) >> cols):
            raise UsageError("row entries out of column range")
        self.__dict__.update(rows=rows, cols=cols, row_bits=row_bits)

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
        if any(col.length != rows for col in columns):
            raise UsageError("column length mismatch")
        words = tuple(col.bits for col in columns)
        return _matrix(rows, len(words), None, words)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    def row(self, i: int) -> F2Vector:
        if not 0 <= i < self.rows:
            raise UsageError(f"row {i} out of range")
        return _vector(self.cols, self.row_bits[i])

    def column(self, j: int) -> F2Vector:
        if not 0 <= j < self.cols:
            raise UsageError(f"column {j} out of range")
        return _vector(self.rows, self._column_words[j])

    def columns(self) -> list[F2Vector]:
        return [_vector(self.rows, word) for word in self._column_words]

    def transpose(self) -> "F2Matrix":
        return _matrix(self.cols, self.rows, self._column_words, self.row_bits)

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
        other_columns = other._column_words
        words = []
        for word in self.row_bits:
            out = 0
            for j, col_word in enumerate(other_columns):
                if _parity(word & col_word):
                    out |= 1 << j
            words.append(out)
        return _matrix(self.rows, other.cols, tuple(words))

    def is_zero(self) -> bool:
        return all(w == 0 for w in self.row_bits)

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(self.rows))

    @kept
    def row_bits(self) -> tuple[int, ...]:
        """Bit-packed rows, for a matrix built from its columns: bit j of word i is entry (i, j)."""
        return _transpose(self._column_words, self.rows)

    @kept
    def _column_words(self) -> tuple[int, ...]:
        """Bit-packed columns: bit i of word j is entry (i, j)."""
        return _transpose(self.row_bits, self.cols)

    @kept
    def _column_echelon(self) -> dict[int, int]:
        """``_indexed_echelon`` of the columns: the kept ones are the RREF pivot columns, the
        tag-only rows span the kernel, and every ``solve`` and ``kernel_basis`` reads it."""
        return _indexed_echelon(self._column_words, self.rows)


def _matrix(rows: int, cols: int, row_bits: Optional[tuple], column_words: Optional[tuple] = None):
    """Unchecked ``F2Matrix`` from its row words, its column words or both; ``None`` is derived."""
    m = object.__new__(F2Matrix)
    m.__dict__.update(rows=rows, cols=cols)
    if row_bits is not None:
        m.__dict__["row_bits"] = row_bits
    if column_words is not None:
        m.__dict__["_column_words"] = column_words
    return m


def _transpose(words: Sequence[int], width: int) -> tuple[int, ...]:
    """Bit-packed transpose: bit j of word i becomes bit i of word j, for j < width."""
    out = [0] * width
    for i, word in enumerate(words):
        while word:
            out[(word & -word).bit_length() - 1] |= 1 << i  # _lowest_bit, inlined
            word &= word - 1
    return tuple(out)


def _echelon(words: Iterable[int], tag: int = 0) -> dict[int, int]:
    """Semi-echelon of bit-packed rows, pivot (lowest set bit) -> row, zero rows dropped.

    Word i is first tagged (or-ed) with ``tag << i``, then reduced only until its lowest bit
    is a new pivot; the pivots are the RREF's.
    """
    rows: dict[int, int] = {}
    for word in words:
        word |= tag
        tag <<= 1
        while word:
            pivot = (word & -word).bit_length() - 1  # _lowest_bit, inlined
            if pivot not in rows:
                rows[pivot] = word
                break
            word ^= rows[pivot]
    return rows


def _indexed_echelon(words: Sequence[int], width: int) -> dict[int, int]:
    """``_echelon`` of the words below ``width``, word i tagged at bit ``width + i``: one row
    per word, in word order.  A row with its pivot below ``width`` is a kept word (outside the
    span of those before it), its highest bit its own tag; any other row is tags alone, a
    combination of the words that sums to zero."""
    return _echelon(words, 1 << width)


def _kept(words: Sequence[int], width: int) -> list[int]:
    """The greedy choice: ascending indices of the words outside the span of those before."""
    return [i for i, pivot in enumerate(_indexed_echelon(words, width)) if pivot < width]


def _rref(words: Iterable[int]) -> tuple[list[int], dict[int, int]]:
    """RREF of bit-packed rows: the pivots (lowest set bits), sorted once, and pivot -> row.

    Highest pivot first, each row of the semi-echelon is cleared of the pivots ``above`` it;
    a row that meets none is already reduced.  Zero rows are dropped."""
    rows = _echelon(words)
    pivots, above = sorted(rows), 0
    for pivot in reversed(pivots):
        if hits := rows[pivot] & above:
            row = rows[pivot]
            while hits:
                row ^= rows[(hits & -hits).bit_length() - 1]  # _lowest_bit, inlined
                hits &= hits - 1
            rows[pivot] = row
        above |= 1 << pivot
    return pivots, rows


def _rref_words(words: Iterable[int]) -> list[tuple[int, int]]:
    """The RREF (``_rref``) as (pivot index, row word) pairs, sorted by pivot."""
    pivots, rows = _rref(words)
    return [(pivot, rows[pivot]) for pivot in pivots]


def row_reduce(vectors: Sequence[F2Vector]) -> list[F2Vector]:
    """RREF basis of the span, each distinct word reduced once; a row equal to an input is it."""
    length, given = vectors[0].length if vectors else 0, {}
    for v in vectors:
        if v.length != length:
            raise UsageError("vector length mismatch")
        given.setdefault(v.bits, v)
    pivots, rows = _rref(given)
    return [given.get(word) or _vector(length, word) for word in map(rows.__getitem__, pivots)]


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
    return v if bits == v.bits else F2Vector(v.length, bits)


def in_span(basis: Sequence[F2Vector], v: F2Vector) -> bool:
    """Whether v lies in the span of an echelon basis (see ``reduce_against``)."""
    bits = v.bits
    for b in basis:
        if bits & (row := b.bits) & -row:
            bits ^= row
            if not bits:
                return True
    return not bits


def rank(m: F2Matrix) -> int:
    """Dimension of the row space (= column space) over F_2: the semi-echelon's row count."""
    return len(_echelon(m.row_bits))


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """RREF basis of {v : m*v = 0}, size cols - rank(m): the tag-only rows of the column
    echelon ``solve`` reads, one per column not kept, so an injective ``m`` has none."""
    rows = m.rows
    relations = [word >> rows for pivot, word in m._column_echelon.items() if pivot >= rows]
    return [_vector(m.cols, word) for _, word in _rref_words(relations)] if relations else []


def image_basis(m: F2Matrix) -> list[F2Vector]:
    """RREF basis of the column space; size is rank(m)."""
    return [_vector(m.rows, word) for _, word in _rref_words(m._column_words)]


def solve(m: F2Matrix, b: F2Vector) -> Optional[F2Vector]:
    """Some x with m*x = b (free variables 0), or None when b is outside the column space.

    One column echelon is kept per matrix (``F2Matrix._column_echelon``), and
    b is reduced by its lowest bit against it: a call costs one lookup per
    pivot b meets, not the size of ``m``.  The tags of the rows used sum to x,
    and they name only RREF pivot columns, so the free variables stay 0.
    """
    if b.length != m.rows:
        raise UsageError(
            f"right-hand side length {b.length} does not match row count {m.rows}"
        )
    echelon, mask = m._column_echelon, (1 << m.rows) - 1
    y = b.bits  # b below bit ``rows``; the tags of the rows used collect above it
    while low := y & mask:
        row = echelon.get((low & -low).bit_length() - 1)  # _lowest_bit, inlined
        if row is None:
            return None  # a pivot no column reaches: b is outside the column space
        y ^= row
    return _vector(m.cols, y >> m.rows)


def quotient_dim(space: Sequence[F2Vector], subspace: Sequence[F2Vector]) -> int:
    """dim span(space) - dim span(subspace), with containment enforced."""
    space_basis = row_reduce(space)
    for v in subspace:
        if not in_span(space_basis, v):
            raise InvariantBreach(
                "subspace vector outside the ambient span: inconsistent page data"
            )
    return len(space_basis) - len(row_reduce(subspace))
