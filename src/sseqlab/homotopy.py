"""Finitely generated abelian groups and the fibre-cohomology pipeline.

Chains the degree shift for iterated loop spaces, the Hurewicz
transfer, and universal coefficients into the low-degree mod-2
cohomology of the fibre.  Missing table degrees are hard errors:
silently treating absence as the zero group would fabricate vanishing
results.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import ClassVar, Mapping, Optional

from .errors import IncompleteTableError, UsageError, ValidationError
from .record import Record, frozen_copy


class FGAbelianGroup(Record):
    """Z^free_rank plus cyclic factors Z/t for t in torsion (each >= 2)."""

    ZERO: ClassVar["FGAbelianGroup"]

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()) -> None:
        if free_rank < 0:
            raise ValidationError("free rank must be nonnegative")
        if torsion and min(torsion) < 2:
            raise ValidationError("torsion coefficients must be >= 2")
        fields = self.__dict__  # one store per field: no keyword dict per group
        fields["free_rank"], fields["torsion"] = free_rank, torsion

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FGAbelianGroup":
        return cls(0, (n,))

    def __add__(self, other: "FGAbelianGroup") -> "FGAbelianGroup":
        """Direct sum."""
        return FGAbelianGroup(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


FGAbelianGroup.ZERO = FGAbelianGroup(0, ())


def hom_to_f2(g: FGAbelianGroup) -> int:
    """dim_{F_2} Hom(g, F_2): free rank plus the even torsion count, which is Ext^1's."""
    return g.free_rank + ext1_to_f2(g)


def ext1_to_f2(g: FGAbelianGroup) -> int:
    """dim_{F_2} Ext^1(g, F_2): Ext^1(Z/n, F_2) = F_2/nF_2, zero for odd n."""
    return [t % 2 for t in g.torsion].count(0)


def uct_cohomology_dim(h_prev: FGAbelianGroup, h_cur: FGAbelianGroup) -> int:
    """dim H^i(X; F_2) from H_{i-1}(X; Z) and H_i(X; Z).

    The universal-coefficient sequence splits dimension-wise over a
    field, so the answer is Ext of the lower group plus Hom of the
    upper one.
    """
    return ext1_to_f2(h_prev) + hom_to_f2(h_cur)


class TableEntry(Record):
    """One homotopy/homology group with provenance.

    ``exact`` asserts that the even-torsion content of ``group`` is
    complete.  Odd torsion never contributes to mod-2 Hom or Ext, so a
    group known only up to its odd part (a "3-torsion" entry, say) can
    still be exact in this sense, while an entry known only to contain
    2-torsion is not.
    """

    INEXACT: ClassVar[str] = "contains "  # the text form's prefix when not exact

    def __init__(self, group: FGAbelianGroup, exact: bool = True, citation: str = "") -> None:
        fields = self.__dict__  # one store per field: no keyword dict per entry
        fields["group"], fields["exact"], fields["citation"] = group, exact, citation

    def __str__(self) -> str:
        """The group, prefixed by ``contains `` when the entry is not exact."""
        return ("" if self.exact else self.INEXACT) + str(self.group)


class HomotopyTable(Record):
    """Groups indexed by degree >= 1, a read-only copy in degree order; absent degrees raise."""

    def __init__(self, entries: Mapping[int, TableEntry]) -> None:
        for degree in entries:
            if degree < 1:
                raise ValidationError(f"table degree {degree} must be >= 1")
        self.__dict__["entries"] = MappingProxyType(dict(sorted(entries.items())))

    @classmethod
    def from_groups(
        cls, groups: Mapping[int, FGAbelianGroup], citation: str = ""
    ) -> "HomotopyTable":
        return cls({d: TableEntry(g, True, citation) for d, g in groups.items()})

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.entries)

    def entry(self, degree: int) -> TableEntry:
        try:
            return self.entries[degree]
        except KeyError:
            raise IncompleteTableError(
                f"degree {degree} is not populated; absence is not the zero group"
            ) from None

    def group(self, degree: int) -> FGAbelianGroup:
        return self.entry(degree).group

    def items(self):
        return self.entries.items()


def loopspace_shift(table: HomotopyTable, loops: int) -> HomotopyTable:
    """Table of the ``loops``-fold loop space: degree i reads i + loops.

    The loop-suspension adjunction gives pi_i(Omega X) = pi_{i+1}(X);
    iterating shifts by ``loops``.
    """
    if loops < 0:
        raise UsageError("loop count must be nonnegative")
    if loops == 0:
        return table
    shifted = {}
    for degree, entry in table.items():
        if degree - loops >= 1:
            note = f"{entry.citation} [shifted {loops} loops from degree {degree}]"
            shifted[degree - loops] = TableEntry(entry.group, entry.exact, note.strip())
    return HomotopyTable(shifted)


def _proven_zeros(table: HomotopyTable, limit: float) -> int:
    """Largest c <= limit with table[1..c] all exact zeros: a ``contains 0`` entry may hide
    2-torsion, so it stops the scan as a nonzero group does."""
    c = 0
    while c < limit and (entry := table.entry(c + 1)).exact and entry.group.is_zero():
        c += 1
    return c


def connectivity(table: HomotopyTable) -> int:
    """Largest c with table[1..c] all proven zero; the table must be populated up to the
    first entry that is not one, since reading past the populated range raises."""
    return _proven_zeros(table, math.inf)


def _hurewicz(table: HomotopyTable, window_top: int) -> tuple[int, list[TableEntry]]:
    """The Hurewicz rule: the connectivity c, scanned no further than window_top, and the
    table's own entries in degrees 1..window_top, which it copies across to homology."""
    c = _proven_zeros(table, window_top)
    if c < 1 and window_top >= 1:
        raise ValidationError("hurewicz transfer needs a 1-connected table")
    return c, [table.entry(i) for i in range(1, window_top + 1)]


def hurewicz_homology(table: HomotopyTable, window_top: int) -> dict[int, TableEntry]:
    """Integral homology in degrees 1..window_top from homotopy groups.

    Each degree keeps the table's group and exactness: zero through the
    connectivity c, copied across from c+1 through window_top.  Only degree
    c+1 is the classical Hurewicz isomorphism; entries above it carry an
    explicit "asserted window" flag in their provenance.

    The connectivity scan stops at window_top: a table that is zero
    throughout the window yields zero homology there without needing
    deeper degrees to be populated.
    """
    c, entries = _hurewicz(table, window_top)
    homology = {}
    for i, entry in enumerate(entries, start=1):
        note = f"zero below connectivity {c}" if i <= c else (
            "hurewicz isomorphism (first nonvanishing degree)" if i == c + 1 else
            f"hurewicz transfer in degree {i}: asserted window beyond the classical degree {c + 1}"
        )
        citation = f"{entry.citation}; {note}" if entry.citation and i > c else note
        homology[i] = TableEntry(entry.group, entry.exact, citation)
    return homology


class DimEntry(Record):
    """A cohomology dimension, either exact or a lower bound."""

    def __init__(self, value: int, exact: bool = True) -> None:
        fields = self.__dict__  # one store per field: no keyword dict per entry
        fields["value"], fields["exact"] = value, exact

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"


class GradedDims(Record):
    """Dimensions per degree, a read-only copy; degree 0 is pinned to 1 (path-connected)."""

    def __init__(self, dims: Optional[Mapping[int, DimEntry]] = None) -> None:
        dims = frozen_copy(dims or {})
        zero = dims.get(0)
        if zero is not None and not (zero.value == 1 and zero.exact):
            raise ValidationError("degree-0 dimension must be exactly 1")
        self.__dict__["dims"] = dims

    def entry(self, degree: int) -> DimEntry:
        return self.dims[degree]

    def items(self):
        return sorted(self.dims.items())


FIBRE_TOP = 5  # the fibre's cohomology is derived in degrees 0..FIBRE_TOP


def fibre_truncation_dims(table: HomotopyTable) -> GradedDims:
    """Mod-2 cohomology dims of the fibre in degrees 0..FIBRE_TOP.

    Chains ``hurewicz_homology``'s rule and universal coefficients on an
    (already loop-shifted) table, and builds only the dims: it reads the
    table's entries as they are, so no provenance text (``uct`` prints
    that).  A dimension is a lower bound when any group consumed by its
    computation has unpinned even torsion; mod-2 Hom and Ext only grow as
    torsion is added, so the computed value bounds every structure
    consistent with the table.
    """
    _c, entries = _hurewicz(table, FIBRE_TOP)
    homology = [TableEntry(FGAbelianGroup.free(1)), *entries]  # degree 0: path-connected
    dims = {0: DimEntry(1, True)}
    for j, (low, high) in enumerate(zip(homology, entries), start=1):
        dims[j] = DimEntry(uct_cohomology_dim(low.group, high.group), low.exact and high.exact)
    return GradedDims(dims)
