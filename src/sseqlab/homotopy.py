"""Finitely generated abelian groups and the fibre-cohomology pipeline.

Chains the degree shift for iterated loop spaces, the Hurewicz
transfer, and universal coefficients into the low-degree mod-2
cohomology of the fibre.  Missing table degrees are hard errors:
silently treating absence as the zero group would fabricate vanishing
results.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import ClassVar, Mapping, Optional

from .errors import IncompleteTableError, UsageError, ValidationError
from .record import Record


class FGAbelianGroup(Record):
    """Z^free_rank plus cyclic factors Z/t for t in torsion (each >= 2)."""

    ZERO: ClassVar["FGAbelianGroup"]

    def __init__(self, free_rank: int = 0, torsion: tuple[int, ...] = ()) -> None:
        if free_rank < 0:
            raise ValidationError("free rank must be nonnegative")
        if any(t < 2 for t in torsion):
            raise ValidationError("torsion coefficients must be >= 2")
        self.__dict__.update(free_rank=free_rank, torsion=torsion)

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
    """dim_{F_2} Hom(g, F_2): free rank plus the even torsion count."""
    return g.free_rank + sum(1 for t in g.torsion if t % 2 == 0)


def ext1_to_f2(g: FGAbelianGroup) -> int:
    """dim_{F_2} Ext^1(g, F_2): Ext^1(Z/n, F_2) = F_2/nF_2, zero for odd n."""
    return sum(1 for t in g.torsion if t % 2 == 0)


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
        self.__dict__.update(group=group, exact=exact, citation=citation)

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


def connectivity(table: HomotopyTable) -> int:
    """Largest c with table[1..c] all zero.

    The table must be populated degree by degree up to its first
    nonzero entry; running past the populated range raises.
    """
    c = 0
    while True:
        entry = table.entry(c + 1)
        if not entry.group.is_zero():
            return c
        c += 1


def hurewicz_homology(
    table: HomotopyTable, window_top: int
) -> dict[int, TableEntry]:
    """Integral homology in degrees 1..window_top from homotopy groups.

    Below the connectivity c the homology vanishes; from c+1 through
    window_top the homotopy group is copied across.  Only degree c+1
    is the classical Hurewicz isomorphism; entries above it carry an
    explicit "asserted window" flag in their provenance.

    The connectivity scan stops at window_top: a table that is zero
    throughout the window yields zero homology there without needing
    deeper degrees to be populated.
    """
    c = 0
    while c < window_top and table.entry(c + 1).group.is_zero():
        c += 1
    if c < 1 and window_top >= 1:
        raise ValidationError("hurewicz transfer needs a 1-connected table")
    homology: dict[int, TableEntry] = {}
    for i in range(1, window_top + 1):
        if i <= c:
            homology[i] = TableEntry(
                FGAbelianGroup.ZERO, True, f"zero below connectivity {c}"
            )
        else:
            entry = table.entry(i)
            if i == c + 1:
                note = "hurewicz isomorphism (first nonvanishing degree)"
            else:
                note = (
                    f"hurewicz transfer in degree {i}: asserted window beyond the "
                    f"classical degree {c + 1}"
                )
            citation = f"{entry.citation}; {note}" if entry.citation else note
            homology[i] = TableEntry(entry.group, entry.exact, citation)
    return homology


class DimEntry(Record):
    """A cohomology dimension, either exact or a lower bound."""

    def __init__(self, value: int, exact: bool = True) -> None:
        self.__dict__.update(value=value, exact=exact)

    def __str__(self) -> str:
        return str(self.value) if self.exact else f">={self.value}"


class GradedDims(Record):
    """Dimensions per degree, a read-only copy; degree 0 is pinned to 1 (path-connected)."""

    def __init__(self, dims: Optional[Mapping[int, DimEntry]] = None) -> None:
        dims = MappingProxyType(dict(dims or {}))
        zero = dims.get(0)
        if zero is not None and not (zero.value == 1 and zero.exact):
            raise ValidationError("degree-0 dimension must be exactly 1")
        self.__dict__["dims"] = dims

    def entry(self, degree: int) -> DimEntry:
        return self.dims[degree]

    def items(self):
        return sorted(self.dims.items())


def fibre_truncation_dims(table: HomotopyTable, top: int = 5) -> GradedDims:
    """Mod-2 cohomology dims of the fibre in degrees 0..top.

    Chains the Hurewicz transfer and universal coefficients on an
    (already loop-shifted) table.  A dimension is a lower bound when
    any group consumed by its computation has unpinned even torsion;
    mod-2 Hom and Ext only grow as torsion is added, so the computed
    value bounds every structure consistent with the table.
    """
    homology = hurewicz_homology(table, top)
    # degree-0 homology of a path-connected space
    homology[0] = TableEntry(FGAbelianGroup.free(1), True, "path-connected")
    dims = {0: DimEntry(1, True)}
    for j in range(1, top + 1):
        below, here = homology[j - 1], homology[j]
        value = uct_cohomology_dim(below.group, here.group)
        dims[j] = DimEntry(value, below.exact and here.exact)
    return GradedDims(dims)
