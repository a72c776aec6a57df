"""Gauge-group pipeline for principal bundles over the four-sphere.

Encodes the 2-local rules for the transgressive scalar eps(k) (mod-4
periodicity, vanishing on multiples of 4, residues 1 and 3 grouped by
default), assembles the fibration data for a given bundle class k, and
reports the limit page per residue branch.
"""

from __future__ import annotations

from typing import Mapping, Optional

from . import _deferred
from .config import DEFAULT_EPSILON_RULE, EpsilonRule, WorkbenchConfig
from .errors import ValidationError
from .fibration import (
    Bidegree, FibrationSpec, UnknownScalar, admissible_differentials, run_to_einfty,
)
from .graded import PolyAlgebraSpec
from .homotopy import FGAbelianGroup, HomotopyTable, TableEntry
from .record import Record

resolve_assignment = _deferred("specseq", "resolve_assignment")  # loaded by the first branch
total_dims = _deferred("specseq", "total_dims")

G2_BASE = PolyAlgebraSpec.from_pairs([("x_4", 4), ("x_6", 6), ("x_7", 7)])


def epsilon_class(
    k: int, rule: EpsilonRule = DEFAULT_EPSILON_RULE
) -> tuple[str, Optional[int]]:
    """Residue-class label of k and the proved scalar value, if any.

    Reduction uses the mathematical (nonnegative) modulus, so negative
    bundle classes land in the expected class.
    """
    label = rule.label_of(k)
    return label, rule.known(label)


def periodicity_check(k1: int, k2: int, modulus: int = 4) -> bool:
    """True when the two bundle classes share a residue mod ``modulus``."""
    return k1 % modulus == k2 % modulus


def g2_homotopy_table(
    pi6: FGAbelianGroup = FGAbelianGroup.cyclic(3),
    pi8: FGAbelianGroup = FGAbelianGroup.cyclic(2),
    pi8_exact: bool = False,
) -> HomotopyTable:
    """Low-degree homotopy input data for the rank-2 exceptional group.

    pi_6 is 3-torsion (its order is configurable and never affects
    mod-2 output); pi_8 is only pinned to contain 2-torsion unless the
    caller marks it exact.
    """
    zero = FGAbelianGroup.ZERO
    cite = "Mimura-Toda"
    if pi6.free_rank or any(t % 3 for t in pi6.torsion):
        raise ValidationError("pi_6 placeholder must be a 3-group")
    if not any(t % 2 == 0 for t in pi8.torsion):
        raise ValidationError("pi_8 placeholder must contain 2-torsion")
    return HomotopyTable(
        {
            3: TableEntry(FGAbelianGroup.free(1), True, cite),
            4: TableEntry(zero, True, cite),
            5: TableEntry(zero, True, cite),
            6: TableEntry(pi6, True, f"{cite} (3-torsion; order configurable)"),
            7: TableEntry(zero, True, cite),
            8: TableEntry(pi8, pi8_exact, f"{cite} (contains 2-torsion)"),
        }
    )


def g2_fibration_spec(
    degree_bound: int = 10,
    table: Optional[HomotopyTable] = None,
    extra_fibre: Optional[Mapping[int, tuple[str, ...]]] = None,
) -> FibrationSpec:
    """Fibration data: polynomial base, derived fibre truncation, unknown eps.

    The fibre comes from ``WorkbenchConfig.fibration_spec``, the one derivation
    path, with ``extra_fibre`` as declared degrees; this adds only the g2 guards.
    """
    extra = dict(extra_fibre or {})
    if any(degree <= 5 for degree in extra):
        raise ValidationError("extra fibre generators must sit in degrees >= 6")
    spec = WorkbenchConfig(
        G2_BASE,
        degree_bound,
        homotopy=g2_homotopy_table() if table is None else table,
        fibre_derive=True,
        fibre_explicit=extra,
    ).fibration_spec()
    dims = {d: ">=0" if d in spec.unproven_degrees else spec.fibre_dim(d) for d in range(1, 6)}
    dims = {d: n for d, n in dims.items() if n}  # degrees 1-4 must be derived exactly 0
    if dims != {5: 1}:  # a lone derived class in degree 5 is u_5
        raise ValidationError(
            f"the g2 fibre truncation must derive one class, in degree 5; got dims {dims}"
        )
    unknowns = (UnknownScalar("eps", "u_5", 6, G2_BASE.gen("x_6")),)
    return FibrationSpec(spec.base, spec.fibre_gens, degree_bound, unknowns, spec.unproven_degrees)


class GaugeBranch(Record):
    """One resolved-scalar run: survivor dims of the tracked submodule."""

    def __init__(
        self, values: tuple[tuple[str, int], ...], total_dims: tuple[int, ...],
        bidegree_dims: tuple[tuple[Bidegree, int], ...],
    ) -> None:
        self.__dict__.update(values=values, total_dims=total_dims, bidegree_dims=bidegree_dims)


class GaugeReport(Record):
    def __init__(
        self, k: int, epsilon_label: str, epsilon_known: Optional[int],
        branches: tuple[GaugeBranch, ...], admissible: tuple[tuple[int, Bidegree, Bidegree], ...],
        notes: tuple[str, ...],
    ) -> None:
        self.__dict__.update(
            k=k, epsilon_label=epsilon_label, epsilon_known=epsilon_known, branches=branches,
            admissible=admissible, notes=notes,
        )

    def payload(self):
        """Everything except the recorded k, for periodicity comparisons."""
        return (
            self.epsilon_label,
            self.epsilon_known,
            self.branches,
            self.admissible,
            self.notes,
        )


def gauge_report(
    k: int,
    overrides: Optional[Mapping[str, int]] = None,
    *,
    rule: EpsilonRule = DEFAULT_EPSILON_RULE,
    spec: Optional[FibrationSpec] = None,
) -> GaugeReport:
    """Resolve eps for the class of k and run every remaining branch.

    Overrides inject conjectured values per class label; they are
    rejected only when they contradict a proved value.  ``spec`` (with
    exactly one unknown, the transgressive scalar) defaults to
    ``g2_fibration_spec()``; every branch runs from the spec's kept starting page.
    """
    overrides = dict(overrides or {})
    for label, value in overrides.items():
        if label not in rule.labels():
            raise ValidationError(f"override for unknown class {label!r}")
        if value not in (0, 1):
            raise ValidationError("override values must be 0 or 1")
        proved = rule.known(label)
        if proved is not None and value != proved:
            raise ValidationError(
                f"override eps={value} on class {label} contradicts the proved value {proved}"
            )
    label, known = epsilon_class(k, rule)
    notes = [
        f"residue classes mod {rule.modulus}: the scalar depends only on k mod "
        f"{rule.modulus} (the connecting map is k times a map of 2-primary order "
        f"{rule.modulus})",
    ]
    if known is not None:
        branch_values = [known]
        if 0 in dict(rule.classes).get(label, ()):
            notes.append(
                f"class {label}: eps = {known} is proved (the trivial bundle's "
                "evaluation fibration admits a section, so no base class is hit)"
            )
        else:
            notes.append(f"class {label}: eps = {known} is pinned by the residue rule")
    elif label in overrides:
        branch_values = [overrides[label]]
        notes.append(f"class {label}: eps = {overrides[label]} injected by override")
    else:
        branch_values = [0, 1]
        notes.append(
            f"class {label}: eps undetermined; both branches reported"
        )
    if spec is None:
        spec = g2_fibration_spec()
    if len(spec.unknowns) != 1:
        raise ValidationError(
            "the gauge pipeline expects exactly one unknown, the transgressive scalar"
        )
    scalar_name = spec.unknowns[0].name
    branches = []
    for value in branch_values:
        assignment = resolve_assignment(spec, {scalar_name: value})
        _, report = run_to_einfty(spec, assignment)
        flat = tuple(
            (bd, dim) for j in sorted(report) for bd, dim in report[j]
        )
        branches.append(
            GaugeBranch(
                values=((scalar_name, value),),
                total_dims=tuple(total_dims(report, spec.degree_bound)),
                bidegree_dims=flat,
            )
        )
    top_fibre = max(spec.fibre_degrees())
    notes.append(
        "dims cover the base row and the declared fibre classes; fibre degrees "
        f"above {top_fibre} are not modelled"
    )
    return GaugeReport(
        k=k,
        epsilon_label=label,
        epsilon_known=known,
        branches=tuple(branches),
        admissible=tuple(admissible_differentials(spec)),
        notes=tuple(notes),
    )
