"""Mod-2 Serre spectral sequence workbench.

Exact F_2 linear algebra, graded polynomial algebras, the universal
coefficient pipeline for fibre cohomology, a bounded-window spectral
sequence engine with unknown transgressive scalars, gauge-group
reports over the four-sphere, and a bounded-degree hit-problem solver.

The public names below load lazily: ``import sseqlab`` compiles no
submodule, and each name imports its module on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
    "errors": "ConfigError IncompleteTableError InvariantBreach SseqlabError UsageError "
    "ValidationError",
    "f2": "F2Matrix F2Vector image_basis kernel_basis quotient_dim rank solve",
    "config": "EpsilonRule",
    "gauge": "DEFAULT_EPSILON_RULE GaugeBranch GaugeReport epsilon_class g2_fibration_spec "
    "g2_homotopy_table gauge_report periodicity_check",
    "graded": "Monomial PolyAlgebraSpec Polynomial basis_in_degree multiply poincare_dims",
    "homotopy": "DimEntry FGAbelianGroup GradedDims HomotopyTable TableEntry connectivity "
    "ext1_to_f2 fibre_truncation_dims hom_to_f2 hurewicz_homology loopspace_shift "
    "uct_cohomology_dim",
    "fibration": "BigradedBasis FibrationSpec UnknownScalar admissible_differentials build_e2 "
    "run_to_einfty",
    "specseq": "DifferentialAssignment Page resolve_assignment sweep_unknowns total_dims",
    "steenrod": "HitReport SteenrodTable hit_quotient sq suggest_g2_table table_from_entries "
    "validate_table",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


def _deferred(module: str, name: str):
    """Stand-in for ``sseqlab.<module>.<name>`` that imports its module when first called."""

    def call(*args, **kwargs):
        return getattr(import_module(f"{__name__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call
