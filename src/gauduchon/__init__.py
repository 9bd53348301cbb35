"""Exact invariant Hermitian geometry on finite-dimensional Lie algebras.

The library computes with the complexified exterior algebra of a Lie
algebra in exact rational arithmetic: structure equations and the split
differentials, invariant Hermitian metrics and their class predicates
(Kaehler, pluriclosed, balanced, astheno, k-th Gauduchon), the Gauduchon
sign scalar, Lee forms, the Lefschetz operator pair, a catalog of structure
families with closed-form oracles, Sasakian-product and circle-bundle
constructions, and a deterministic feasibility search over metric space.
"""

from .errors import (
    BadInput,
    BadK,
    BadParams,
    DimensionMismatch,
    DslSyntaxError,
    GauduchonError,
    JacobiViolation,
    NotAlmostComplex,
    NotIntegrable,
    NotPositive,
    NotQuasiSasakian,
    NotSkewHermitian,
    UnknownFamily,
)
from .scalars import ComplexRational, cr
from .forms import Form, wedge
from .structures import (
    ComplexFrame,
    RealLieAlgebra,
    StructureEquations,
    complex_frame_from_real,
    complex_structure_from_coframe,
    structure_from_coframe,
)
from .dsl import (
    format_structure,
    parse_complex_literal,
    parse_structure,
    structure_from_json,
    structure_to_json,
)
from .hermitian import (
    ClassReport,
    Lefschetz,
    Metric,
    classify,
    gamma_scalar,
    gauduchon_form,
    gauduchon_reduction_check,
    lee_form,
    metric_from_form,
    omega_power,
)
from .sasakian import (
    AdmissibleSet,
    BundleExtension,
    ContactData,
    ProductParams,
    ProductReport,
    bundle_extend,
    coefficient_C,
    contact_from_json,
    contact_to_json,
    product_obstruction,
    product_report,
    solve_admissible,
)
from .search import (
    SearchOutcome,
    Target,
    balanced_feasibility_jt,
    find_metric,
    parse_target,
    reduced6_feasibility,
    sample_positive_metric,
)
from .verify import ReproductionReport, run_verify_paper

__version__ = "0.1.0"

__all__ = [
    "AdmissibleSet",
    "BadInput",
    "BadK",
    "BadParams",
    "BundleExtension",
    "ClassReport",
    "ComplexFrame",
    "ComplexRational",
    "ContactData",
    "DimensionMismatch",
    "DslSyntaxError",
    "Form",
    "GauduchonError",
    "JacobiViolation",
    "Lefschetz",
    "Metric",
    "NotAlmostComplex",
    "NotIntegrable",
    "NotPositive",
    "NotQuasiSasakian",
    "NotSkewHermitian",
    "ProductParams",
    "ProductReport",
    "ReproductionReport",
    "SearchOutcome",
    "StructureEquations",
    "RealLieAlgebra",
    "Target",
    "UnknownFamily",
    "balanced_feasibility_jt",
    "bundle_extend",
    "classify",
    "coefficient_C",
    "contact_from_json",
    "contact_to_json",
    "complex_frame_from_real",
    "complex_structure_from_coframe",
    "cr",
    "find_metric",
    "format_structure",
    "gamma_scalar",
    "gauduchon_form",
    "gauduchon_reduction_check",
    "lee_form",
    "metric_from_form",
    "omega_power",
    "parse_complex_literal",
    "parse_structure",
    "parse_target",
    "product_obstruction",
    "product_report",
    "reduced6_feasibility",
    "run_verify_paper",
    "sample_positive_metric",
    "solve_admissible",
    "structure_from_coframe",
    "structure_from_json",
    "structure_to_json",
    "wedge",
]
