"""Exact computer algebra for fan-indexed matrix algebras.

From a regular fan in an integer lattice the package builds the algebra of
cone-pair-indexed matrices over Laurent polynomials whose off-corner entries
carry forced binomial divisors.  Finite-dimensional modules are handled in
diagram form (one vector space per cone, arrow pairs on covering pairs,
commuting torus monodromies), with validation, evaluation of algebra
elements, monodromy relation reports, descent gluing over the affine chart
cover, and equivariant base change along a torus quotient.

All arithmetic is exact: integers, rationals, and Laurent polynomials with
rational coefficients.  No floating point is used anywhere.
"""

from fanalg.lattice import IntMatrix, complete_to_basis, primitive, snf
from fanalg.laurent import (
    LaurentPoly,
    divide_by_binomial,
    divide_by_product,
    monomial_map,
)
from fanalg.fan import Fan, build_fan, covering_pairs
from fanalg.algebra import (
    AlgebraElement,
    central,
    delta,
    factorize,
    generators,
    idempotent,
    matrix_unit,
    membership_report,
    mu,
    transport,
    unit,
)
from fanalg.diagram import (
    BlockMap,
    DiagramModule,
    direct_sum,
    dupont_demo,
    evaluate,
    hom,
    relation_report,
    rep_check,
    validate,
)
from fanalg.descent import DescentDatum, check_cocycle, glue, restrict
from fanalg.equivariant import (
    EqDiagramModule,
    EqStructure,
    QuotientData,
    ag_structure,
    inflate,
    quotient_presentation,
    validate_equivariant,
)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix",
    "snf",
    "primitive",
    "complete_to_basis",
    "LaurentPoly",
    "divide_by_binomial",
    "divide_by_product",
    "monomial_map",
    "Fan",
    "build_fan",
    "covering_pairs",
    "AlgebraElement",
    "membership_report",
    "matrix_unit",
    "idempotent",
    "unit",
    "central",
    "generators",
    "factorize",
    "delta",
    "mu",
    "transport",
    "DiagramModule",
    "BlockMap",
    "validate",
    "evaluate",
    "rep_check",
    "relation_report",
    "dupont_demo",
    "hom",
    "direct_sum",
    "DescentDatum",
    "restrict",
    "check_cocycle",
    "glue",
    "QuotientData",
    "EqStructure",
    "EqDiagramModule",
    "quotient_presentation",
    "ag_structure",
    "validate_equivariant",
    "inflate",
]
