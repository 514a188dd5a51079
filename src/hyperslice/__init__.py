"""Slice function calculus in several variables over real alternative *-algebras.

Quaternions, octonions and Clifford algebras Cl(p,q) share one table-driven
core; on top of it the package provides stem functions, slice function
evaluation and representation, slice regularity checks, slice/star products,
Cauchy-type integral reconstruction, and root finding, plus a CLI.
"""

from .algebra import (
    AlgebraDef,
    ConeDecomposition,
    Element,
    cone_decompose,
    conj,
    invert,
    is_imaginary_unit,
    make_algebra,
    norm_sq,
    ordered_inverse_product,
    ordered_product,
    splitting_basis,
    trace,
)
from .cauchy import BoundaryTorus, cauchy_reconstruct, slice_cauchy_kernel
from .errors import HypersliceError
from .parser import (
    format_element,
    format_poly,
    parse_expression,
    parse_point,
    parse_unit,
)
from .regularity import (
    OrderedPolynomial,
    PowerSeries,
    is_slice_regular,
    poly_eval,
    poly_to_stem,
    series_eval,
    slice_partial,
    slice_partial_conj,
    slice_tensor_product,
    star_product,
)
from .slicefun import (
    SlicePoint,
    as_point_function,
    one_variable_split,
    representation_eval,
    slice_eval,
    sliceness_residual,
    spherical_derivative,
    spherical_expansion,
    spherical_value,
    stem_from_values,
    truncated_derivative,
)
from .stems import (
    CallableStem,
    StemPoly,
    StemValue,
    cr_partial,
    cr_partial_bar,
    monomial_stem,
    sigma_tensor,
    stem_product,
)
from .zeros import ScanReport, ZeroReport, roots_one_var, scan_samples, zero_scan

__all__ = [
    "AlgebraDef",
    "BoundaryTorus",
    "CallableStem",
    "ConeDecomposition",
    "Element",
    "HypersliceError",
    "OrderedPolynomial",
    "PowerSeries",
    "ScanReport",
    "SlicePoint",
    "StemPoly",
    "StemValue",
    "ZeroReport",
    "as_point_function",
    "cauchy_reconstruct",
    "cone_decompose",
    "conj",
    "cr_partial",
    "cr_partial_bar",
    "format_element",
    "format_poly",
    "invert",
    "is_imaginary_unit",
    "is_slice_regular",
    "make_algebra",
    "monomial_stem",
    "norm_sq",
    "one_variable_split",
    "ordered_inverse_product",
    "ordered_product",
    "parse_expression",
    "parse_point",
    "parse_unit",
    "poly_eval",
    "poly_to_stem",
    "representation_eval",
    "roots_one_var",
    "scan_samples",
    "series_eval",
    "sigma_tensor",
    "slice_cauchy_kernel",
    "slice_eval",
    "slice_partial",
    "slice_partial_conj",
    "slice_tensor_product",
    "sliceness_residual",
    "spherical_derivative",
    "spherical_expansion",
    "spherical_value",
    "splitting_basis",
    "star_product",
    "stem_from_values",
    "stem_product",
    "trace",
    "truncated_derivative",
    "zero_scan",
]

__version__ = "0.1.0"
