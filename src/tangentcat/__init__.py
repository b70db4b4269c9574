"""Exact symbolic tangent-category engine on polynomial Cartesian spaces."""

from .polycore import PolyMap, Polynomial, ShapeError, compose, compose_all, map_equal
from .report import CheckRecord, Report, Status
from .tangent import (
    Space,
    T_after,
    T_map,
    T_obj,
    add_plus,
    flip_c,
    lift_l,
    proj_p,
    zero_0,
)
from .dbundle import (
    DiffBundle,
    additive_morphism_report,
    check_tangent_axioms,
    linear_morphism_report,
    mu_map,
    tangent_bundle,
    tangent_of_bundle,
    trivial_bundle,
    verify_bundle,
)
from .whitney import (
    BiproductBundle,
    biproduct,
    biproduct_laws,
    partial_bundle,
    recognize_biproduct,
    verify_sum,
)
from .connection import (
    Connection,
    Decomposition,
    canonical_connection,
    check_effective,
    check_horizontal,
    check_pair,
    check_vertical,
    christoffel_connection,
    decompose_point,
    derive_horizontal,
    equivalence_suite,
    verify_connection,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
