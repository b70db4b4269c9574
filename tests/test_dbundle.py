"""Differential-bundle axioms, constructions, and morphism checks."""

from dataclasses import replace
from fractions import Fraction

import pytest

from tangentcat.polycore import (
    Polynomial,
    PolyMap,
    ShapeError,
    compose,
    eval_map,
    map_equal,
)
from tangentcat.tangent import Space, T_map, zero_0
from tangentcat.dbundle import (
    DiffBundle,
    bundle_difference,
    linear_morphism_report,
    mu_map,
    tangent_bundle,
    tangent_of_bundle,
    transport_bundle,
    trivial_bundle,
    verify_bundle,
)
from tangentcat.report import Status



def x(arity, i):
    return Polynomial.variable(arity, i)


def test_tangent_bundle_verifies():
    for n in (1, 2):
        report = verify_bundle(tangent_bundle(Space.euclidean(n)))
        assert report.verdict is Status.PASS


def test_trivial_bundle_verifies():
    for n, f in ((1, 1), (1, 2), (2, 1)):
        report = verify_bundle(trivial_bundle(Space.euclidean(n), f))
        assert report.verdict is Status.PASS


def test_trivial_zero_fibre_bundle():
    b = trivial_bundle(Space.euclidean(2), 0)
    assert b.fibre_dim == 0
    assert verify_bundle(b).verdict is Status.PASS


def test_tangent_of_bundle_verifies():
    b = tangent_bundle(Space.euclidean(1))
    tb = tangent_of_bundle(b)
    assert tb.total.dim == 4
    assert tb.base_coords == (0, 2)
    assert verify_bundle(tb).verdict is Status.PASS
    tv = tangent_of_bundle(trivial_bundle(Space.euclidean(1), 2))
    assert verify_bundle(tv).verdict is Status.PASS


def test_tangent_is_built_once_per_bundle():
    b = trivial_bundle(Space.euclidean(1), 2)
    t = b.tangent
    assert bundle_difference(t, tangent_of_bundle(b)) is None
    assert b.tangent is t
    other = replace(b)
    assert other == b
    assert other.tangent is not t
    assert bundle_difference(other.tangent, t) is None


def test_corrupted_lift_fails_named_axiom():
    b = tangent_bundle(Space.euclidean(1))
    bad_lift = PolyMap.from_components(
        2, [x(2, 0), Polynomial.zero(2), Polynomial.zero(2), x(2, 1) * x(2, 1)]
    )
    bad = DiffBundle(b.total, b.base, b.base_coords, b.sigma, b.zeta, bad_lift)
    report = verify_bundle(bad)
    assert report.verdict is Status.FAIL
    failing = {r.name for r in report.failing()}
    assert any("axiom 2" in name for name in failing)


def test_corrupted_sigma_fails_commutativity():
    b = trivial_bundle(Space.euclidean(1), 1)
    sigma = PolyMap.from_components(3, [x(3, 0), x(3, 1) + x(3, 2) + x(3, 2)])
    bad = DiffBundle(b.total, b.base, b.base_coords, sigma, b.zeta, b.lift)
    report = verify_bundle(bad)
    assert report.verdict is Status.FAIL
    assert "commutativity" in {r.name for r in report.failing()}


def test_mu_on_tangent_bundle():
    b = tangent_bundle(Space.euclidean(1))
    mu = mu_map(b)
    # (x, t1, t2) -> lift of (x, t1) plus zero tangent over (x, t2)
    assert eval_map(mu, [Fraction(5), Fraction(2), Fraction(3)]) == (5, 3, 0, 2)


def test_nonlinear_sigma_cannot_certify_universality():
    base = Space.euclidean(1)
    total = Space(2, (("x", 1), ("w", 1)))
    sigma = PolyMap.from_components(3, [x(3, 0), x(3, 1) * x(3, 2)])
    zeta = PolyMap.from_components(1, [x(1, 0), Polynomial.constant(1, 1)])
    lift = PolyMap.from_components(
        2, [x(2, 0), Polynomial.constant(2, 1), Polynomial.zero(2), x(2, 1)]
    )
    weird = DiffBundle(total, base, (0,), sigma, zeta, lift)
    report = verify_bundle(weird)
    assert report.verdict in (Status.FAIL, Status.CANNOT_CERTIFY)


def test_linear_morphism_detects_non_example():
    b = trivial_bundle(Space.euclidean(1), 1)
    g = PolyMap.from_components(2, [x(2, 0), x(2, 1) * x(2, 1)])
    assert not linear_morphism_report("square", g, PolyMap.identity(1), b, b).passed
    scale = PolyMap.from_components(2, [x(2, 0), x(2, 1).scale(3)])
    assert linear_morphism_report("scale", scale, PolyMap.identity(1), b, b).passed


def test_linear_morphism_shape_errors():
    b = trivial_bundle(Space.euclidean(1), 1)
    with pytest.raises(ShapeError):
        linear_morphism_report("shape", PolyMap.identity(3), PolyMap.identity(1), b, b)


def test_transport_roundtrip():
    b = trivial_bundle(Space.euclidean(1), 2)
    psi = PolyMap.selection(3, [0, 2, 1])
    moved = transport_bundle(b, psi, psi, b.total)
    assert verify_bundle(moved).verdict is Status.PASS
    back = transport_bundle(moved, psi, psi, b.total)
    assert bundle_difference(back, b) is None


def test_bundle_difference_reports_map():
    a = trivial_bundle(Space.euclidean(1), 1)
    other = DiffBundle(
        a.total,
        a.base,
        a.base_coords,
        a.sigma,
        PolyMap.from_components(1, [x(1, 0), Polynomial.constant(1, 2)]),
        a.lift,
    )
    diff = bundle_difference(a, other)
    assert diff is not None and "zeta" in diff


def test_T_of_linear_morphisms_stays_linear():
    """Scaling the fibre is linear on a trivial bundle, and applying T
    preserves that linearity."""
    b = trivial_bundle(Space.euclidean(1), 1)
    g = PolyMap.from_components(2, [x(2, 0), x(2, 1).scale(3)])
    assert linear_morphism_report(
        "T(g)", T_map(g), T_map(PolyMap.identity(1)), tangent_of_bundle(b), tangent_of_bundle(b)
    ).passed
    assert map_equal(compose(zero_0(b.total), T_map(g)), compose(g, zero_0(b.total)))
