"""Differential-bundle axioms, constructions, and morphism checks."""

import random
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
from tangentcat.tangent import Space, T_map, T_obj, add_plus, lift_l, zero_0
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
from tangentcat.whitney import biproduct


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


def test_tangent_bundle_is_built_once_per_space():
    assert tangent_bundle(Space.euclidean(2)) is tangent_bundle(Space.euclidean(2))


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tangent_bundle_is_the_explicit_tangent_structure(n):
    """TM built as a trivial bundle is (TM, p, +, 0, l) from the tangent structure."""
    s = Space.euclidean(n)
    explicit = DiffBundle(T_obj(s), s, tuple(range(n)), add_plus(s), zero_0(s), lift_l(s))
    assert tangent_bundle(s) == explicit


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


# ------------------------------------------------- transport invariance


def _perturbed(b, rng):
    """b with one monomial c y^2 added to one component of sigma, zeta or lift."""
    field = rng.choice(("sigma", "zeta", "lift"))
    m = getattr(b, field)
    comps = list(m.components)
    k = rng.randrange(len(comps))
    y = x(m.domain_dim, rng.randrange(m.domain_dim))
    comps[k] = comps[k] + (y * y).scale(rng.choice((-2, -1, Fraction(1, 2), 1, 3)))
    return replace(b, **{field: PolyMap(m.domain_dim, tuple(comps))})


def _fibre_shear(b, rng):
    """A seeded psi = (x, A w + p(x)) and its inverse, over the identity of the base.

    A is a constant invertible lower-triangular rational matrix and each
    component of p is one monomial of degree 1 or 2 in the base coordinates.
    No fibre coordinate is multiplied by a base coordinate, and p has one
    term, because verify_bundle puts no budget on the size of the composites
    it builds: with two terms in p, a sigma that moves the base point
    transports to degree 8 and one verify_bundle took 17 s.
    """
    e, bc, fc = b.total.dim, b.base_coords, b.fibre_coords
    f = len(fc)
    values = (-2, -1, Fraction(1, 2), 1, 2, 3)
    a = [[rng.choice(values) if j == i else (rng.choice((0,) + values) if j < i else 0) for j in range(f)]
         for i in range(f)]
    a_inv = [[Fraction(0)] * f for _ in range(f)]
    for col in range(f):  # forward substitution on A z = e_col
        for i in range(f):
            rest = sum(a[i][j] * a_inv[j][col] for j in range(i))
            a_inv[i][col] = (Fraction(int(i == col)) - rest) / a[i][i]
    xs = [x(e, i) for i in bc]
    monomials = xs + [u * v for i, u in enumerate(xs) for v in xs[i:]]
    shift = [rng.choice(monomials).scale(rng.choice(values)) for _ in range(f)]
    w = [x(e, p) for p in fc]
    psi, psi_inv = [x(e, i) for i in range(e)], [x(e, i) for i in range(e)]
    for i, p in enumerate(fc):
        psi[p] = sum((w[j].scale(a[i][j]) for j in range(f)), shift[i])
        psi_inv[p] = sum(
            ((w[j] - shift[j]).scale(a_inv[i][j]) for j in range(f)), Polynomial.zero(e)
        )
    return PolyMap(e, tuple(psi)), PolyMap(e, tuple(psi_inv))


TRANSPORT_MODELS = {
    "TR": lambda: tangent_bundle(Space.euclidean(1)),
    "TR2": lambda: tangent_bundle(Space.euclidean(2)),
    "R x R": lambda: trivial_bundle(Space.euclidean(1), 1),
    "R2 x R2": lambda: trivial_bundle(Space.euclidean(2), 2),
    "T(TR)": lambda: tangent_of_bundle(tangent_bundle(Space.euclidean(1))),
    "TR + R x R": lambda: biproduct(
        [tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 1)]
    ).sum,
}


@pytest.mark.parametrize("name", sorted(TRANSPORT_MODELS))
def test_transport_preserves_and_reflects_every_axiom(name):
    """verify_bundle agrees record by record on a bundle and its transport.

    Transport along an isomorphism over the identity of the base conjugates
    every axiom, so a model's report decides the transported bundle's; a
    passing report is the same to the byte.  Four in five models are
    perturbed by one monomial c y^2.
    """
    rng = random.Random(f"transport {name}")
    verdicts = []
    for case in range(50):
        model = TRANSPORT_MODELS[name]()
        if case % 5:
            model = _perturbed(model, rng)
        psi, psi_inv = _fibre_shear(model, rng)
        moved = transport_bundle(model, psi, psi_inv, model.total)
        here, there = verify_bundle(model), verify_bundle(moved)
        assert here.verdict is there.verdict, (case, psi)
        assert [(r.name, r.status) for r in here.records] == [
            (r.name, r.status) for r in there.records
        ], (case, psi)
        if here.passed:
            assert here.to_dict() == there.to_dict()
        verdicts.append(here.verdict)
    assert Status.PASS in verdicts and Status.FAIL in verdicts
