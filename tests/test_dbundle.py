"""Differential-bundle axioms, constructions, and morphism checks."""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from tangentcat import polycore, serialize
from tangentcat.cli import main
from tangentcat.polycore import (
    Polynomial,
    PolyMap,
    ShapeError,
    compose,
    eval_map,
    invert_polymap,
    map_equal,
)
from tangentcat.tangent import Space, T_map, T_obj, add_plus, lift_l, proj_p, zero_0
from tangentcat.dbundle import (
    DiffBundle,
    additive_morphism_report,
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
    other = b.replace()
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
    return b.replace(**{field: PolyMap(m.domain_dim, tuple(comps))})


def _fibre_shear(b, rng):
    """A seeded psi = (x, A w + p(x)) and its inverse, over the identity of the base.

    A is a constant invertible lower-triangular rational matrix and each
    component of p is one monomial of degree 1 or 2 in the base coordinates.
    No fibre coordinate is multiplied by a base coordinate, and p has one
    term, so that every transported composite stays within the term budget:
    with two terms in p, a sigma that moves the base point transports to
    degree 8, and its shear inversion exceeds the budget (cannot-certify)
    where the model's is decided, so the two reports would not agree
    record by record (``test_budget_ends_a_transported_blow_up``).
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


def _sigma_moving_the_base_point():
    """sigma's base component plus 3 w2'^2, transported along
    psi = (x0, 3x1 + 3x0 + 3x0^2, 2x2 - x1 - 2x0 - 2x0^2); sigma has degree 8."""
    b = biproduct([tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 1)]).sum
    s, w = b.sigma, x(5, 4)
    sigma = PolyMap(5, (s.components[0] + (w * w).scale(3),) + s.components[1:])
    x0, x1, x2 = (x(3, i) for i in range(3))
    psi = PolyMap(3, (x0, (x1 + x0 + x0 * x0).scale(3), x2.scale(2) - x1 - x0.scale(2) - (x0 * x0).scale(2)))
    return transport_bundle(b.replace(sigma=sigma), psi, invert_polymap(psi), b.total)


def _lift_off_the_base_point():
    """lambda's first component x0 - x2^2, transported along
    psi = (x0, -x1 - x0^2, x2/2 - 2 x0 x1 + x0^2); lambda has degree 12."""
    b = biproduct([tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 1)]).sum
    lift = PolyMap(3, (x(3, 0) - x(3, 2) * x(3, 2),) + b.lift.components[1:])
    x0, x1, x2 = (x(3, i) for i in range(3))
    psi = PolyMap(3, (x0, -x1 - x0 * x0, x2.scale(Fraction(1, 2)) - (x0 * x1).scale(2) + x0 * x0))
    return transport_bundle(b.replace(lift=lift), psi, invert_polymap(psi), b.total)


BLOW_UPS = {
    # the records before the budgeted one, as they were before the term budget
    "sigma": (_sigma_moving_the_base_point, 8, "axiom 4: shear inversion", [
        ("projection compatibility", Status.FAIL),
        ("section", Status.PASS),
        ("commutativity", Status.FAIL),
        ("unit", Status.FAIL),
        ("associativity", Status.FAIL),
        ("tangential fibre power", Status.PASS),
        ("axiom 2: (lift, 0) additive", Status.FAIL),
        ("axiom 3: (lift, zeta) additive", Status.FAIL),
        ("axiom 4: square commutes", Status.FAIL),
    ]),
    "lambda": (_lift_off_the_base_point, 12, "axiom 5", [
        ("projection compatibility", Status.PASS),
        ("section", Status.PASS),
        ("commutativity", Status.PASS),
        ("unit", Status.PASS),
        ("associativity", Status.PASS),
        ("tangential fibre power", Status.PASS),
        ("axiom 2: (lift, 0) additive", Status.FAIL),
        ("axiom 3: (lift, zeta) additive", Status.FAIL),
        ("axiom 4: comparison map", Status.FAIL),
    ]),
}


@pytest.mark.parametrize("case", sorted(BLOW_UPS))
def test_budget_ends_a_transported_blow_up(case):
    """Two transported bundles whose composites blow up: without the term
    budget verify_bundle took 12 s on the first and 195 s on the second
    (Python 3.11, one process on a shared 2-CPU machine).  Within the
    budget the earlier records keep their verdicts, the record whose
    composites exceed it is cannot-certify and names the budget, and the
    earlier failures make the verdict fail."""
    build, degree, budgeted, before = BLOW_UPS[case]
    b = build()
    assert max(m.max_degree() for m in (b.sigma, b.zeta, b.lift)) == degree
    start = time.perf_counter()
    report = verify_bundle(b)
    assert time.perf_counter() - start < 5
    assert report.verdict is Status.FAIL
    at = [r.name for r in report.records].index(budgeted)
    assert [(r.name, r.status) for r in report.records[:at]] == before
    record = report.records[at]
    assert record.status is Status.CANNOT_CERTIFY and "term budget" in record.witness


def test_a_budget_met_building_mu_is_a_record(monkeypatch, tmp_path):
    """With no term product allowed, building mu for the sigma bundle meets
    the budget: "axiom 4: comparison map" is cannot-certify and names it,
    every record is written, and the earlier failures make the exit 2."""
    path = tmp_path / "sigma.json"
    path.write_text(serialize.dumps(serialize.bundle_to_json(BLOW_UPS["sigma"][0]())), encoding="utf-8")
    monkeypatch.setattr(polycore, "TERM_BUDGET", 0)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "verify", "--kind", "bundle", str(path)])
    assert (code, err.getvalue()) == (2, "")
    checks = {r["name"]: r for r in json.loads(out.getvalue())["checks"]}
    before = [name for name, _ in BLOW_UPS["sigma"][3] if not name.startswith("axiom 4")]
    assert list(checks) == before + ["axiom 4: comparison map", "axiom 5"]
    record = checks["axiom 4: comparison map"]
    assert record["status"] == "cannot-certify" and "term budget" in record["witness"]


def test_adds_fibrewise_reads_sigma_and_zeta():
    tm = tangent_bundle(Space.euclidean(2))
    assert tm.adds_fibrewise and tm.tangent.adds_fibrewise
    assert biproduct([tm, trivial_bundle(Space.euclidean(2), 1)]).model.adds_fibrewise
    sigma = PolyMap(6, tm.sigma.components[:2] + (tm.sigma.components[2] + x(6, 0) * x(6, 0),) + tm.sigma.components[3:])
    assert not tm.replace(sigma=sigma).adds_fibrewise
    zeta = PolyMap(2, tm.zeta.components[:3] + (x(2, 1),))
    assert not tm.replace(zeta=zeta).adds_fibrewise


def _additive_cases(b):
    """(g, f, src, dst) of axioms 2 and 3 on b, and K of the flat connection over both projections."""
    cases = [(b.lift, zero_0(b.base), b, b.tangent), (b.lift, b.zeta, b, tangent_bundle(b.total))]
    if b == tangent_bundle(b.base):
        n = b.base.dim
        k = PolyMap.selection(4 * n, list(range(n)) + list(range(3 * n, 4 * n)))
        cases += [(k, proj_p(b.base), b.tangent, b), (k, b.q, tangent_bundle(b.total), b)]
    return cases


@pytest.mark.parametrize("n, f", [(1, 1), (2, 2), (1, 2), (2, 1)])
def test_fibrewise_additive_morphisms_skip_only_passing_composites(n, f, monkeypatch):
    """additive_morphism_report gives the same records with and without the
    shortcut for bundles that add as trivial bundles do.

    g is perturbed by one term c y or c y z; a term of degree one in the
    source fibre keeps the shortcut, any other breaks it or the base square.
    """
    b = tangent_bundle(Space.euclidean(n)) if n == f else trivial_bundle(Space.euclidean(n), f)
    rng = random.Random(f"additive {n} {f}")
    cases = []
    for case in range(60):
        g, base_map, src, dst = rng.choice(_additive_cases(b))
        assert src.adds_fibrewise and dst.adds_fibrewise
        if case % 4:
            comps = list(g.components)
            k = rng.randrange(len(comps))
            term = x(g.domain_dim, rng.randrange(g.domain_dim))
            if rng.random() < 0.5:
                term = term * x(g.domain_dim, rng.randrange(g.domain_dim))
            comps[k] = comps[k] + term.scale(rng.choice((-2, -1, Fraction(1, 2), 3)))
            g = PolyMap(g.domain_dim, tuple(comps))
        cases.append((g, base_map, src, dst))
    shortcut = [additive_morphism_report("case", *case).to_dict() for case in cases]
    monkeypatch.setattr(DiffBundle, "adds_fibrewise", property(lambda self: False))
    assert shortcut == [additive_morphism_report("case", *case).to_dict() for case in cases]
    verdicts = [r["verdict"] for r in shortcut]
    assert verdicts.count("pass") > 15 and "fail" in verdicts
