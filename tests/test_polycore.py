"""Ring laws, composition coherence, and solver behavior for the polynomial core."""

import copy
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tangentcat.polycore import (
    BudgetExceeded,
    NotInvertible,
    Polynomial,
    PolyMap,
    ShapeError,
    compose,
    compose_all,
    eval_map,
    first_difference,
    invert_polymap,
    jacobian,
    map_equal,
    pair_into,
    _gauss_jordan,
    _triangular_inverse,
)

from tangentcat import canonical_connection, check_effective
from tangentcat.dbundle import tangent_bundle
from tangentcat.report import CheckRecord, Report, Status
from tangentcat.tangent import Space

from conftest import grid_points, polymaps, polynomials, rational_points


def v(arity, i):
    return Polynomial.variable(arity, i)


# ---------------------------------------------------------------- ring laws


@given(polynomials(2), polynomials(2), polynomials(2))
def test_addition_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(polynomials(2))
def test_additive_identity_and_inverse(a):
    zero = Polynomial.zero(2)
    assert a + zero == a
    assert a + (-a) == zero


@given(polynomials(2, max_degree=2), polynomials(2, max_degree=2), polynomials(2, max_degree=2))
def test_multiplication_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(polynomials(2))
def test_multiplicative_identity(a):
    assert a * Polynomial.constant(2, 1) == a


@given(polynomials(3), rational_points(3))
def test_evaluation_is_ring_homomorphism(a, point):
    b = Polynomial.variable(3, 0) * Polynomial.variable(3, 1)
    pt = list(point)
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


def test_canonical_form_is_structural_equality():
    a = v(2, 0) + v(2, 1) + v(2, 0)
    b = v(2, 0).scale(2) + v(2, 1)
    assert a == b
    assert a.terms == b.terms


def test_str_rendering():
    p = v(2, 0) * v(2, 0) - v(2, 1).scale(Fraction(1, 2))
    assert str(p) == "-1/2*x1 + x0^2"


# ------------------------------------------------------- composition and eval


@given(polymaps(2, 2), polymaps(2, 3), rational_points(2))
def test_compose_matches_pointwise_evaluation(f, g, point):
    pt = list(point)
    assert eval_map(compose(f, g), pt) == eval_map(g, list(eval_map(f, pt)))


@given(polymaps(2, 2))
def test_compose_identity_laws(f):
    assert compose(PolyMap.identity(2), f) == f
    assert compose(f, PolyMap.identity(2)) == f


@given(polymaps(2, 2), polymaps(2, 2), polymaps(2, 2))
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))
    assert compose_all(f, g, h) == compose(f, compose(g, h))


@pytest.mark.parametrize("exps", [(1,), (1, 0, 0), (-1, 1), (2, -1)])
def test_from_terms_rejects_malformed_exponents(exps):
    with pytest.raises(ShapeError):
        Polynomial.from_terms(2, {exps: 1})


def test_from_terms_canonicalises():
    p = Polynomial.from_terms(2, {(0, 1): 3, (2, 0): Fraction(1, 2), (1, 0): 0, (0, 0): -1})
    assert p.terms == (((0, 0), Fraction(-1)), ((0, 1), Fraction(3)), ((2, 0), Fraction(1, 2)))
    assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for _, c in p.terms)


def test_integral_coefficients_are_ints():
    p = Polynomial.from_terms(1, {(1,): Fraction(6, 3)})
    assert p.terms == (((1,), 2),) and type(p.terms[0][1]) is int
    x = v(1, 0)
    prod = x.scale(Fraction(1, 3)) * x.scale(3)
    assert prod.terms == (((2,), 1),) and type(prod.terms[0][1]) is int


def test_gauss_jordan_on_integer_rows_is_exact():
    det, inv = _gauss_jordan([{0: 2, 1: 1}, {1: 3}])
    assert det == 6 and type(det) is Fraction
    assert inv == [{0: Fraction(1, 2), 1: Fraction(-1, 6)}, {1: Fraction(1, 3)}]
    assert all(type(c) is Fraction for row in inv for c in row.values())


def test_inverse_has_exact_coefficients():
    f = PolyMap(2, (v(2, 0).scale(2) + v(2, 1) * v(2, 1), v(2, 1).scale(3)))
    g = invert_polymap(f)
    assert [c.terms for c in g.components] == [
        (((1, 0), Fraction(1, 2)), ((0, 2), Fraction(-1, 18))),
        (((0, 1), Fraction(1, 3)),),
    ]
    assert not any(isinstance(c, float) for p in g.components for _, c in p.terms)


def test_selections_are_recognized_once_per_map():
    assert v(3, 1) is v(3, 1)
    sel = PolyMap.selection(3, (2, 0))
    assert sel.selected == (2, 0)
    assert PolyMap(1, (v(1, 0).scale(2),)).selected is None
    assert sel == PolyMap.selection(3, (2, 0)) and "selected" not in repr(sel)


def test_bare_is_the_index_of_a_bare_variable():
    assert v(3, 2).bare == 2
    assert Polynomial.from_terms(3, {(0, 1, 0): Fraction(2, 2)}).bare == 1
    x = v(2, 1)
    for p in (x.scale(2), x + Polynomial.constant(2, 1), x * x, Polynomial.constant(2, 1), Polynomial.zero(2)):
        assert p.bare is None
    assert Polynomial.zero(2) is Polynomial.zero(2)


def test_compose_shares_the_components_that_bare_variables_pick():
    g = PolyMap(2, (v(2, 0) * v(2, 1), v(2, 1) + Polynomial.constant(2, 1)))
    f = PolyMap(2, (v(2, 1), v(2, 0) * v(2, 1), Polynomial.zero(2), v(2, 0), v(2, 1)))
    out = compose(g, f)
    assert out.components[0] is g.components[1] and out.components[4] is g.components[1]
    assert out.components[3] is g.components[0]
    assert out.components[2] == Polynomial.zero(2)
    picked = compose(g, PolyMap.selection(2, (1, 0, 1)))
    assert picked.codomain_dim == 3 and all(p is g.components[i] for p, i in zip(picked.components, (1, 0, 1)))


def test_compose_shape_error():
    with pytest.raises(ShapeError):
        compose(PolyMap.identity(2), PolyMap.identity(3))


@settings(max_examples=50)
@given(polymaps(2, 2, max_degree=2), polymaps(2, 2, max_degree=2))
def test_chain_rule(f, g):
    """The Jacobian of a composite is the product of Jacobians along f."""
    comp = compose(f, g)
    jf, jg, jc = jacobian(f), jacobian(g), jacobian(comp)
    for i in range(2):
        for j in range(2):
            expected = Polynomial.zero(2)
            for k in range(2):
                expected = expected + jg[i][k].substitute(list(f.components)) * jf[k][j]
            assert jc[i][j] == expected


# -------------------------------------------------------- structural helpers


def test_concat_and_selection():
    f = PolyMap.selection(3, [2, 0])
    assert f.selected == (2, 0)
    assert PolyMap.from_components(1, [v(1, 0) + v(1, 0)]).selected is None


def test_pair_into_reassembles_from_projections():
    p1 = PolyMap.selection(3, [0, 1])
    p2 = PolyMap.selection(3, [0, 2])
    f = PolyMap.from_components(1, [v(1, 0), v(1, 0) * v(1, 0)])
    g = PolyMap.from_components(1, [v(1, 0), v(1, 0) + v(1, 0)])
    paired = pair_into(3, [p1, p2], [f, g])
    assert eval_map(paired, [3]) == (3, 9, 6)


def test_pair_into_rejects_inconsistent_overlap():
    p1 = PolyMap.selection(2, [0])
    p2 = PolyMap.selection(2, [0])
    f = PolyMap.from_components(1, [v(1, 0)])
    g = PolyMap.from_components(1, [v(1, 0) + Polynomial.constant(1, 1)])
    with pytest.raises(ShapeError):
        pair_into(2, [p1, p2], [f, g])


def test_first_difference_names_a_monomial():
    f = PolyMap.from_components(1, [v(1, 0)])
    g = PolyMap.from_components(1, [v(1, 0) + v(1, 0) * v(1, 0)])
    diff = first_difference(f, g)
    assert diff is not None and "x0" in diff
    assert first_difference(f, f) is None
    assert map_equal(f, f)


# ----------------------------------------------------------------- inversion


def test_invert_base_dependent_shear():
    x, a, b = v(3, 0), v(3, 1), v(3, 2)
    f = PolyMap.from_components(3, [x, a + x * b, b])
    inv = invert_polymap(f)
    assert inv == PolyMap.from_components(3, [x, a - x * b, b])


def test_invert_refuses_non_constant_pivot():
    x, a = v(2, 0), v(2, 1)
    f = PolyMap.from_components(2, [x, a * (Polynomial.constant(2, 1) + x)])
    with pytest.raises(NotInvertible) as info:
        invert_polymap(f)
    assert info.value.witness == "det J is 1 at (0, 0) but 2 at (1, 2)"


def test_invert_outer_shear():
    # S(y) = (y0 - s, y1 + s) with s = (y0 + y1)^2, which y0 + y1 leaves fixed.
    y0, y1 = v(2, 0), v(2, 1)
    s = (y0 + y1) * (y0 + y1)
    inv = invert_polymap(PolyMap.from_components(2, [y0 - s, y1 + s]))
    assert inv == PolyMap.from_components(2, [y0 + s, y1 - s])


def test_invert_mixing_linear_part():
    x, w1, w2 = v(3, 0), v(3, 1), v(3, 2)
    f = PolyMap.from_components(3, [x, w1 + w2, w1 - w2])
    inv = invert_polymap(f)
    assert inv is not None
    assert compose(f, inv) == PolyMap.identity(3)
    assert compose(inv, f) == PolyMap.identity(3)
    assert eval_map(inv, [1, 5, 1]) == (1, 3, 2)


def test_invert_refuses_singular_linear_part():
    x, w = v(2, 0), v(2, 1)
    f = PolyMap.from_components(2, [x + w, x + w + x * x])
    with pytest.raises(NotInvertible) as info:
        invert_polymap(f)
    assert info.value.witness == "the linear part J(0) = [1, 1; 1, 1] is singular"


def test_invert_refutes_by_the_degree_bound():
    # det J = 1 + 2x^3 - x^2 - x is 1 at each sampled point, 0, 1 and -1/2;
    # in one variable the bound (deg f)^(n-1) on the degree of an inverse is 1.
    x = v(1, 0)
    x2 = x * x
    f = PolyMap.from_components(
        1, [x + (x2 * x2).scale(Fraction(1, 2)) - (x2 * x).scale(Fraction(1, 3)) - x2.scale(Fraction(1, 2))]
    )
    with pytest.raises(NotInvertible, match="Bass-Connell-Wright"):
        invert_polymap(f)


def test_invert_refutes_by_a_seeded_det_sample():
    # f = A, then g = (y0, y1, y2, y3 + y3 l1 l2), then A^-1, so det J_f(x) is
    # 1 + l1 l2 at A x.  l1 and l2 vanish at A applied to the fixed points
    # (1, 2, 3, 4) and (-1/2, -1/3, -1/4, -1/5), so det J is 1 at all three
    # fixed points; only the seeded points refute f before the expansion
    # runs to the Bass-Connell-Wright bound 27, which takes minutes.
    n = 4
    y = [v(n, i) for i in range(n)]
    rows = [(1, 1, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 2)]
    a = PolyMap(n, tuple(sum((y[j].scale(c) for j, c in enumerate(r) if c), Polynomial.zero(n)) for r in rows))
    fixed = ((1, 2, 3, 4), tuple(Fraction(-1, i + 2) for i in range(n)))
    l1, l2 = (y[0].scale(q[1]) - y[1].scale(q[0]) for q in (eval_map(a, p) for p in fixed))
    g = PolyMap(n, (y[0], y[1], y[2], y[3] + y[3] * l1 * l2))
    f = compose_all(a, g, invert_polymap(a))
    start = time.perf_counter()
    with pytest.raises(NotInvertible) as info:
        invert_polymap(f)
    assert time.perf_counter() - start < 1
    witness = info.value.witness
    assert witness == "det J is 1 at (0, 0, 0, 0) but 55903/28224 at (-1/4, -5/3, 0, 1/7)"
    assert not witness.endswith(tuple("(" + ", ".join(map(str, p)) + ")" for p in fixed))


def raising(exc):
    """A builder that raises ``exc``."""
    def make():
        raise exc
    return make


def test_attempt_returns_the_value_or_records_what_was_raised():
    rep = Report(subject="attempts")
    assert rep.attempt("built", "f exists", lambda: 7) == 7
    assert rep.attempt("unpaired", "f pairs", raising(ShapeError("parts lie over different points"))) is None
    assert rep.attempt("refuted", "f inverts", raising(NotInvertible("det J vanishes at (0)"))) is None
    assert rep.attempt("budget", "f inverts", raising(BudgetExceeded("no inverse of degree at most 64"))) is None
    assert [(r.name, r.status, r.witness) for r in rep.records] == [
        ("unpaired", Status.FAIL, "parts lie over different points"),
        ("refuted", Status.FAIL, "det J vanishes at (0)"),
        ("budget", Status.CANNOT_CERTIFY, "no inverse of degree at most 64"),
    ]


def test_check_equal_decides_what_its_builder_returns_or_raises():
    x, xx = PolyMap(1, (v(1, 0),)), PolyMap(1, (v(1, 0) * v(1, 0),))
    rep = Report(subject="laws")
    assert rep.check_equal("equal pair", "f = f", lambda: (x, x)) is True
    assert rep.check_equal("unequal pair", "f = g", lambda: (x, xx)) is False
    assert rep.check_equal("witness", "f = g", lambda: "component 0 differs") is False
    assert rep.check_equal("no witness", "f = g", lambda: None) is True
    assert rep.check_equal("unpaired", "f = g", raising(ShapeError("parts lie over different points"))) is False
    assert rep.check_equal("refuted", "f = g", raising(NotInvertible("det J vanishes at (0)"))) is False
    assert rep.check_equal("budget", "f = g", raising(BudgetExceeded("over the term budget"))) is False
    assert [(r.name, r.status, r.witness) for r in rep.records] == [
        ("equal pair", Status.PASS, None),
        ("unequal pair", Status.FAIL, "component 0: coefficient of x0^1 differs by 1"),
        ("witness", Status.FAIL, "component 0 differs"),
        ("no witness", Status.PASS, None),
        ("unpaired", Status.FAIL, "parts lie over different points"),
        ("refuted", Status.FAIL, "det J vanishes at (0)"),
        ("budget", Status.CANNOT_CERTIFY, "over the term budget"),
    ]


def test_invert_stops_at_the_degree_budget():
    # The two-level shear (x0, x1 + x0^9, x2 + x1^9) inverts, but its
    # inverse has degree 81 = 9^2, the Bass-Connell-Wright bound, which is
    # above the inverter's degree budget of 64.
    ninth = [Polynomial.from_terms(3, {(9, 0, 0): 1}), Polynomial.from_terms(3, {(0, 9, 0): 1})]
    f = PolyMap(3, (v(3, 0), v(3, 1) + ninth[0], v(3, 2) + ninth[1]))
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded) as info:
        invert_polymap(f)
    assert time.perf_counter() - start < 1
    witness = info.value.witness
    assert witness.startswith("no inverse of degree at most 64, the inverter's degree budget")
    rep = Report(subject="inversion")
    assert rep.attempt("inversion", "f inverts", lambda: invert_polymap(f)) is None
    assert [(r.status, r.witness) for r in rep.records] == [(Status.CANNOT_CERTIFY, witness)]


_small = st.integers(min_value=-2, max_value=2)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


def _seeded_triangular(seed):
    """A triangular map in n = 1..4 variables: bare variables x_S at
    permuted positions, then A x_R + p(x_S) with A invertible and p of
    degree at most 3.  Also returns S and R, as lists."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    positions, variables = rng.sample(range(n), n), rng.sample(range(n), n)
    m = rng.randint(0, n)
    s_vars, r_vars = variables[:m], variables[m:]
    while True:
        rows = [[rng.randint(-2, 2) for _ in r_vars] for _ in r_vars]
        if not rows or _det(rows):
            break
    comps = [None] * n
    for k, s in zip(positions, s_vars):
        comps[k] = v(n, s)
    for k, row in zip(positions[m:], rows):
        p = Polynomial.constant(n, rng.randint(-2, 2))
        for _ in range(rng.randint(0, 3) if m else 0):
            mono = Polynomial.constant(n, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3)):
                mono = mono * v(n, rng.choice(s_vars))
            p = p + mono
        comps[k] = sum((v(n, r).scale(a) for r, a in zip(r_vars, row)), p)
    return PolyMap(n, tuple(comps)), s_vars, r_vars


def _inversion_outcome(f):
    try:
        return invert_polymap(f)
    except (NotInvertible, BudgetExceeded) as exc:
        return type(exc).__name__, exc.witness


def _outside_the_form(seed):
    """A seeded triangular map moved just outside the form, by each named change that applies."""
    f, s_vars, r_vars = _seeded_triangular(seed)
    n, comps = f.domain_dim, f.components
    rows = [k for k, c in enumerate(comps) if c.bare is None]
    rng = random.Random(seed)

    def with_row(k, c):
        return PolyMap(n, comps[:k] + (c,) + comps[k + 1 :])

    out = []
    if r_vars:
        k, r = rng.choice(rows), rng.choice(r_vars)
        out.append(("x_r^2", with_row(k, comps[k] + (v(n, r) * v(n, r)).scale(rng.choice([-1, 1, 2])))))
        k = rng.choice(rows)
        free = Polynomial(n, tuple(t for t in comps[k].terms if not any(t[0][r] for r in r_vars)))
        out.append(("singular A", with_row(k, free)))
    if s_vars and r_vars:
        k = rng.choice(rows)
        out.append(("x_s x_r", with_row(k, comps[k] + v(n, rng.choice(s_vars)) * v(n, rng.choice(r_vars)))))
        out.append(("repeated bare variable", with_row(rng.choice(rows), v(n, s_vars[0]))))
    return out


def test_closed_form_and_expansion_return_the_same_inverse(monkeypatch):
    triangular = [_seeded_triangular(seed)[0] for seed in range(60)]
    y0, y1, y2 = v(3, 0), v(3, 1), v(3, 2)
    outside = [case for seed in range(60) for case in _outside_the_form(seed)]
    outside.append(("two-level shear", PolyMap(3, (y0, y1 + y0 * y0, y2 + y1 * y1))))
    assert {name for name, _ in outside} == {
        "x_s x_r", "x_r^2", "singular A", "repeated bare variable", "two-level shear"
    }
    for f in triangular:
        assert _triangular_inverse(f) is not None
    for _, f in outside:
        assert _triangular_inverse(f) is None
    closed = [invert_polymap(f) for f in triangular]
    beside = [_inversion_outcome(f) for _, f in outside]
    monkeypatch.setattr("tangentcat.polycore._triangular_inverse", lambda f: None)
    assert [invert_polymap(f) for f in triangular] == closed
    assert [_inversion_outcome(f) for _, f in outside] == beside
    assert any(isinstance(o, PolyMap) for o in beside) and any(isinstance(o, tuple) for o in beside)


@st.composite
def shear_linear_shear(draw, n=3):
    """S(L(U(y))): U a polynomial shear in a random variable order, L a
    constant invertible matrix, S a unitriangular shear whose last
    component adds a nonzero multiple of y_0^2.  When L mixes the
    coordinates, f is triangular in no order of them.
    """
    order = draw(st.permutations(range(n)))
    comps = [None] * n
    for i, j in enumerate(order):
        solved = [order[k] for k in range(i)]
        extra = Polynomial.constant(n, draw(_small))
        for k in solved:
            extra = extra + v(n, k).scale(draw(_small))
            for k2 in solved:
                extra = extra + (v(n, k) * v(n, k2)).scale(draw(_small))
        comps[j] = v(n, j) + extra
    inner = PolyMap.from_components(n, comps)
    matrix = [[draw(_small) for _ in range(n)] for _ in range(n)]
    assume(_det(matrix) != 0)
    linear = PolyMap.from_components(
        n, [sum((v(n, j).scale(c) for j, c in enumerate(row)), Polynomial.zero(n)) for row in matrix]
    )
    outer = [v(n, i) + sum((v(n, j).scale(draw(_small)) for j in range(i)), Polynomial.zero(n)) for i in range(n)]
    outer[-1] = outer[-1] + (v(n, 0) * v(n, 0)).scale(draw(st.sampled_from([-2, -1, 1, 2])))
    outer = PolyMap.from_components(n, outer)
    return compose_all(inner, linear, outer)


@settings(max_examples=25, deadline=None)
@given(shear_linear_shear())
def test_invert_shear_after_linear_map(f):
    inv = invert_polymap(f)
    assert inv is not None
    assert compose(f, inv) == PolyMap.identity(3)
    assert compose(inv, f) == PolyMap.identity(3)
    for pt in grid_points(3):
        assert eval_map(inv, list(eval_map(f, pt))) == tuple(pt)


def test_invert_shear():
    n = 4
    comps = [v(n, 0), v(n, 1), v(n, 2), v(n, 3) + v(n, 0) * v(n, 1) * v(n, 2)]
    f = PolyMap(n, tuple(comps))
    inv = invert_polymap(f)
    assert inv is not None
    assert compose(f, inv) == PolyMap.identity(n)
    assert compose(inv, f) == PolyMap.identity(n)


def test_invert_permutation_and_scaling():
    f = PolyMap.from_components(2, [v(2, 1).scale(2), v(2, 0)])
    inv = invert_polymap(f)
    assert inv is not None
    assert eval_map(inv, [6, 5]) == (5, 3)


def test_invert_refuses_noninvertible():
    for f in (PolyMap.from_components(1, [v(1, 0) * v(1, 0)]), PolyMap.selection(2, [0, 0])):
        with pytest.raises(NotInvertible, match=r"J\(0\)"):
            invert_polymap(f)
    with pytest.raises(NotInvertible) as info:
        invert_polymap(PolyMap.selection(2, [0]))
    assert info.value.witness == "it maps dimension 2 to dimension 1"


@settings(max_examples=30)
@given(polymaps(3, 3, max_degree=1, max_terms=3))
def test_inversion_is_two_sided_whenever_found(f):
    # An affine map either inverts or has a singular linear part.
    try:
        inv = invert_polymap(f)
    except NotInvertible as exc:
        assert "J(0)" in exc.witness
        return
    assert compose(f, inv) == PolyMap.identity(3)
    assert compose(inv, f) == PolyMap.identity(3)
    for pt in grid_points(3):
        assert eval_map(inv, list(eval_map(f, pt))) == tuple(pt)


# ---------------------------------------------------------------- value classes


def test_value_classes_compare_hash_show_and_replace_by_their_fields():
    p = Polynomial.from_terms(2, {(1, 0): 1, (0, 2): Fraction(1, 2)})
    f = PolyMap(2, (p, v(2, 1)))
    # equal only within one class: same field values, different classes
    assert Polynomial(2, ()) != PolyMap(2, ())
    assert p == Polynomial(2, p.terms) and hash(p) == hash((2, p.terms))
    # the premise is neither compared nor hashed
    a = CheckRecord("n", "law", Status.PASS, premise="a premise")
    b = CheckRecord("n", "law", Status.PASS)
    assert a == b and hash(a) == hash(b) == hash(("n", "law", Status.PASS, None))
    assert a.replace(name="m").premise == "a premise"
    for obj, name in ((p, "terms"), (p, "bare"), (f, "components"), (a, "premise")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # a Report stays mutable and unhashable, with a new list per report
    rep = Report("s")
    rep.subject = "t"
    assert rep.records == [] and rep.records is not Report("s").records
    with pytest.raises(TypeError):
        hash(rep)
    # equal spaces hash alike, so the cached tangent bundle is found again
    assert tangent_bundle(Space.euclidean(2)) is tangent_bundle(Space.euclidean(2))
    c = canonical_connection(1)
    assert c.bundle.tangent is c.bundle.tangent
    d = check_effective(c)[1]
    assert d.horizontal is d.horizontal and hash(d) == hash((d.biproduct,))
    # replace rebuilds through __init__, so its checks run again
    with pytest.raises(ShapeError):
        c.replace(H=PolyMap.identity(3))
    with pytest.raises(ShapeError):
        c.bundle.replace(base_coords=(5,))
    assert c.replace() == c and c.replace(H=None).H is None
    # copies and pickles rebuild through __init__ too
    assert copy.deepcopy(p) == p and copy.deepcopy(p).bare is None
    assert pickle.loads(pickle.dumps(c)) == c and copy.copy(a).premise == "a premise"
    # repr is Name(field=value!r, ...): the det J sample seeds from it
    assert repr(p) == "Polynomial(arity=2, terms=(((1, 0), 1), ((0, 2), Fraction(1, 2))))"
    assert repr(f) == (
        "PolyMap(domain_dim=2, components=(Polynomial(arity=2, terms=(((1, 0), 1), ((0, 2), Fraction(1, 2)))), "
        "Polynomial(arity=2, terms=(((0, 1), 1),))))"
    )
    assert repr(a).startswith("CheckRecord(name='n', law='law', status=")
    assert repr(a).endswith(", witness=None, premise='a premise')")
