"""Ring laws, composition coherence, and solver behavior for the polynomial core."""

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tangentcat.polycore import (
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
)

from tangentcat.report import Report, Status

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
    assert (info.value.witness, info.value.budget) == ("det J is 1 at (0, 0) but 2 at (1, 2)", False)


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
    with pytest.raises(NotInvertible, match="Bass-Connell-Wright") as info:
        invert_polymap(f)
    assert not info.value.budget


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
    assert witness == "det J is 1 at (0, 0, 0, 0) but 55903/28224 at (-1/4, -5/3, 0, 1/7)" and not info.value.budget
    assert not witness.endswith(tuple("(" + ", ".join(map(str, p)) + ")" for p in fixed))


def test_no_inverse_fails_a_refutation_and_cannot_certify_the_budget():
    rep = Report(subject="inversions")
    rep.no_inverse("refuted", "f inverts", NotInvertible("det J vanishes at (0)"))
    rep.no_inverse("budget", "f inverts", NotInvertible("no inverse of degree at most 64", budget=True))
    assert [(r.status, r.witness) for r in rep.records] == [
        (Status.FAIL, "det J vanishes at (0)"),
        (Status.CANNOT_CERTIFY, "no inverse of degree at most 64"),
    ]


_small = st.integers(min_value=-2, max_value=2)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m)))


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
