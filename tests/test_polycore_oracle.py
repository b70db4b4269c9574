"""Differential tests of the polynomial kernel and the inverter against sympy.

Every result is also checked to be canonical: ``Fraction`` coefficients, none
zero, exponent vectors of the right length in strictly increasing graded-lex
order.  The kernel's internal arithmetic skips validation, so this is what
keeps ``serialize``'s bytes well defined.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tangentcat.polycore import (
    NotInvertible,
    Polynomial,
    PolyMap,
    compose,
    compose_all,
    invert_polymap,
    jacobian,
    _triangular_inverse,
)
from tangentcat.tangent import T_map

from conftest import polymaps, polynomials, trivial_mixed_polymaps

sympy = pytest.importorskip("sympy")

X = sympy.symbols("x0:4")
Y = sympy.symbols("y0:4")


def to_sympy(p: Polynomial, syms=X):
    out = sympy.Integer(0)
    for exps, c in p.terms:
        mono = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            mono *= s**e
        out += mono
    return out


def same(p: Polynomial, expr, syms=X) -> bool:
    return sympy.expand(to_sympy(p, syms) - expr) == 0


def assert_canonical(p: Polynomial) -> None:
    keys = []
    for exps, c in p.terms:
        assert (type(c) is int or (type(c) is Fraction and c.denominator > 1)) and c != 0
        assert len(exps) == p.arity and all(type(e) is int and e >= 0 for e in exps)
        keys.append((sum(exps), exps))
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


def assert_canonical_map(f: PolyMap) -> None:
    for c in f.components:
        assert c.arity == f.domain_dim
        assert_canonical(c)


def v(arity, i):
    return Polynomial.variable(arity, i)


@settings(max_examples=60, deadline=None)
@given(polynomials(3), polynomials(3))
def test_mul_matches_sympy(a, b):
    prod = a * b
    assert_canonical(prod)
    assert same(prod, to_sympy(a) * to_sympy(b))


@settings(max_examples=40, deadline=None)
@given(polymaps(3, 2, max_degree=3))
def test_jacobian_matches_sympy(f):
    for comp, row in zip(f.components, jacobian(f)):
        for j, entry in enumerate(row):
            assert_canonical(entry)
            assert same(entry, sympy.diff(to_sympy(comp), X[j]))


@settings(max_examples=60, deadline=None)
@given(polynomials(3), st.lists(st.integers(0, 1), min_size=3, max_size=3))
def test_substitute_selection_matches_sympy(p, idx):
    # Repeated indices make distinct terms of p land on one monomial.
    out = p.substitute([v(2, i) for i in idx])
    assert out.arity == 2
    assert_canonical(out)
    expr = to_sympy(p).xreplace({X[k]: Y[i] for k, i in enumerate(idx)})
    assert same(out, expr, Y)


@settings(max_examples=40, deadline=None)
@given(polynomials(3), st.tuples(polynomials(2, 2, 3), polynomials(2, 2, 3)))
def test_substitute_general_matches_sympy(p, args):
    # The middle argument is a bare variable, so both kinds of factor mix.
    full = [args[0], v(2, 1), args[1]]
    out = p.substitute(full)
    assert_canonical(out)
    expr = to_sympy(p).xreplace({X[k]: to_sympy(a, Y) for k, a in enumerate(full)})
    assert same(out, expr, Y)


def test_substitute_repeated_powers_cancel_to_zero():
    # (x0 - x1)^3 at x0 = x1 = y0 + y1/2 + 1: every power is reused and all cancels.
    d = v(2, 0) - v(2, 1)
    p = d * d * d
    arg = v(2, 0) + v(2, 1).scale(Fraction(1, 2)) + Polynomial.constant(2, 1)
    out = p.substitute([arg, arg])
    assert out == Polynomial.zero(2)
    # x0^2 x1 - x1^3 at (y0 + y1, y0 - y1): a sum whose terms cancel in part.
    q = v(2, 0) * v(2, 0) * v(2, 1) - v(2, 1) * v(2, 1) * v(2, 1)
    args = [v(2, 0) + v(2, 1), v(2, 0) - v(2, 1)]
    out = q.substitute(args)
    assert_canonical(out)
    expr = (Y[0] + Y[1]) ** 2 * (Y[0] - Y[1]) - (Y[0] - Y[1]) ** 3
    assert same(out, expr, Y)


def test_substitute_zero_argument_kills_terms():
    p = v(2, 0) * v(2, 1) + v(2, 0) + Polynomial.constant(2, 3)
    out = p.substitute([Polynomial.zero(2), v(2, 0) + v(2, 1)])
    assert out == Polynomial.constant(2, 3)
    assert_canonical(out)


def _compose_expr(g: PolyMap, f: PolyMap):
    inner = {X[k]: to_sympy(c, Y) for k, c in enumerate(g.components)}
    return [to_sympy(c).xreplace(inner) for c in f.components]


@settings(max_examples=40, deadline=None)
@given(polymaps(3, 2, max_degree=3), st.lists(st.integers(0, 1), min_size=1, max_size=4))
def test_compose_with_selection_second(g, idx):
    f = PolyMap.selection(2, idx)
    out = compose(g, f)
    assert out.domain_dim == 3 and out.components == tuple(g.components[i] for i in idx)
    assert_canonical_map(out)
    for comp, expr in zip(out.components, _compose_expr(g, f)):
        assert same(comp, expr, Y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=3, max_size=3), polymaps(3, 2, max_degree=3))
def test_compose_with_selection_first(idx, f):
    g = PolyMap.selection(3, idx)
    out = compose(g, f)
    assert out.domain_dim == 3
    assert_canonical_map(out)
    for comp, expr in zip(out.components, _compose_expr(g, f)):
        assert same(comp, expr, Y)


@settings(max_examples=40, deadline=None)
@given(polymaps(3, 2, max_degree=2), polymaps(2, 3, max_degree=3))
def test_compose_matches_sympy(g, f):
    # f's components share the cached powers of g's components.
    out = compose(g, f)
    assert out.domain_dim == 3 and out.codomain_dim == 3
    assert_canonical_map(out)
    for comp, expr in zip(out.components, _compose_expr(g, f)):
        assert same(comp, expr, Y)


@settings(max_examples=40, deadline=None)
@given(polymaps(3, 2, max_degree=2), trivial_mixed_polymaps(2, 4, max_degree=3))
def test_compose_with_trivial_components_after_a_general_map(g, f):
    # A zero component of f gives zero and a bare x_i gives g's i-th component.
    out = compose(g, f)
    assert out.domain_dim == 3 and out.codomain_dim == 4
    assert_canonical_map(out)
    for comp, expr in zip(out.components, _compose_expr(g, f)):
        assert same(comp, expr, Y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=3), st.data())
def test_compose_with_trivial_components_after_a_selection(idx, data):
    g = PolyMap.selection(3, idx)
    f = data.draw(trivial_mixed_polymaps(len(idx), 3, max_degree=3))
    out = compose(g, f)
    assert out.domain_dim == 3
    assert_canonical_map(out)
    for comp, expr in zip(out.components, _compose_expr(g, f)):
        assert same(comp, expr, Y)


@settings(max_examples=40, deadline=None)
@given(trivial_mixed_polymaps(2, 3, max_degree=3))
def test_T_map_of_trivial_components_matches_its_definition(f):
    # A bare x_i gives x_i and t_i, and a zero gives two zeros.
    tf = T_map(f)
    assert tf.domain_dim == 4 and tf.codomain_dim == 6
    assert_canonical_map(tf)
    x, t = X[:2], X[2:]
    for i, comp in enumerate(f.components):
        expr = to_sympy(comp)
        assert same(tf.components[i], expr)
        tangent = sum(sympy.diff(expr, x[j]) * t[j] for j in range(2))
        assert same(tf.components[3 + i], tangent)


@settings(max_examples=40, deadline=None)
@given(polymaps(2, 3, max_degree=3))
def test_T_map_matches_its_definition(f):
    tf = T_map(f)
    assert tf.domain_dim == 4 and tf.codomain_dim == 6
    assert_canonical_map(tf)
    x, t = X[:2], X[2:]
    for i, comp in enumerate(f.components):
        expr = to_sympy(comp)
        assert same(tf.components[i], expr)
        tangent = sum(sympy.diff(expr, x[j]) * t[j] for j in range(2))
        assert same(tf.components[3 + i], tangent)


@settings(max_examples=40, deadline=None)
@given(polymaps(2, 2, max_degree=2), polymaps(2, 2, max_degree=3))
def test_T_map_is_a_functor(f, g):
    # T(f ; g) = T(f) ; T(g) exactly: the records that T of a passed
    # identity or of a certified inverse would recompute rest on this.
    tfg = T_map(compose(f, g))
    assert tfg == compose(T_map(f), T_map(g))
    assert_canonical_map(tfg)
    x, t = X[:2], X[2:]
    for i, expr in enumerate(_compose_expr(f, g)):
        expr = expr.xreplace(dict(zip(Y, x)))
        assert same(tfg.components[i], expr)
        assert same(tfg.components[2 + i], sum(sympy.diff(expr, x[j]) * t[j] for j in range(2)))


@st.composite
def conjugated_shears(draw, n):
    """B, then a unitriangular polynomial shear U, then A, plus a constant:
    an automorphism whose linear part mixes the coordinates."""
    def invertible_matrix():
        rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        assume(sympy.Matrix(rows).det() != 0)
        return PolyMap(n, tuple(sum((v(n, j).scale(c) for j, c in enumerate(r)), Polynomial.zero(n)) for r in rows))

    shear = [v(n, 0)]
    for i in range(1, n):
        lower = draw(polynomials(i, max_degree=2, max_terms=2))
        shear.append(v(n, i) + lower.substitute([v(n, j) for j in range(i)]))
    constant = PolyMap(n, tuple(v(n, i) + Polynomial.constant(n, draw(st.integers(-2, 2))) for i in range(n)))
    return compose_all(invertible_matrix(), PolyMap(n, tuple(shear)), invertible_matrix(), constant)


def _jacobian_determinant(f: PolyMap):
    n = f.domain_dim
    return sympy.expand(sympy.Matrix([[sympy.diff(to_sympy(c), X[j]) for j in range(n)] for c in f.components]).det())


@st.composite
def triangular_maps(draw, n):
    """Bare variables x_S at permuted positions; each other component is a
    constant invertible A on the remaining variables R plus p(x_S) of
    degree at most 3 with a nonzero constant term."""
    positions = draw(st.permutations(range(n)))
    variables = draw(st.permutations(range(n)))
    m = draw(st.integers(0, n))
    s_vars, r_vars = variables[:m], variables[m:]
    rows = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n - m, max_size=n - m), min_size=n - m, max_size=n - m))
    assume(sympy.Matrix(rows).det() != 0)
    comps = [None] * n
    for k, s in zip(positions[:m], s_vars):
        comps[k] = v(n, s)
    for k, row in zip(positions[m:], rows):
        p = Polynomial.constant(n, draw(st.integers(-2, 2).filter(bool)))
        if m:
            q = draw(polynomials(m, max_degree=3, max_terms=3))
            q = Polynomial(m, tuple(t for t in q.terms if any(t[0])))
            p = p + q.substitute([v(n, s) for s in s_vars])
        comps[k] = sum((v(n, r).scale(a) for r, a in zip(r_vars, row)), p)
    return PolyMap(n, tuple(comps))


@settings(max_examples=90, deadline=None)
@given(
    st.one_of(
        st.one_of(
            polymaps(2, 2, max_degree=2),
            polymaps(3, 3, max_degree=2, max_terms=2),
            conjugated_shears(2),
            conjugated_shears(3),
        ).map(lambda f: (f, False)),
        st.one_of(triangular_maps(2), triangular_maps(3), triangular_maps(4)).map(lambda f: (f, True)),
    )
)
def test_inverter_matches_sympy(case):
    # Within these degrees the Bass-Connell-Wright bound lies inside the
    # inverter's budget, so every map either inverts or is refuted.  A
    # triangular map always inverts, in closed form.
    f, triangular = case
    if triangular:
        assert _triangular_inverse(f) is not None
    try:
        inv = invert_polymap(f)
    except NotInvertible as exc:
        assert exc.witness and not triangular
        det = _jacobian_determinant(f)
        assert det == 0 or not det.is_constant()
        return
    assert_canonical_map(inv)
    for first, then in ((f, inv), (inv, f)):
        for i, expr in enumerate(_compose_expr(first, then)):
            assert sympy.expand(expr - Y[i]) == 0
