"""Functoriality and naturality of the tangent structure maps."""

from hypothesis import given, settings

from tangentcat.polycore import PolyMap, compose, map_equal, power_dim, power_pair, power_proj
from tangentcat.tangent import (
    Space,
    T_map,
    T_obj,
    add_plus,
    flip_c,
    lift_l,
    proj_p,
    zero_0,
)
from tangentcat.dbundle import check_tangent_axioms
from tangentcat.report import Status

from conftest import polymaps


def test_tangent_space_layout():
    s = Space.euclidean(2)
    ts = T_obj(s)
    assert ts.dim == 4
    assert ts.layout == (("x", 2), ("t", 2))
    t2s = T_obj(ts)
    assert t2s.dim == 8
    assert [name for name, _ in t2s.layout] == ["x", "t", "u", "v"]


def test_tangent_names_past_the_letter_pool_are_numbered():
    # Blocks named a..m leave twelve letters of the pool for their tangent
    # blocks; the thirteenth is named t0.
    s = Space(13, tuple((chr(ord("a") + i), 1) for i in range(13)))
    names = [name for name, _ in T_obj(s).layout]
    assert names == list("abcdefghijklm") + list("tuvwnopqrsyz") + ["t0"]


def test_axiom_suite_passes_dims_1_and_2():
    for n in (1, 2):
        report = check_tangent_axioms(Space.euclidean(n))
        assert report.verdict is Status.PASS
        assert len(report.records) == 7


@given(polymaps(2, 2, max_degree=2))
def test_T_preserves_identity_and_composition(f):
    g = PolyMap.from_components(
        2, [f.components[1], f.components[0]]
    )
    assert T_map(PolyMap.identity(2)) == PolyMap.identity(4)
    assert T_map(compose(f, g)) == compose(T_map(f), T_map(g))


@settings(max_examples=60)
@given(polymaps(2, 1, max_degree=3))
def test_naturality_of_projection_and_zero(f):
    s, t = Space.euclidean(2), Space.euclidean(1)
    assert compose(T_map(f), proj_p(t)) == compose(proj_p(s), f)
    assert compose(f, zero_0(t)) == compose(zero_0(s), T_map(f))


@settings(max_examples=60)
@given(polymaps(2, 1, max_degree=3))
def test_naturality_of_addition(f):
    s, t = Space.euclidean(2), Space.euclidean(1)
    lhs = compose(add_plus(s), T_map(f))
    # T_2 M is the fibre square of TM over M: (2n, range(n)).
    t_f_pair = power_pair(
        2, range(1), [compose(power_proj(4, range(2), 2, i), T_map(f)) for i in (1, 2)]
    )
    rhs = compose(t_f_pair, add_plus(t))
    assert power_dim(4, range(2), 2) == 6 and power_dim(2, range(1), 2) == 3
    assert lhs == rhs


@settings(max_examples=60)
@given(polymaps(2, 1, max_degree=3))
def test_naturality_of_lift_and_flip(f):
    s, t = Space.euclidean(2), Space.euclidean(1)
    assert compose(T_map(f), lift_l(t)) == compose(lift_l(s), T_map(T_map(f)))
    assert compose(T_map(T_map(f)), flip_c(t)) == compose(flip_c(s), T_map(T_map(f)))


def test_flip_and_lift_coordinate_formulas():
    from tangentcat.polycore import Polynomial

    s = Space.euclidean(1)
    x = Polynomial.variable(2, 0)
    t = Polynomial.variable(2, 1)
    zero = Polynomial.zero(2)
    assert lift_l(s) == PolyMap.from_components(2, [x, zero, zero, t])
    assert flip_c(s) == PolyMap.selection(4, [0, 2, 1, 3])


def test_T_of_square_map():
    from tangentcat.polycore import Polynomial

    x = Polynomial.variable(1, 0)
    f = PolyMap.from_components(1, [x * x])
    tf = T_map(f)
    x0 = Polynomial.variable(2, 0)
    x1 = Polynomial.variable(2, 1)
    assert tf == PolyMap.from_components(2, [x0 * x0, (x0 * x1).scale(2)])


def test_T_of_a_selection_selects_both_blocks():
    sel = PolyMap.selection(3, (2, 0))
    assert T_map(sel) == PolyMap.selection(6, (2, 0, 5, 3))
    x0, x1 = PolyMap.identity(2).components
    f = PolyMap.from_components(2, [x0 * x1])
    assert map_equal(T_map(compose(sel, f)), compose(T_map(sel), T_map(f)))
