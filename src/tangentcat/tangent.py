"""Tangent structure on Cartesian spaces with polynomial maps.

The tangent functor T doubles a space and sends a map f to its symbolic total
derivative T(f)(x, t) = (f(x), J_f(x) t).  The structural maps p (projection),
0 (zero section), + (fibrewise addition), l (vertical lift), and c (canonical
flip) are all coordinate-level polynomial maps, and ``check_tangent_axioms``
verifies the defining equations between them as exact polynomial identities.

Coordinate convention: base point leftmost.  TM has layout (x, t), T^2 M has
layout (x, t, u, v) with each block the size of M, and the fibre power T_k M
has layout (x, t_1, ..., t_k): ``polycore.power_proj`` with ``(2n, range(n))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .polycore import (
    PolyMap,
    Polynomial,
    ShapeError,
    compose,
    compose_all,
    pair_into,
    power_dim,
    power_pair,
    power_proj,
    _sorted_terms,
)
from .report import Report

_NAME_POOL = "tuvwabcdefghijklmnopqrsyz"


@dataclass(frozen=True)
class Space:
    """A Cartesian space R^n with named coordinate blocks."""

    dim: int
    layout: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        if any(size <= 0 for _, size in self.layout):
            raise ShapeError("block sizes must be positive")
        if sum(size for _, size in self.layout) != self.dim:
            raise ShapeError("block sizes do not sum to the dimension")

    @staticmethod
    def euclidean(n: int, name: str = "x") -> "Space":
        if n == 0:
            return Space(0, ())
        return Space(n, ((name, n),))


def _fresh_names(used: Sequence[str], count: int) -> list[str]:
    out: list[str] = []
    taken = set(used)
    for ch in _NAME_POOL:
        if len(out) == count:
            break
        if ch not in taken:
            out.append(ch)
            taken.add(ch)
    i = 0
    while len(out) < count:
        cand = f"t{i}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        i += 1
    return out


def T_obj(s: Space) -> Space:
    """The tangent space: dimension doubles, tangent blocks appended."""
    names = _fresh_names([n for n, _ in s.layout], len(s.layout))
    tangent_blocks = tuple((names[i], size) for i, (_, size) in enumerate(s.layout))
    return Space(2 * s.dim, s.layout + tangent_blocks)


def T_map(f: PolyMap) -> PolyMap:
    """The differential: T(f)(x, t) = (f(x), J_f(x) t), by exponent shifting.

    f(x) is f with m zero exponents appended for t, which keeps its terms in
    graded-lex order.  The tangent component sum_j d_j f_i(x) t_j takes each
    term c x^e of f_i to the terms (c e_j) x^(e - 1_j) t_j; distinct
    (term, j) pairs give distinct monomials, so these only need sorting.
    Nothing is substituted or validated: f is canonical, so the result is.
    """
    m = f.domain_dim
    pad = (0,) * m
    t = [pad[:j] + (1,) + pad[j + 1 :] for j in range(m)]
    base, tangent = [], []
    for comp in f.components:
        base.append(Polynomial(2 * m, tuple((e + pad, c) for e, c in comp.terms)))
        acc: dict[tuple[int, ...], Fraction] = {}
        for e, c in comp.terms:
            for j, ej in enumerate(e):
                if ej:
                    acc[e[:j] + (ej - 1,) + e[j + 1 :] + t[j]] = c * ej
        tangent.append(Polynomial(2 * m, _sorted_terms(acc)))
    return PolyMap(2 * m, tuple(base + tangent))


def proj_p(s: Space) -> PolyMap:
    """p : TM -> M, first-block projection."""
    return PolyMap.selection(2 * s.dim, range(s.dim))


def zero_0(s: Space) -> PolyMap:
    """0 : M -> TM, x |-> (x, 0)."""
    n = s.dim
    comps = [Polynomial.variable(n, i) for i in range(n)] + [Polynomial.zero(n)] * n
    return PolyMap(n, tuple(comps))


def add_plus(s: Space) -> PolyMap:
    """+ : T_2 M -> TM, (x, t1, t2) |-> (x, t1 + t2)."""
    n = s.dim
    dom = 3 * n
    comps = [Polynomial.variable(dom, i) for i in range(n)]
    comps += [
        Polynomial.variable(dom, n + i) + Polynomial.variable(dom, 2 * n + i)
        for i in range(n)
    ]
    return PolyMap(dom, tuple(comps))


def lift_l(s: Space) -> PolyMap:
    """l : TM -> T^2 M, (x, t) |-> (x, 0, 0, t)."""
    n = s.dim
    dom = 2 * n
    comps = [Polynomial.variable(dom, i) for i in range(n)]
    comps += [Polynomial.zero(dom)] * (2 * n)
    comps += [Polynomial.variable(dom, n + i) for i in range(n)]
    return PolyMap(dom, tuple(comps))


def flip_c(s: Space) -> PolyMap:
    """c : T^2 M -> T^2 M, (x, t, u, v) |-> (x, u, t, v)."""
    n = s.dim
    dom = 4 * n
    order = (
        list(range(n))
        + list(range(2 * n, 3 * n))
        + list(range(n, 2 * n))
        + list(range(3 * n, 4 * n))
    )
    return PolyMap.selection(dom, order)


def check_tangent_axioms(s: Space) -> Report:
    """Verify the tangent-structure equations for one space, exactly."""
    rep = Report(subject=f"tangent structure on R^{s.dim}")
    tm = T_obj(s)
    c = flip_c(s)
    l = lift_l(s)

    rep.check_equal("flip involution", "cc = 1", compose(c, c), PolyMap.identity(4 * s.dim))
    rep.check_equal("lift fixed by flip", "lc = l", compose(l, c), l)
    rep.check_equal(
        "lift coassociativity",
        "l T(l) = l l_T",
        compose(l, T_map(l)),
        compose(l, lift_l(tm)),
    )
    rep.check_equal(
        "flip braid relation",
        "T(c) c_T T(c) = c_T T(c) c_T",
        compose_all(T_map(c), flip_c(tm), T_map(c)),
        compose_all(flip_c(tm), T_map(c), flip_c(tm)),
    )
    rep.check_equal(
        "lift/flip exchange",
        "l_T T(c) c_T = c T(l)",
        compose_all(lift_l(tm), T_map(c), flip_c(tm)),
        compose_all(c, T_map(l)),
    )

    # (l, 0): the lift with the zero section is a morphism of additive bundles
    # from (TM, p, +, 0) over M to (T^2 M, T(p), T(+), T(0)) over TM.
    sub = Report(subject="(l, 0) additivity")
    sub.check_equal(
        "base square", "p 0 = l T(p)", compose(proj_p(s), zero_0(s)), compose(l, T_map(proj_p(s)))
    )
    sub.check_equal(
        "zero preservation", "0 l = 0 T(0)", compose(zero_0(s), l), compose(zero_0(s), T_map(zero_0(s)))
    )
    # T_2 M is the fibre square of the tangent bundle (TM over M).
    p1, p2 = (power_proj(tm.dim, range(s.dim), 2, i) for i in (1, 2))
    l_times_l = pair_into(
        2 * power_dim(tm.dim, range(s.dim), 2),
        [T_map(p1), T_map(p2)],
        [compose(p1, l), compose(p2, l)],
    )
    sub.check_equal(
        "addition preservation",
        "+ l = (l x l) T(+)",
        compose(add_plus(s), l),
        compose(l_times_l, T_map(add_plus(s))),
    )
    rep.summary("(l, 0) additive-bundle morphism", "monoid morphism over the zero section", sub)

    # (c, 1): the flip is a morphism of additive bundles from
    # (T^2 M, T(p), T(+), T(0)) over TM to (T^2 M, p_TM, +_TM, 0_TM) over TM.
    sub = Report(subject="(c, 1) additivity")
    sub.check_equal("base square", "T(p) = c p_TM", T_map(proj_p(s)), compose(c, proj_p(tm)))
    sub.check_equal(
        "zero preservation", "T(0) c = 0_TM", compose(T_map(zero_0(s)), c), zero_0(tm)
    )
    c_times_c = power_pair(
        2 * tm.dim, range(tm.dim), [compose(T_map(p1), c), compose(T_map(p2), c)]
    )
    sub.check_equal(
        "addition preservation",
        "T(+) c = (c x c) +_TM",
        compose(T_map(add_plus(s)), c),
        compose(c_times_c, add_plus(tm)),
    )
    rep.summary("(c, 1) additive-bundle morphism", "monoid morphism over the identity", sub)
    return rep
