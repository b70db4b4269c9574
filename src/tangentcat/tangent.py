"""Tangent structure on Cartesian spaces with polynomial maps.

The tangent functor T doubles a space and sends a map f to its symbolic total
derivative T(f)(x, t) = (f(x), J_f(x) t).  The structural maps p (projection),
0 (zero section), + (fibrewise addition), l (vertical lift), and c (canonical
flip) are all coordinate-level polynomial maps.  The equations between them
are verified by ``dbundle.check_tangent_axioms``, since two of them say that
(l, 0) and (c, 1) are additive bundle morphisms.  ``T_after(L, g)`` is T(g)
after L, formed in one pass when L only selects coordinates or zeroes them.

Coordinate convention: base point leftmost.  TM has layout (x, t), T^2 M has
layout (x, t, u, v) with each block the size of M, and the fibre power T_k M
has layout (x, t_1, ..., t_k): ``polycore.power_proj`` with ``(2n, range(n))``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .polycore import PolyMap, Polynomial, ShapeError, Value, _sorted_terms, compose

_NAME_POOL = "tuvwabcdefghijklmnopqrsyz"


class Space(Value):
    """A Cartesian space R^n with named coordinate blocks."""

    _fields = ("dim", "layout")

    def __init__(self, dim: int, layout: tuple[tuple[str, int], ...]) -> None:
        self.__dict__.update(dim=dim, layout=layout)
        if any(size <= 0 for _, size in self.layout):
            raise ShapeError("block sizes must be positive")
        if sum(size for _, size in self.layout) != self.dim:
            raise ShapeError("block sizes do not sum to the dimension")

    @staticmethod
    def euclidean(n: int) -> "Space":
        if n == 0:
            return Space(0, ())
        return Space(n, (("x", n),))


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
    A bare component x_i gives the variables x_i and t_i, and a zero
    component gives two zeros, without either computation; so T of a
    coordinate selection selects the same coordinates of both blocks.
    """
    m = f.domain_dim
    pad = (0,) * m
    t = [pad[:j] + (1,) + pad[j + 1 :] for j in range(m)]
    base, tangent = [], []
    for comp in f.components:
        if (i := comp.bare) is not None:
            base.append(Polynomial.variable(2 * m, i))
            tangent.append(Polynomial.variable(2 * m, m + i))
            continue
        if not comp.terms:
            base.append(Polynomial.zero(2 * m))
            tangent.append(Polynomial.zero(2 * m))
            continue
        base.append(Polynomial(2 * m, tuple((e + pad, c) for e, c in comp.terms)))
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in comp.terms:
            for j, ej in enumerate(e):
                if ej:
                    acc[e[:j] + (ej - 1,) + e[j + 1 :] + t[j]] = c if ej == 1 else c * ej
        tangent.append(Polynomial(2 * m, _sorted_terms(acc)))
    return PolyMap(2 * m, tuple(base + tangent))


def T_after(L: PolyMap, g: PolyMap) -> PolyMap:
    """T(g) after L, ``compose(L, T_map(g))``, in one pass when L is a padded selection.

    When every component of L is a bare variable or zero, L sends each point
    coordinate y_k of T(g)'s domain to x_a(k) or to 0 and each tangent
    coordinate t_k to x_v(k) or to 0.  Write Z for the zeroed point
    coordinates.  A term c y^e of a component of g gives c y^e in T(g)'s
    point part and c e_j y^(e - 1_j) t_j, for each j with e_j > 0, in its
    tangent part; after L a monomial survives exactly when it has no
    positive exponent on a zeroed coordinate, and it is then x^(e mapped)
    times the mapped tangent variable.  So:

    - if e is positive on two coordinates of Z, each of those monomials
      keeps a positive exponent on one of them (lowering one exponent
      leaves the other), and the term gives nothing;
    - if e is positive on exactly one k in Z, y^e itself vanishes, and so
      does every derivative along j != k, which keeps e_k; the one along k
      survives exactly when e_k = 1 and t_k is not zeroed, as
      c x^(e - 1_k mapped) x_v(k);
    - otherwise y^e survives as c x^(e mapped), and the derivative along j
      as c e_j x^(e - 1_j mapped) x_v(j) whenever t_j is not zeroed.

    Terms are accumulated (L may send two coordinates to one variable) and
    sorted once, so the result is the canonical composite, with neither
    T(g) nor a substitution built.  A bare or zero component of g takes
    ``T_map``'s shortcuts: x_i gives L's i-th and (m + i)-th components,
    and zero gives two zeros.  Any other L, or one of the wrong shape, goes
    through ``compose(L, T_map(g))``, which raises ``ShapeError`` for the
    shape.
    """
    m, d = g.domain_dim, L.domain_dim
    sel = [c.bare if c.terms else -1 for c in L.components]
    if L.codomain_dim != 2 * m or None in sel:
        return compose(L, T_map(g))
    a, v = sel[:m], sel[m:]
    base, tangent = [], []
    for comp in g.components:
        if (i := comp.bare) is not None:
            base.append(L.components[i])
            tangent.append(L.components[m + i])
            continue
        if not comp.terms:
            base.append(Polynomial.zero(d))
            tangent.append(Polynomial.zero(d))
            continue
        point: dict[tuple[int, ...], int | Fraction] = {}
        acc: dict[tuple[int, ...], int | Fraction] = {}
        for e, c in comp.terms:
            new, zeroed = [0] * d, []
            for k, ek in enumerate(e):
                if ek and a[k] < 0:
                    zeroed.append(k)
                elif ek:
                    new[a[k]] += ek
            if zeroed:
                k = zeroed[0]
                if len(zeroed) == 1 and e[k] == 1 and v[k] >= 0:
                    new[v[k]] += 1
                    key = tuple(new)
                    acc[key] = acc.get(key, 0) + c
                continue
            key = tuple(new)
            point[key] = point.get(key, 0) + c
            for j, ej in enumerate(e):
                if ej and v[j] >= 0:
                    lowered = new.copy()
                    lowered[a[j]] -= 1
                    lowered[v[j]] += 1
                    key = tuple(lowered)
                    acc[key] = acc.get(key, 0) + c * ej
        base.append(Polynomial(d, _sorted_terms(point)))
        tangent.append(Polynomial(d, _sorted_terms(acc)))
    return PolyMap(d, tuple(base + tangent))


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
