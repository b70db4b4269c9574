"""Exact multivariate polynomial arithmetic over the rationals.

A polynomial is a finite set of monomial terms with nonzero rational
coefficients, an ``int`` when integral and else a ``Fraction``, kept in a
canonical (graded lexicographic) order so that structural equality coincides
with mathematical equality.  A ``PolyMap`` is a tuple of polynomials sharing
one arity and is the engine's notion of a smooth morphism between Cartesian
spaces; every identity checked downstream bottoms out in ``map_equal`` here,
which is why coefficients are exact rationals and never floats.

Composition is written diagrammatically throughout: ``compose(g, f)`` means
"first g, then f".
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, takewhile
from operator import add, attrgetter
from typing import Iterable, Mapping, Optional, Sequence, TypeVar

Exponent = tuple[int, ...]
Term = tuple[Exponent, int | Fraction]


class ShapeError(ValueError):
    """Raised when arities or map dimensions do not line up."""


def _exact(c: int | Fraction) -> int | Fraction:
    """The canonical coefficient: an ``int`` when c is integral, else c."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _canonical_terms(arity: int, terms: Mapping[Exponent, Fraction | int]) -> tuple[Term, ...]:
    items = []
    for exps, coeff in terms.items():
        if type(coeff) is not int:
            coeff = _exact(Fraction(coeff))
        if coeff == 0:
            continue
        if len(exps) != arity:
            raise ShapeError(f"exponent vector {exps} has length != arity {arity}")
        if any(e < 0 for e in exps):
            raise ShapeError(f"negative exponent in {exps}")
        items.append((tuple(exps), coeff))
    items.sort(key=_grlex)
    return tuple(items)


def _grlex(term: Term) -> tuple[int, Exponent]:
    """Graded lexicographic key: total degree first, then lexicographic on exponents."""
    return sum(term[0]), term[0]


def _sorted_terms(acc: Mapping[Exponent, int | Fraction]) -> tuple[Term, ...]:
    """Canonical terms of an accumulator: zeros dropped, integral values as ``int``, graded-lex order.

    Nothing is validated: the arithmetic builds valid exponents and exact
    coefficients by construction.  Validation happens once, at the
    boundary, in ``from_terms`` (which ``serialize`` calls).
    """
    return tuple(sorted(((e, _exact(c)) for e, c in acc.items() if c), key=_grlex))


def _value(terms: Iterable[Term], point: Sequence[Fraction]) -> Fraction:
    """The value of a sum of terms at a point of matching length."""
    total = Fraction(0)
    for exps, coeff in terms:
        for v, e in zip(point, exps):
            if e:
                coeff *= v**e
        total += coeff
    return total


# The term budget: the most term products one multiplication may form, and
# the highest exponent a substitution raises an argument to (a power x^e is
# a chain of e - 1 products).  A product or a power beyond it raises
# ``BudgetExceeded``; the engine's checks record that as cannot-certify.
# The largest product any test or benchmark document forms is below 10,000.
TERM_BUDGET = 1 << 15


class BudgetExceeded(Exception):
    """Raised when a product or an inverse expansion exceeds the engine's budget.

    ``witness`` names the budget.  It is not a ``ValueError``, which the CLI
    turns into exit 1: that would hide a missed catch.
    """

    def __init__(self, witness: str) -> None:
        super().__init__(witness)
        self.witness = witness


def _mul_terms(a: Sequence[Term], b: Sequence[Term]) -> dict[Exponent, int | Fraction]:
    """Product of two term lists as an accumulator; zeros are not dropped.

    Every product in the engine is made here, so ``TERM_BUDGET`` bounds each.
    """
    if len(a) * len(b) > TERM_BUDGET:
        raise BudgetExceeded(f"a product of {len(a)} by {len(b)} terms exceeds the term budget ({TERM_BUDGET})")
    acc: dict[Exponent, int | Fraction] = {}
    get = acc.get
    for ea, ca in a:
        for eb, cb in b:
            k = tuple(map(add, ea, eb))
            v = get(k)
            acc[k] = ca * cb if v is None else v + ca * cb
    return acc


_set = object.__setattr__
V = TypeVar("V", bound="Value")


class Value:
    """The base of the engine's immutable values, from polynomials to connections.

    A subclass names its fields in ``_fields``, in the order of its
    ``__init__``'s parameters; the ``__init__`` writes them past
    ``__setattr__`` and checks them.  Two values are equal when they are of
    one class and their ``_compared`` fields (by default all) are equal; the
    hash is that of the compared fields' tuple, and ``repr`` is
    ``Name(field=value, ...)`` over ``_fields``.  Assigning or deleting an
    attribute raises ``AttributeError``.  ``replace``, copies and pickles
    rebuild through ``__init__``, so what they build is checked too.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        # An attrgetter is no descriptor: self._key is the getter itself.
        names = cls.__dict__.get("_compared", cls._fields)
        get = attrgetter(*names)
        cls._key = get if len(names) > 1 else staticmethod(lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def replace(self: V, **changes: object) -> V:
        """A copy with the named fields changed, built and checked by ``__init__``."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


class Polynomial(Value):
    """An exact polynomial in ``arity`` variables, in canonical form.

    ``bare`` is the index i when it is the variable x_i with coefficient 1,
    else None.
    """

    __slots__ = ("arity", "terms", "bare")
    _fields = ("arity", "terms")

    def __init__(self, arity: int, terms: tuple[Term, ...]) -> None:
        _set(self, "arity", arity)
        _set(self, "terms", terms)
        bare = None
        if len(terms) == 1:
            exps, coeff = terms[0]
            if coeff == 1 and sum(exps) == 1:
                bare = exps.index(1)
        _set(self, "bare", bare)

    @staticmethod
    def from_terms(arity: int, terms: Mapping[Exponent, Fraction | int]) -> "Polynomial":
        return Polynomial(arity, _canonical_terms(arity, terms))

    @staticmethod
    @cache
    def zero(arity: int) -> "Polynomial":
        return Polynomial(arity, ())

    @staticmethod
    def constant(arity: int, value: Fraction | int) -> "Polynomial":
        return Polynomial.from_terms(arity, {(0,) * arity: value})

    @staticmethod
    @cache
    def variable(arity: int, index: int) -> "Polynomial":
        if not 0 <= index < arity:
            raise ShapeError(f"variable index {index} out of range for arity {arity}")
        exps = [0] * arity
        exps[index] = 1
        return Polynomial(arity, ((tuple(exps), 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if self.arity != other.arity:
            raise ShapeError(f"arity mismatch: {self.arity} vs {other.arity}")
        acc: dict[Exponent, int | Fraction] = dict(self.terms)
        get = acc.get
        for exps, coeff in other.terms:
            v = get(exps)
            acc[exps] = coeff if v is None else v + coeff
        return Polynomial(self.arity, _sorted_terms(acc))

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.arity, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if self.arity != other.arity:
            raise ShapeError(f"arity mismatch: {self.arity} vs {other.arity}")
        return Polynomial(self.arity, _sorted_terms(_mul_terms(self.terms, other.terms)))

    def scale(self, value: Fraction | int) -> "Polynomial":
        v = _exact(Fraction(value))
        if v == 0:
            return Polynomial.zero(self.arity)
        return Polynomial(self.arity, tuple((e, _exact(c * v)) for e, c in self.terms))

    def derivative(self, index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``index``."""
        acc: dict[Exponent, int | Fraction] = {}
        for exps, coeff in self.terms:
            e = exps[index]
            if e:
                acc[exps[:index] + (e - 1,) + exps[index + 1 :]] = coeff * e
        return Polynomial(self.arity, _sorted_terms(acc))

    def evaluate(self, point: Sequence[Fraction | int]) -> Fraction:
        if len(point) != self.arity:
            raise ShapeError(f"point length {len(point)} != arity {self.arity}")
        return _value(self.terms, [Fraction(v) for v in point])

    def substitute(self, args: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``args[i]`` for variable i; all args share one arity.

        Only the shapes are checked here; ``_substitute_all`` does the work.
        """
        if len(args) != self.arity:
            raise ShapeError(f"need {self.arity} substitutions, got {len(args)}")
        new_arity = args[0].arity if args else 0
        for a in args:
            if a.arity != new_arity:
                raise ShapeError("substitution arguments have mixed arities")
        return _substitute_all((self,), args, new_arity)[0]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = [str(coeff)] if coeff != 1 or not any(exps) else []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _substitute_all(
    polys: Sequence[Polynomial], args: Sequence[Polynomial], new_arity: int
) -> tuple[Polynomial, ...]:
    """Substitute ``args`` into each of ``polys``, whose arity is ``len(args)``.

    A zero polynomial gives the zero of the new arity, and a bare variable
    x_i gives ``args[i]`` itself, shared and not rebuilt: it is canonical
    and immutable.  Both skip the two paths below; the structural maps
    (lifts, zero sections, injections, fibre powers) are made mostly of
    such components.  The rest take one of two paths, neither of which
    builds an intermediate ``Polynomial``: when
    every argument is a bare variable (a coordinate selection or a padding),
    ``idx`` holds their indices and the substitution is a reindexing of
    exponents; otherwise ``idx`` is None and the powers of
    each argument are computed once for all of ``polys`` and the products of
    each polynomial's terms accumulate into one dict.  A power x^e is a
    chain of e - 1 products, so an exponent above ``TERM_BUDGET`` raises
    ``BudgetExceeded`` before its chain is built.  Nothing is validated:
    the callers check shapes, and canonical inputs give canonical results.
    """
    idx = _variable_indices(args)
    out = []
    one = (((0,) * new_arity, 1),)
    powers = [[one, a.terms] for a in args]  # powers[i][e] = args[i]^e
    for p in polys:
        if not p.terms:
            out.append(Polynomial.zero(new_arity))
            continue
        if (i := p.bare) is not None:
            out.append(args[i])
            continue
        acc: dict[Exponent, int | Fraction] = {}
        get = acc.get
        if idx is not None:
            for exps, coeff in p.terms:
                new = [0] * new_arity
                for i, e in zip(idx, exps):
                    new[i] += e
                k = tuple(new)
                v = get(k)
                acc[k] = coeff if v is None else v + coeff
        else:
            for exps, coeff in p.terms:
                term = None
                for i, e in enumerate(exps):
                    if e:
                        pw = powers[i]
                        while len(pw) <= e:
                            if e > TERM_BUDGET:
                                raise BudgetExceeded(f"a power of exponent {e} exceeds the term budget ({TERM_BUDGET})")
                            pw.append(tuple(_mul_terms(pw[-1], pw[1]).items()))
                        term = pw[e] if term is None else tuple(_mul_terms(term, pw[e]).items())
                for k, c in one if term is None else term:
                    v = get(k)
                    acc[k] = coeff * c if v is None else v + coeff * c
        out.append(Polynomial(new_arity, _sorted_terms(acc)))
    return tuple(out)


class PolyMap(Value):
    """A polynomial map between Cartesian spaces: one component per output."""

    _fields = ("domain_dim", "components")

    def __init__(self, domain_dim: int, components: tuple[Polynomial, ...]) -> None:
        self.__dict__.update(domain_dim=domain_dim, components=components)
        for c in self.components:
            if c.arity != self.domain_dim:
                raise ShapeError(
                    f"component arity {c.arity} != domain dimension {self.domain_dim}"
                )

    @property
    def codomain_dim(self) -> int:
        return len(self.components)

    @staticmethod
    def identity(n: int) -> "PolyMap":
        return PolyMap(n, tuple(Polynomial.variable(n, i) for i in range(n)))

    @staticmethod
    def selection(domain_dim: int, indices: Sequence[int]) -> "PolyMap":
        """The coordinate projection picking out the given input positions."""
        return PolyMap(domain_dim, tuple(Polynomial.variable(domain_dim, i) for i in indices))

    @staticmethod
    def from_components(domain_dim: int, components: Iterable[Polynomial]) -> "PolyMap":
        return PolyMap(domain_dim, tuple(components))

    def max_degree(self) -> int:
        return max((c.total_degree() for c in self.components), default=0)

    @cached_property
    def selected(self) -> Optional[tuple[int, ...]]:
        """The selected indices when every component is a bare variable, else None."""
        return _variable_indices(self.components)


def compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """Diagrammatic composite: apply g first, then f.

    All of f's components go through one ``_substitute_all`` call: a zero
    component of f gives zero and a bare variable x_i gives g's i-th
    component itself, with no arithmetic, so when f is a coordinate
    selection the composite is g's components picked by index.  The rest
    are reindexed when g is a selection and else share the powers of g's
    components among them.
    Only the shapes are checked: canonical inputs give a canonical result.
    """
    if g.codomain_dim != f.domain_dim:
        raise ShapeError(
            f"cannot compose: first map lands in dim {g.codomain_dim}, "
            f"second expects dim {f.domain_dim}"
        )
    return PolyMap(g.domain_dim, _substitute_all(f.components, g.components, g.domain_dim))


def compose_all(*maps: PolyMap) -> PolyMap:
    """Diagrammatic composite of a chain of maps, left to right."""
    out = maps[0]
    for m in maps[1:]:
        out = compose(out, m)
    return out


def jacobian(f: PolyMap) -> tuple[tuple[Polynomial, ...], ...]:
    """Matrix of exact partial derivatives: entry (i, j) = d f_i / d x_j."""
    return tuple(
        tuple(c.derivative(j) for j in range(f.domain_dim)) for c in f.components
    )


def map_equal(f: PolyMap, g: PolyMap) -> bool:
    """Exact equality of maps: identical canonical components."""
    if f.domain_dim != g.domain_dim or f.codomain_dim != g.codomain_dim:
        raise ShapeError("map_equal: shape mismatch")
    return f.components == g.components


def eval_map(f: PolyMap, point: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
    if len(point) != f.domain_dim:
        raise ShapeError(f"point length {len(point)} != domain dim {f.domain_dim}")
    return tuple(c.evaluate(point) for c in f.components)


def first_difference(f: PolyMap, g: PolyMap) -> Optional[str]:
    """A witness monomial for f != g, or None when the maps agree."""
    if f.components == g.components:
        return None
    for i, (a, b) in enumerate(zip(f.components, g.components)):
        d = a - b
        if not d.is_zero():
            exps, coeff = d.terms[0]
            mono = "*".join(f"x{j}^{e}" for j, e in enumerate(exps) if e) or "1"
            return f"component {i}: coefficient of {mono} differs by {coeff}"
    return f"codomain dims differ: {f.codomain_dim} vs {g.codomain_dim}"


def _variable_indices(polys: Sequence[Polynomial]) -> Optional[tuple[int, ...]]:
    """If every polynomial is a bare variable, return the variables' indices."""
    out = tuple(c.bare for c in polys)
    return None if None in out else out


def pair_into(
    target_dim: int, projections: Sequence[PolyMap], maps: Sequence[PolyMap]
) -> PolyMap:
    """Pair maps into a space presented by jointly-covering coordinate projections.

    Each ``projections[i]`` must be a coordinate selection out of the target
    space, and ``maps[i]`` a map into its codomain from a common domain.  The
    unique map h with ``compose(h, projections[i]) == maps[i]`` is assembled by
    reading each target coordinate off whichever map supplies it; overlapping
    coordinates must agree exactly and every target coordinate must be covered.
    """
    if len(projections) != len(maps):
        raise ShapeError("pair_into: projections and maps differ in number")
    if not maps:
        raise ShapeError("pair_into: nothing to pair")
    dom = maps[0].domain_dim
    slots: list[Optional[Polynomial]] = [None] * target_dim
    for proj, m in zip(projections, maps):
        if proj.domain_dim != target_dim:
            raise ShapeError("pair_into: projection domain != target dimension")
        if m.domain_dim != dom:
            raise ShapeError("pair_into: paired maps have mixed domains")
        if m.codomain_dim != proj.codomain_dim:
            raise ShapeError("pair_into: map does not match its projection")
        idx = proj.selected
        if idx is None:
            raise ShapeError("pair_into: projection is not a coordinate selection")
        for j, comp in zip(idx, m.components):
            if slots[j] is None:
                slots[j] = comp
            elif slots[j] != comp:
                raise ShapeError(
                    f"pair_into: inconsistent values for target coordinate {j}"
                )
    missing = [j for j, s in enumerate(slots) if s is None]
    if missing:
        raise ShapeError(f"pair_into: target coordinates {missing} not covered")
    return PolyMap(dom, tuple(s for s in slots if s is not None))


def power_dim(total_dim: int, base_coords: Sequence[int], k: int) -> int:
    """Dimension of the canonical k-th fibre power of a coordinate projection."""
    return total_dim + (k - 1) * (total_dim - len(base_coords))


def power_proj(total_dim: int, base_coords: Sequence[int], k: int, i: int) -> PolyMap:
    """The i-th projection (i in 1..k) of the canonical k-th fibre power.

    The projection of a total space onto the coordinates ``base_coords`` has
    as its k-th fibre power the total coordinates followed by k-1 further
    copies of the fibre block (the remaining coordinates, in order).  For
    the tangent bundle of R^n, ``(2n, range(n))``, this is T_k M with layout
    (x, t_1, ..., t_k).
    """
    if not 1 <= i <= k:
        raise ShapeError(f"projection index {i} out of range for fibre power {k}")
    dom = power_dim(total_dim, base_coords, k)
    if i == 1:
        return PolyMap.selection(dom, range(total_dim))
    f = total_dim - len(base_coords)
    fib = iter(range(total_dim + (i - 2) * f, total_dim + (i - 1) * f))
    base = set(base_coords)
    return PolyMap.selection(dom, [j if j in base else next(fib) for j in range(total_dim)])


def power_pair(total_dim: int, base_coords: Sequence[int], maps: Sequence[PolyMap]) -> PolyMap:
    """Pair maps into the canonical fibre power; their bases must agree exactly."""
    k = len(maps)
    projs = [power_proj(total_dim, base_coords, k, i + 1) for i in range(k)]
    return pair_into(power_dim(total_dim, base_coords, k), projs, maps)


# The inverter's degree budget.  Its expansion of the inverse stops at this
# degree, so an inverse beyond it is never found, and a refutation by the
# Bass-Connell-Wright bound needs that bound to lie within it; running out
# of it below that bound raises ``BudgetExceeded``.
DEGREE_BUDGET = 64


def _gauss_jordan(rows: list[dict[int, int | Fraction]]) -> tuple[Fraction, Optional[list[dict[int, Fraction]]]]:
    """Determinant and inverse of a square matrix of sparse rows; no inverse when singular.

    Rows hold no zero entries, so a permutation of scaled coordinates costs
    one pass over its columns.  Pivots are made ``Fraction``s: int rows divide exactly.
    """
    n = len(rows)
    aug = [{**row, n + i: 1} for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if col in aug[r]), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
            det = -det
        p = Fraction(aug[col][col])
        det *= p
        prow = aug[col] = {k: v / p for k, v in aug[col].items()}
        for r, row in enumerate(aug):
            factor = None if r == col else row.get(col)
            if factor:
                for k, v in prow.items():
                    new = row.get(k, 0) - factor * v
                    if new:
                        row[k] = new
                    else:
                        del row[k]
    return det, [{k - n: v for k, v in row.items() if k >= n} for row in aug]


# Points at which ``_det_witness`` samples det J after its three fixed ones.
_DET_SAMPLES = 3


def _det_witness(f: PolyMap) -> Optional[str]:
    """det J_f vanishing at, or differing between, rational points.

    An inverse g gives J_g(f(x)) J_f(x) = I, so the Jacobian determinant of
    a polynomial automorphism is a nonzero constant.  Three fixed points
    come first.  In three or more variables ``_DET_SAMPLES`` points drawn
    from a generator seeded by f's canonical form follow, so a map whose
    det J agrees at the fixed points is caught before a long expansion, and
    one map always meets the same points.  In fewer variables the
    Bass-Connell-Wright bound (deg f)^(n-1) is at most deg f: the expansion
    has ended when det J is sampled, and the bound refutes at once.  The
    seed writes every coefficient of f as a ``Fraction``, whichever type holds it.
    """
    n, jac, first = f.domain_dim, jacobian(f), None
    as_fractions = tuple(Polynomial(n, tuple((e, Fraction(v)) for e, v in c.terms)) for c in f.components)
    rng = random.Random(repr(PolyMap(n, as_fractions)))
    seeded = (
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(_DET_SAMPLES if n > 2 else 0)
    )
    for point in chain(((0,) * n, range(1, n + 1), [Fraction(-1, i + 2) for i in range(n)]), seeded):
        point = [Fraction(v) for v in point]
        det = _gauss_jordan([{j: v for j, e in enumerate(r) if (v := e.evaluate(point))} for r in jac])[0]
        where = "(" + ", ".join(map(str, point)) + ")"
        if not det:
            return f"det J vanishes at {where}"
        if first is None:
            first = det, where
        elif det != first[0]:
            return f"det J is {first[0]} at {first[1]} but {det} at {where}"
    return None


class NotInvertible(Exception):
    """Raised by ``invert_polymap`` for a map that has no inverse.

    ``witness`` is an exact refutation.  It is not a ``ValueError``, which
    the CLI turns into exit 1: that would hide a missed catch.
    """

    def __init__(self, witness: str) -> None:
        super().__init__(witness)
        self.witness = witness


def _triangular_inverse(f: PolyMap) -> Optional[PolyMap]:
    """The closed-form inverse of a triangular f (see ``invert_polymap``), or None.

    None means f is not triangular, or its matrix A is singular.  y_S puts
    y_k where component k is x_s, so p(y_S) is p(x_S) with its exponents
    moved: no substitution is made.
    """
    n, comps = f.domain_dim, f.components
    source: list[Optional[int]] = [None] * n  # source[s] = k when component k is x_s
    for k, c in enumerate(comps):
        if (s := c.bare) is not None:
            if source[s] is not None:
                return None
            source[s] = k
    rest = [r for r in range(n) if source[r] is None]
    column = {r: j for j, r in enumerate(rest)}
    others = [k for k, c in enumerate(comps) if c.bare is None]
    rows, minus_p = [], []  # A's rows and -p_k(y_S), one per component in ``others``
    for k in others:
        row, neg = {}, {}
        for e, v in comps[k].terms:
            touched = [r for r in rest if e[r]]
            if not touched:
                y = [0] * n
                for s, d in enumerate(e):
                    if d:
                        y[source[s]] = d
                neg[tuple(y)] = -v
            elif sum(e) == 1:
                row[column[touched[0]]] = v
            else:
                return None
        rows.append(row)
        minus_p.append(neg)
    a_inv = _gauss_jordan(rows)[1]
    if a_inv is None:
        return None
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    out = []
    for x, k in enumerate(source):
        if k is not None:
            out.append(Polynomial.variable(n, k))
            continue
        acc: dict[Exponent, int | Fraction] = {}
        for i, a in a_inv[column[x]].items():
            acc[units[others[i]]] = a
            for e, v in minus_p[i].items():
                acc[e] = acc.get(e, 0) + a * v
        out.append(Polynomial(n, _sorted_terms(acc)))
    return PolyMap(n, tuple(out))


def invert_polymap(f: PolyMap) -> PolyMap:
    """The two-sided polynomial inverse of f; the engine's only inverter.

    The first candidate is a closed form, for f triangular: its
    bare-variable components x_s use no variable twice (S the variables
    they use, R the rest), and each other component is
    sum_r A_kr x_r + p_k(x_S), A a constant matrix over r in R.  The maps
    theta = <p_E, T(q), K> of a vertical K and the universality maps mu of
    the bundles the engine reads have this form.  With A invertible,
    g(y) = (x_S = y_S, x_R = A^-1 (y_rest - p(y_S))) is the inverse:
    g(f(x)) = (x_S, A^-1 (A x_R + p(x_S) - p(x_S))) = x, and
    f(g(y)) = (y_S, A A^-1 (y_rest - p(y_S)) + p(y_S)) = y.
    ``_triangular_inverse`` builds it.

    Every other f, and a triangular f with A singular, goes to
    ``_expand_inverse``.  With A = J_f(0) and c = f(0), g = A^-1 (f - c)
    = y + h(y), h of order at least 2, and f^-1 = G after
    x -> A^-1 (x - c), where G is the fixed point of G <- x - h(G).  G is
    expanded one homogeneous degree at a time: G_k = -[h(G)]_k needs G
    only below degree k.  From degree deg f on, each truncation is tried at
    one rational point, and one that passes there is checked by one
    composite.  The expansion stops at the Bass-Connell-Wright bound
    (deg f)^(n-1) on the degree of an inverse (Bass, Connell & Wright,
    "The Jacobian conjecture", Bull. AMS 7, 1982), or at ``DEGREE_BUDGET``
    when that is smaller.  det J_f is sampled once, if G has not closed by
    degree deg f.  A polynomial inverse is unique and ``Polynomial`` is
    canonical, so both candidates return the same map.

    Both candidates pass through the same certifying composite: a
    candidate g is certified by f(g(x)) = x alone, the cheaper composite:
    it substitutes g into the low-degree f.  That makes g two-sided.  The
    chain rule gives J_f(g(x)) J_g(x) = I, so J_g(0) is invertible and g
    has a formal inverse phi at g(0): g(phi(y)) = y and phi(g(x)) = x as
    power series.  Then f(y) = f(g(phi(y))) = phi(y) as power series at
    g(0), so g(f(y)) = g(phi(y)) = y there.  g(f(y)) - y is a polynomial
    whose expansion at g(0) vanishes, so it is zero.

    Raises ``NotInvertible`` with an exact witness when f has no inverse:
    f is not square, J_f(0) is singular, det J_f vanishes or differs at
    sampled rational points, or no inverse exists within the
    Bass-Connell-Wright bound.  Raises ``BudgetExceeded`` when
    ``DEGREE_BUDGET`` is below that bound and runs out, or when a product
    exceeds ``TERM_BUDGET``.
    """
    n = f.domain_dim
    if f.codomain_dim != n:
        raise NotInvertible(f"it maps dimension {n} to dimension {f.codomain_dim}")
    inv = _triangular_inverse(f)
    if inv is not None and map_equal(compose(inv, f), PolyMap.identity(n)):
        return inv
    return _expand_inverse(f)


def _expand_inverse(f: PolyMap) -> PolyMap:
    """The inverse of a square f by the degree-by-degree expansion of ``invert_polymap``."""
    n = f.domain_dim
    # J_f(0) and f(0) from the terms of degree at most one, which lead
    low = [list(takewhile(lambda t: sum(t[0]) < 2, c.terms)) for c in f.components]
    linear = [{e.index(1): c for e, c in terms if any(e)} for terms in low]
    consts = [sum((c for e, c in terms if not any(e)), Fraction(0)) for terms in low]
    a_inv = _gauss_jordan(linear)[1]
    if a_inv is None:
        rows = "; ".join(", ".join(str(row.get(j, 0)) for j in range(n)) for row in linear)
        raise NotInvertible(f"the linear part J(0) = [{rows}] is singular")
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    shift = PolyMap(n, tuple(  # x -> A^-1 (x - c)
        Polynomial(n, _sorted_terms({(0,) * n: -sum(a * consts[j] for j, a in row.items()),
                                     **{units[j]: a for j, a in row.items()}}))
        for row in a_inv
    ))
    h = [Polynomial(n, tuple(t for t in c.terms if sum(t[0]) > 1)) for c in compose(f, shift).components]
    # parts[m][k] is the degree-k part of G^m, for m a variable, a monomial
    # of h or a prefix of one, built as G^(m - e_i) G_i.
    parts: dict[Exponent, list[dict[Exponent, int | Fraction]]] = {u: [{}, {u: 1}] for u in units}
    recipe = []
    for m in (m for c in h for m, _ in c.terms):
        while m not in parts:
            i = next(i for i, e in enumerate(m) if e)
            parent = m[:i] + (m[i] - 1,) + m[i + 1 :]
            parts[m] = [{}, {}]
            recipe.append((sum(m), m, parent, i))
            m = parent
    recipe.sort()
    deg = f.max_degree()
    bound = deg ** (n - 1) if n > 1 else 1
    cap = min(bound, DEGREE_BUDGET)
    point = [Fraction(i + 2, 2 * i + 3) for i in range(n)]  # (2/3, 3/5, 4/7, ...)
    at = list(point)  # G at the point, truncated at degree k
    for k in range(1, cap + 1):
        for _, m, parent, i in recipe if k > 1 else ():
            part: dict[Exponent, int | Fraction] = {}
            for j in range(sum(parent), k):
                for e, c in _mul_terms(parts[parent][j].items(), tuple(parts[units[i]][k - j].items())).items():
                    part[e] = part.get(e, 0) + c
            parts[m].append(part)
        for i, comp in enumerate(h if k > 1 else ()):
            acc = {}
            for m, c in comp.terms:
                for e, v in parts[m][k].items() if sum(m) <= k else ():
                    acc[e] = acc.get(e, 0) - c * v
            parts[units[i]].append(acc)
            at[i] += _value(acc.items(), point)
        if k < min(deg, cap):
            continue  # an inverse of lower degree is still found at degree deg f
        if all(a + _value(c.terms, at) == p for a, c, p in zip(at, h, point)):
            inv = compose(shift, PolyMap(n, tuple(
                Polynomial(n, _sorted_terms({e: c for part in parts[u] for e, c in part.items()})) for u in units
            )))
            if map_equal(compose(inv, f), PolyMap.identity(n)):
                return inv
        if k == min(deg, cap) and (witness := _det_witness(f)):
            raise NotInvertible(witness)
    if cap < bound:
        raise BudgetExceeded(
            f"no inverse of degree at most {DEGREE_BUDGET}, the inverter's degree budget, "
            "which is below the Bass-Connell-Wright bound (deg f)^(n-1)"
        )
    raise NotInvertible(
        f"it has no inverse of degree at most {bound} = (deg f)^(n-1), "
        "the Bass-Connell-Wright bound on the degree of an inverse"
    )
