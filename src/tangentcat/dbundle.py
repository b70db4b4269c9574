"""Differential bundles in standard position and their axiom verifier.

A bundle is kept in *standard position*: the projection q is a coordinate
selection out of the total space, recorded as ``base_coords``.  The fibre
coordinates are the complement, in order.  Fibre products over the base are
realized concretely as coordinate concatenation: the canonical k-th fibre
power of the total space is (total coordinates, then k-1 extra copies of the
fibre block), as built by ``polycore.power_proj`` from ``(total.dim,
base_coords)``.  Because every structural projection is then again a
coordinate selection, pairings into fibre products are assembled by
``pair_into`` and all axioms reduce to exact polynomial identities.

sigma and zeta make a bundle a commutative monoid over its base, and
``DiffBundle.add`` is its one addition: pair two maps into the fibre square,
then apply sigma.  Axiom 0 is the monoid laws written with it.  The tangent
bundle of R^n is the trivial bundle R^n x R^n on the tangent space.

Axioms 2 and 3 of a differential bundle, two of the tangent-structure
equations (``check_tangent_axioms``), and the additivity of a connection's
vertical map say that a pair of maps is an additive bundle morphism;
``additive_morphism_report`` is the one check for that.

Four premises decide records here without their composites, each through
``Report.decide``: "fibrewise linear" the zero and addition records of
``additive_morphism_report``, and, with no computed path, "standard
position" axiom 1, "two-sided inverse" the "left inverse" of axiom 4 and
"T is a functor" its "preserved by T".  Each proof is in the docstring or
comment beside its record.

A composite of a map X then T(g) is ``tangent.T_after(X, g)``.  When X
is a padded selection (each component a bare variable or zero), as every
lift of a tangent bundle is, it is formed term by term with no T(g) and no
substitution: a monomial of T(g) survives X exactly when it has no positive
exponent on a point coordinate X zeroes, and a tangent term of c y^e is a
derivative, which lowers one exponent by one.  So a term positive on two
zeroed point coordinates gives nothing; one positive on exactly one, k,
gives only its derivative along k, when e_k = 1 and X keeps t_k; any other
term gives itself and its derivative along each tangent coordinate X keeps.
The lift squares of a linear morphism out of a tangent bundle never build
T(g); ``T_after``'s docstring has the proof in full.

mu and its inverse are built inside ``Report.attempt``, and every law's
composites inside ``Report.check_equal`` (through ``Report.decide`` when
the law has a premise), which record a refutation or an exhausted budget;
this module catches nothing.
"""

from __future__ import annotations

from functools import cache, cached_property
from typing import Optional

from .polycore import (
    PolyMap,
    Polynomial,
    ShapeError,
    Value,
    compose,
    compose_all,
    first_difference,
    invert_polymap,
    pair_into,
    power_dim,
    power_pair,
    power_proj,
)
from .report import Report
from .tangent import Space, T_after, T_map, T_obj, flip_c, lift_l, zero_0


class DiffBundle(Value):
    """A differential bundle (E, q, sigma, zeta, lambda) in standard position.

    ``sigma`` has the canonical fibre-square of (total, base_coords) as its
    domain; ``zeta`` maps the base into the total space; ``lift`` maps the
    total space into its tangent space.  ``tangent`` is T of the bundle,
    built on first use and kept by this object only.
    """

    _fields = ("total", "base", "base_coords", "sigma", "zeta", "lift")

    def __init__(
        self, total: Space, base: Space, base_coords: tuple[int, ...], sigma: PolyMap, zeta: PolyMap, lift: PolyMap
    ) -> None:
        self.__dict__.update(total=total, base=base, base_coords=base_coords, sigma=sigma, zeta=zeta, lift=lift)
        e, m = self.total.dim, self.base.dim
        if len(self.base_coords) != m:
            raise ShapeError("base_coords length != base dimension")
        if len(set(self.base_coords)) != m or any(not 0 <= i < e for i in self.base_coords):
            raise ShapeError("base_coords must be an injective index list into the total space")
        f = e - m
        if self.sigma.domain_dim != e + f or self.sigma.codomain_dim != e:
            raise ShapeError("sigma must map the canonical fibre square to the total space")
        if self.zeta.domain_dim != m or self.zeta.codomain_dim != e:
            raise ShapeError("zeta must map the base to the total space")
        if self.lift.domain_dim != e or self.lift.codomain_dim != 2 * e:
            raise ShapeError("lift must map the total space to its tangent space")

    @property
    def fibre_coords(self) -> tuple[int, ...]:
        base = set(self.base_coords)
        return tuple(i for i in range(self.total.dim) if i not in base)

    @property
    def fibre_dim(self) -> int:
        return self.total.dim - self.base.dim

    @property
    def q(self) -> PolyMap:
        return PolyMap.selection(self.total.dim, self.base_coords)

    @cached_property
    def tangent(self) -> "DiffBundle":
        return tangent_of_bundle(self)

    @cached_property
    def adds_fibrewise(self) -> bool:
        """Whether sigma and zeta are a trivial bundle's, in these coordinates.

        sigma keeps the base point and adds the two fibre blocks coordinate by
        coordinate, and zeta puts zero in every fibre coordinate.
        """
        e, m, dom = self.total.dim, self.base.dim, self.sigma.domain_dim
        sigma = [Polynomial.variable(dom, i) for i in range(e)]
        zeta = [Polynomial.zero(m)] * e
        for j, i in enumerate(self.base_coords):
            zeta[i] = Polynomial.variable(m, j)
        for k, p in enumerate(self.fibre_coords):
            sigma[p] = sigma[p] + Polynomial.variable(dom, e + k)
        return self.sigma.components == tuple(sigma) and self.zeta.components == tuple(zeta)

    def add(self, f: PolyMap, g: PolyMap) -> PolyMap:
        """f + g: pair f and g into the fibre square, then apply sigma.

        Maps over two different base points cannot be paired, and the
        pairing raises ``ShapeError``.
        """
        return compose(power_pair(self.total.dim, self.base_coords, [f, g]), self.sigma)


def trivial_bundle(base: Space, fibre_dim: int) -> DiffBundle:
    """The trivial bundle M x W over M with fibrewise addition."""
    m, e = base.dim, base.dim + fibre_dim
    dom = e + fibre_dim
    sigma = PolyMap(
        dom,
        tuple(Polynomial.variable(dom, i) for i in range(m))
        + tuple(
            Polynomial.variable(dom, m + i) + Polynomial.variable(dom, e + i)
            for i in range(fibre_dim)
        ),
    )
    zeta = PolyMap(
        m,
        tuple(Polynomial.variable(m, i) for i in range(m))
        + tuple(Polynomial.zero(m) for _ in range(fibre_dim)),
    )
    lift = PolyMap(
        e,
        tuple(Polynomial.variable(e, i) for i in range(m))
        + tuple(Polynomial.zero(e) for _ in range(fibre_dim))
        + tuple(Polynomial.zero(e) for _ in range(m))
        + tuple(Polynomial.variable(e, m + i) for i in range(fibre_dim)),
    )
    total = Space(e, base.layout + (("w", fibre_dim),)) if fibre_dim else base
    return DiffBundle(total, base, tuple(range(m)), sigma, zeta, lift)


@cache
def tangent_bundle(s: Space) -> DiffBundle:
    """The tangent bundle (TM, p, +, 0, l) of a space, in standard position; built once.

    It is the trivial bundle M x R^n on TM, whose sigma, zeta and lift are
    ``add_plus``, ``zero_0`` and ``lift_l``.
    """
    return trivial_bundle(s, s.dim).replace(total=T_obj(s))


def additive_morphism_report(
    subject: str, g: PolyMap, f: PolyMap, src: DiffBundle, dst: DiffBundle
) -> Report:
    """Whether (g, f) is an additive bundle morphism: a monoid morphism over the bases.

    It commutes with the projections and carries zeta and sigma to zeta' and
    sigma'; the addition square pairs (g x g) into dst's own fibre square.

    When both bundles add as trivial bundles do (``adds_fibrewise``), the
    base square has passed and every term of g's fibre components has
    degree exactly one in src's fibre coordinates, the other two records
    pass by the premise "fibrewise linear", without their composites.  g's
    base components are f of the base point, by the base square, so both
    sides of each record agree there.
    In the fibre, g(y, 0) = 0 because every term holds a fibre variable,
    and g(y, w1 + w2) = g(y, w1) + g(y, w2) because every term is linear in
    them.  A passing record carries no witness, so the report is the one
    the composites give; in every other case they are built.
    """
    rep = Report(subject=subject)
    base = rep.check_equal("base square", "q f = g r", lambda: (compose(src.q, f), compose(g, dst.q)))
    fibre = src.fibre_coords
    fibrewise = base and src.adds_fibrewise and dst.adds_fibrewise and all(
        sum(exps[i] for i in fibre) == 1 for k in dst.fibre_coords for exps, _ in g.components[k].terms
    )
    premise = "fibrewise linear" if fibrewise else None
    rep.decide(
        "zero preservation", "zeta g = f zeta'", premise, lambda: (compose(src.zeta, g), compose(f, dst.zeta))
    )

    def addition() -> tuple[PolyMap, PolyMap]:
        g1, g2 = (compose(power_proj(src.total.dim, src.base_coords, 2, i), g) for i in (1, 2))
        return compose(src.sigma, g), dst.add(g1, g2)

    rep.decide("addition preservation", "sigma g = (g x g) sigma'", premise, addition)
    return rep


def check_tangent_axioms(s: Space) -> Report:
    """Verify the tangent-structure equations for one space, exactly.

    The last two say that (l, 0) from the tangent bundle TM over M into T of
    it, and (c, 1) from that into the tangent bundle of TM, are additive.
    """
    rep = Report(subject=f"tangent structure on R^{s.dim}")
    tm = T_obj(s)
    c = flip_c(s)
    l = lift_l(s)

    rep.check_equal("flip involution", "cc = 1", lambda: (compose(c, c), PolyMap.identity(4 * s.dim)))
    rep.check_equal("lift fixed by flip", "lc = l", lambda: (compose(l, c), l))
    rep.check_equal(
        "lift coassociativity", "l T(l) = l l_T", lambda: (T_after(l, l), compose(l, lift_l(tm)))
    )
    rep.check_equal(
        "flip braid relation",
        "T(c) c_T T(c) = c_T T(c) c_T",
        lambda: (compose_all(T_map(c), flip_c(tm), T_map(c)), compose_all(flip_c(tm), T_map(c), flip_c(tm))),
    )
    rep.check_equal(
        "lift/flip exchange",
        "l_T T(c) c_T = c T(l)",
        lambda: (compose_all(lift_l(tm), T_map(c), flip_c(tm)), T_after(c, l)),
    )

    tb = tangent_bundle(s)
    sub = additive_morphism_report("(l, 0) additivity", l, zero_0(s), tb, tb.tangent)
    rep.summary("(l, 0) additive-bundle morphism", "monoid morphism over the zero section", sub)
    sub = additive_morphism_report(
        "(c, 1) additivity", c, PolyMap.identity(tm.dim), tb.tangent, tangent_bundle(tm)
    )
    rep.summary("(c, 1) additive-bundle morphism", "monoid morphism over the identity", sub)
    return rep


def mu_map(b: DiffBundle) -> PolyMap:
    """The comparison map mu = <pi1 lift, pi2 0> T(sigma) : E x_M E -> TE."""
    e, bc = b.total.dim, b.base_coords
    p1, p2 = power_proj(e, bc, 2, 1), power_proj(e, bc, 2, 2)
    paired = pair_into(
        2 * power_dim(e, bc, 2),
        [T_map(p1), T_map(p2)],
        [compose(p1, b.lift), compose(p2, zero_0(b.total))],
    )
    return T_after(paired, b.sigma)


def _zero_tangent_base(b: DiffBundle) -> PolyMap:
    """Substitution TE -> TE setting the base-tangent coordinates to zero."""
    e = b.total.dim
    base = {e + i for i in b.base_coords}
    comps = [
        Polynomial.zero(2 * e) if i in base else Polynomial.variable(2 * e, i)
        for i in range(2 * e)
    ]
    return PolyMap(2 * e, tuple(comps))


def check_universality(b: DiffBundle) -> Report:
    """Axiom 4: mu is invertible onto the vanishing of the base-tangents.

    The subvariety {xi in TE : T(q)(xi) is a zero tangent vector} is cut out
    by setting the base-tangent coordinates to zero.  Restricting mu to the
    components that survive there (the total-space block and the fibre
    tangents) gives an endomorphism of the fibre square; ``invert_polymap``
    solves it, and reading its inputs off those coordinates of TE gives the
    inverse nu.  mu need not be affine in the fibre variables: on the
    tangent space of a total space it never is.  mu and its inverse are
    built through ``Report.attempt``, and the two computed identities
    inside ``Report.check_equal``: a mu whose pairing cannot be formed, or
    that has no inverse, fails its record with the refutation, and one that
    meets the budget leaves it cannot-certify; the records after a mu or an
    inverse that was not built are not written.

    Two records are decided by their premises, so no composite is built
    for them.  "left inverse", by "two-sided inverse": mu nu is the
    restricted mu followed by its inverse, and the inverse
    ``invert_polymap`` returns is two-sided.  "preserved by T", by "T is a
    functor": it is reached only once "right inverse on subvariety" has
    passed, and it is T of that identity; T is a functor on polynomial maps
    (the chain rule holds exactly), so it passes.
    """
    rep = Report(subject="lift universality (axiom 4)")
    e = b.total.dim
    mu = rep.attempt("comparison map", "<pi1 lift, pi2 0> lies over one tangent of the base", lambda: mu_map(b))
    if mu is None:
        return rep
    proj_to_m = compose(power_proj(e, b.base_coords, 2, 1), b.q)
    rep.check_equal(
        "square commutes", "mu T(q) = proj 0", lambda: (compose(mu, T_map(b.q)), compose(proj_to_m, zero_0(b.base)))
    )
    out_positions = list(range(e)) + [e + i for i in b.fibre_coords]
    restricted = PolyMap(power_dim(e, b.base_coords, 2), tuple(mu.components[pos] for pos in out_positions))
    solved = rep.attempt("shear inversion", "mu is solvable for the summands", lambda: invert_polymap(restricted))
    if solved is None:
        return rep
    nu = compose(PolyMap.selection(2 * e, out_positions), solved)

    zero_sub = _zero_tangent_base(b)
    rep.decide("left inverse", "nu mu = 1", "two-sided inverse")
    if rep.check_equal(
        "right inverse on subvariety", "mu nu = 1 where T(q) vanishes", lambda: (compose_all(zero_sub, nu, mu), zero_sub)
    ):
        rep.decide("preserved by T", "T(nu) inverts T(mu) on the T-level subvariety", "T is a functor")
    return rep


def verify_bundle(b: DiffBundle) -> Report:
    """Run all five differential-bundle axioms as exact identities.

    Every law is built inside ``Report.check_equal``, which records a
    build beyond the term budget as cannot-certify; axiom 5, which
    substitutes the lift into T of itself unless the lift is a padded
    selection, is the one whose composites reach the square of the lift's
    degree.
    """
    rep = Report(subject=f"bundle over R^{b.base.dim} with fibre R^{b.fibre_dim}")
    e, m, bc = b.total.dim, b.base.dim, b.base_coords
    q = b.q
    p1, p2 = power_proj(e, bc, 2, 1), power_proj(e, bc, 2, 2)

    rep.check_equal("projection compatibility", "sigma q = proj q", lambda: (compose(b.sigma, q), compose(p1, q)))
    rep.check_equal("section", "zeta q = 1", lambda: (compose(b.zeta, q), PolyMap.identity(m)))

    # Axiom 0 beyond the two squares: the monoid laws of b.add.  A zeta or
    # sigma that moves the base point makes the pairings of the unit and
    # associativity laws impossible to form, which refutes the law in question.
    rep.check_equal("commutativity", "swap sigma = sigma", lambda: (b.add(p2, p1), b.sigma))
    one = PolyMap.identity(e)
    rep.check_equal("unit", "<q zeta, 1> sigma = 1", lambda: (b.add(compose(q, b.zeta), one), one))
    q1, q2, q3 = (power_proj(e, bc, 3, i) for i in (1, 2, 3))
    rep.check_equal(
        "associativity", "(a+b)+c = a+(b+c)", lambda: (b.add(b.add(q1, q2), q3), b.add(q1, b.add(q2, q3)))
    )

    # Axiom 1 holds in standard position, for every (total, base_coords): the
    # fibre square is a Cartesian space, and T of its two projections selects
    # (x, dx) of each; together they cover every coordinate of T of the
    # square, so pairing them into themselves is the identity.
    rep.decide("tangential fibre power", "T preserves the square cone", "standard position")

    # Axioms 2 and 3: (lift, 0_M) is additive into T of the bundle, and
    # (lift, zeta) into the tangent bundle of the total space.
    ax2 = additive_morphism_report("axiom 2", b.lift, zero_0(b.base), b, b.tangent)
    rep.summary("axiom 2: (lift, 0) additive", "monoid morphism into the tangent of the bundle", ax2)
    ax3 = additive_morphism_report("axiom 3", b.lift, b.zeta, b, tangent_bundle(b.total))
    rep.summary(
        "axiom 3: (lift, zeta) additive", "monoid morphism into the tangent bundle of the total space", ax3
    )

    rep.extend(check_universality(b), prefix="axiom 4: ")

    rep.check_equal(
        "axiom 5", "lift l_E = lift T(lift)", lambda: (compose(b.lift, lift_l(b.total)), T_after(b.lift, b.lift))
    )
    return rep


def tangent_of_bundle(b: DiffBundle) -> DiffBundle:
    """Apply T to a bundle: (TE, T(q), T(sigma), T(zeta), T(lift) c_E) over TM."""
    e, bc = b.total.dim, b.base_coords
    new_base_coords = tuple(bc) + tuple(e + i for i in bc)
    # Build the new sigma on the canonical square of (TE, new_base_coords) by
    # routing it through T(E x_M E) and applying T(sigma).
    kappa = pair_into(
        2 * power_dim(e, bc, 2),
        [T_map(power_proj(e, bc, 2, 1)), T_map(power_proj(e, bc, 2, 2))],
        [power_proj(2 * e, new_base_coords, 2, 1), power_proj(2 * e, new_base_coords, 2, 2)],
    )
    return DiffBundle(
        T_obj(b.total),
        T_obj(b.base),
        new_base_coords,
        T_after(kappa, b.sigma),
        T_map(b.zeta),
        compose(T_map(b.lift), flip_c(b.total)),
    )


# The two squares that make a bundle morphism (g, f) linear: record name, law.
LINEAR_SQUARES = (("projection square", "q f = g r"), ("lift square", "lift T(g) = g lift'"))


def linear_morphism_report(
    subject: str, g: PolyMap, f: PolyMap, src: DiffBundle, dst: DiffBundle
) -> Report:
    """Whether (g, f) is linear: it commutes with the projections and the lifts.

    Linearity is exactly these two squares.  Between differential bundles a
    linear morphism also preserves sigma and zeta (Cockett and Cruttwell), so
    they are not compared here; whether src and dst are differential bundles
    is for ``verify_bundle`` to decide.  The lift square's left side is
    ``T_after(src.lift, g)``, formed without T(g) when src's lift is a
    padded selection.
    """
    if g.domain_dim != src.total.dim or g.codomain_dim != dst.total.dim:
        raise ShapeError("top morphism has the wrong shape")
    if f.domain_dim != src.base.dim or f.codomain_dim != dst.base.dim:
        raise ShapeError("bottom morphism has the wrong shape")
    rep = Report(subject=subject)
    projection, lift = LINEAR_SQUARES
    rep.check_equal(*projection, lambda: (compose(src.q, f), compose(g, dst.q)))
    rep.check_equal(*lift, lambda: (T_after(src.lift, g), compose(g, dst.lift)))
    return rep


def bundle_difference(a: DiffBundle, b: DiffBundle) -> Optional[str]:
    if a.total.dim != b.total.dim or a.base.dim != b.base.dim:
        return "total or base dimensions differ"
    if a.base_coords != b.base_coords:
        return f"base coordinates differ: {a.base_coords} vs {b.base_coords}"
    for name, x, y in (("sigma", a.sigma, b.sigma), ("zeta", a.zeta, b.zeta), ("lift", a.lift, b.lift)):
        d = first_difference(x, y)
        if d:
            return f"{name}: {d}"
    return None


def transport_bundle(
    c: DiffBundle, psi: PolyMap, psi_inv: PolyMap, new_total: Space
) -> DiffBundle:
    """Transfer bundle structure along a concrete isomorphism psi: X -> C.

    The transported projection psi q_C must again be a coordinate selection
    (standard position); otherwise a ShapeError is raised.
    """
    q_new = compose(psi, c.q)
    idx = q_new.selected
    if idx is None:
        raise ShapeError("transported projection is not a coordinate selection")
    d = new_total.dim
    kappa = power_pair(
        c.total.dim,
        c.base_coords,
        [compose(power_proj(d, idx, 2, 1), psi), compose(power_proj(d, idx, 2, 2), psi)],
    )
    return DiffBundle(
        new_total,
        c.base,
        idx,
        compose_all(kappa, c.sigma, psi_inv),
        compose(c.zeta, psi_inv),
        T_after(compose(psi, c.lift), psi_inv),
    )
