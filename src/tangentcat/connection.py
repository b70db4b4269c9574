"""Connections on differential bundles and their equivalent presentations.

A connection on a bundle consists of a vertical descent map K : TE -> E and a
horizontal insertion map H : E x_M TM -> TE, subject to six exact identities:
K retracts the lift and is linear both over the tangent base map and over the
bundle projection; H sections the pairing of the tangent projection with the
tangent of the bundle projection and is linear over both factors; and the
pair satisfies a compatibility identity together with a fibrewise-addition
decomposition of the identity on TE.

The module also implements the equivalence between such pairs and single maps
K for which the three-way pairing (tangent projection, tangent of the bundle
projection, K) is invertible: inverting that pairing exhibits TE as a Whitney
sum of the bundle, the tangent bundle of the base, and the bundle again, and
H is recovered as the injection of the first two summands.  All verdicts are
exact: a pairing with no inverse fails with an exact refutation witness, and
is cannot-certify only when the inverter's degree budget runs out.

Coordinate conventions: the bundle must have its base coordinates leading, so
E = (x, w), TE = (x, w, u, v) with u the tangent of x and v the tangent of w,
and the product E x_M TM is the Whitney sum E + TM on (x, w, u); its two
partial bundles are the structures over E and over TM that H is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .polycore import (
    NotInvertible,
    PolyMap,
    Polynomial,
    ShapeError,
    compose,
    compose_all,
    eval_map,
    power_pair,
)
from .report import Report, Status
from .dbundle import (
    DiffBundle,
    bundle_difference,
    linear_morphism_report,
    mu_map,
    tangent_bundle,
)
from .tangent import Space, T_map, T_obj, lift_l, proj_p, zero_0
from .whitney import (
    BiproductBundle,
    concatenated,
    fibre_part,
    partial_bundle,
    recognize_biproduct,
)


@dataclass(frozen=True)
class Connection:
    """A bundle with a vertical map K and optionally a horizontal map H.

    K alone determines the connection: an effective K determines H (see
    ``derive_horizontal``), and on a tangent bundle the Christoffel symbols
    are the coordinates of K, so no coefficient table is kept beside it.
    """

    bundle: DiffBundle
    K: PolyMap
    H: Optional[PolyMap] = None

    def __post_init__(self) -> None:
        e, m = self.bundle.total.dim, self.bundle.base.dim
        if self.bundle.base_coords != tuple(range(m)):
            raise ShapeError("connection checks need base-first coordinates")
        if self.K.domain_dim != 2 * e or self.K.codomain_dim != e:
            raise ShapeError("K must map the tangent of the total space onto it")
        if self.H is not None and (
            self.H.domain_dim != e + m or self.H.codomain_dim != 2 * e
        ):
            raise ShapeError("H must map the horizontal product into the tangent space")


@dataclass(frozen=True)
class Decomposition:
    """TE presented as a three-summand Whitney sum through an invertible pairing.

    The pairing theta = <p_E, T(q), K> : TE -> E x_M TM x_M E is the
    comparison map of the sum onto its concatenated model.
    """

    biproduct: BiproductBundle
    total: DiffBundle  # the same bundle as biproduct.sum

    @property
    def theta(self) -> PolyMap:
        return self.biproduct.to_canonical

    @property
    def theta_inv(self) -> PolyMap:
        return self.biproduct.from_canonical

    def horizontal(self) -> PolyMap:
        """H = iota_12 ; theta^-1, with iota_12 (x, w, u) -> (x, w, u, zero fibre)."""
        b = self.biproduct.summands[0]
        hat = b.total.dim + b.base.dim
        iota12 = PolyMap(
            hat,
            PolyMap.identity(hat).components
            + compose(PolyMap.selection(hat, range(b.base.dim)), fibre_part(b, b.zeta)).components,
        )
        return compose(iota12, self.theta_inv)


def section_target(b: DiffBundle) -> PolyMap:
    """U = <p_E, T(q)> : TE -> E x_M TM."""
    e, m = b.total.dim, b.base.dim
    return PolyMap.selection(2 * e, list(range(e)) + list(range(e, e + m)))


def check_vertical(c: Connection) -> Report:
    """K retracts the lift and is linear over both relevant projections."""
    b = c.bundle
    rep = Report(subject="vertical map")
    rep.check_equal(
        "retraction", "lift then K is the identity", compose(b.lift, c.K), PolyMap.identity(b.total.dim)
    )
    rep.extend(
        linear_morphism_report(
            "over the tangent base projection",
            c.K,
            proj_p(b.base),
            b.tangent,
            b,
        ),
        prefix="linearity over the base projection: ",
    )
    rep.extend(
        linear_morphism_report(
            "over the bundle projection",
            c.K,
            b.q,
            tangent_bundle(b.total),
            b,
        ),
        prefix="linearity over the bundle projection: ",
    )
    return rep


def check_horizontal(c: Connection) -> Report:
    """H sections U and is linear over the total space and the tangent base."""
    b = c.bundle
    rep = Report(subject="horizontal map")
    if c.H is None:
        rep.check("presence", "a horizontal map is supplied", False, "no H given")
        return rep
    hat = b.total.dim + b.base.dim
    rep.check_equal(
        "section", "H then <p_E, T(q)> is the identity", compose(c.H, section_target(b)), PolyMap.identity(hat)
    )
    # H is linear over both partial bundles of E x_M TM = E + TM, whose
    # concatenated model is E x_M TM itself.
    summands = (b, tangent_bundle(b.base))
    rep.extend(
        linear_morphism_report(
            "over the total space",
            c.H,
            PolyMap.identity(b.total.dim),
            concatenated(summands, b.base, fixed=0),
            tangent_bundle(b.total),
        ),
        prefix="linearity over the total space: ",
    )
    rep.extend(
        linear_morphism_report(
            "over the tangent base",
            c.H,
            PolyMap.identity(2 * b.base.dim),
            concatenated(summands, b.base, fixed=1),
            b.tangent,
        ),
        prefix="linearity over the tangent base: ",
    )
    return rep


def check_pair(c: Connection) -> Report:
    """The joint identities for (K, H): compatibility and decomposition."""
    b = c.bundle
    rep = Report(subject="connection pair")
    if c.H is None:
        rep.check("presence", "a horizontal map is supplied", False, "no H given")
        return rep
    e = b.total.dim
    rhs = compose_all(PolyMap.selection(e + b.base.dim, range(e)), b.q, b.zeta)
    rep.check_equal("compatibility", "H then K factors through the zero section", compose(c.H, c.K), rhs)

    def sides() -> tuple[PolyMap, PolyMap]:
        # Parts that lie over different points of E cannot be added.
        vertical_part = compose(power_pair(e, b.base_coords, [c.K, proj_p(b.total)]), mu_map(b))
        horizontal_part = compose(section_target(b), c.H)
        return tangent_bundle(b.total).add(vertical_part, horizontal_part), PolyMap.identity(2 * e)

    rep.check_built(
        "decomposition of the identity", "vertical part plus horizontal part is the identity on TE", sides
    )
    return rep


@dataclass(frozen=True)
class _Effectiveness:
    """The effectiveness report with the parts ``equivalence_suite`` compares."""

    report: Report
    decomposition: Optional[Decomposition] = None
    # what the inversion of theta raised, when the gate passed but theta
    # did not invert
    refutation: Optional[NotInvertible] = None
    # the injections against the structural maps, once the sum is recognized
    injections: Report = field(default_factory=lambda: Report(subject="injections"))


def _effectiveness(c: Connection, vert: Report) -> _Effectiveness:
    """Invert theta past the gate of ``vert``, the ``check_vertical(c)`` report."""
    b = c.bundle
    rep = Report(subject="effectiveness")
    rep.summary("gate", "the vertical identities hold", vert)
    if not vert.passed:
        return _Effectiveness(rep)
    summands = (b, tangent_bundle(b.base), b)
    projections = (proj_p(b.total), T_map(b.q), c.K)
    # The comparison map of this sum is the pairing theta.  The vertical gate
    # makes the three projections agree on the base, so the recognition
    # reaches the inversion of theta.
    recog = recognize_biproduct(T_obj(b.total), projections, summands)
    if recog.refutation is not None:
        rep.no_inverse("pairing inversion", "the three-way pairing has a two-sided polynomial inverse", recog.refutation)
        return _Effectiveness(rep, refutation=recog.refutation)
    rep.check("pairing inversion", "two-sided polynomial inverse found", True, None)
    rep.extend(recog.report, prefix="Whitney sum: ")
    if recog.biproduct is None:
        return _Effectiveness(rep)
    injections = Report(subject="injections")
    expected = (zero_0(b.total), T_map(b.zeta), b.lift)
    for name, got, want in zip(
        ("first", "second", "third"), recog.biproduct.injections, expected
    ):
        injections.check_equal(
            f"{name} injection",
            "injection matches the structural map",
            got,
            want,
        )
    rep.extend(injections)
    first = partial_bundle(recog.biproduct, 0)
    second = partial_bundle(recog.biproduct, 1)
    d1 = bundle_difference(first, tangent_bundle(b.total))
    rep.check(
        "first partial bundle",
        "equals the tangent bundle of the total space",
        d1 is None,
        d1,
    )
    d2 = bundle_difference(second, b.tangent)
    rep.check(
        "second partial bundle",
        "equals the tangent of the bundle",
        d2 is None,
        d2,
    )
    decomp = None
    if rep.passed:
        decomp = Decomposition(biproduct=recog.biproduct, total=recog.biproduct.sum)
    return _Effectiveness(rep, decomp, injections=injections)


def check_effective(c: Connection) -> tuple[Report, Optional[Decomposition]]:
    """Invert the three-way pairing and transport the Whitney-sum structure.

    The vertical identities are checked first, as the gate: the pairing is
    inverted only when they hold.  The decomposition is returned only when
    every record passes.
    """
    eff = _effectiveness(c, check_vertical(c))
    return eff.report, eff.decomposition


@dataclass(frozen=True)
class _Chain:
    """The reports of one pass through the connection checks, in order."""

    vertical: Report
    effectiveness: _Effectiveness
    # on the given H, or on the one read off the decomposition; only when K
    # is effective
    horizontal: Optional[Report] = None
    pair: Optional[Report] = None


def _chain(c: Connection) -> _Chain:
    vert = check_vertical(c)
    eff = _effectiveness(c, vert)
    if eff.decomposition is None:
        return _Chain(vert, eff)
    full = c if c.H is not None else replace(c, H=eff.decomposition.horizontal())
    return _Chain(vert, eff, check_horizontal(full), check_pair(full))


def verify_connection(c: Connection) -> tuple[Report, Optional[Decomposition]]:
    """Check K, its effectiveness, then H and the pair, with H derived when absent.

    A connection is one effective K: past the vertical identities theta
    inverts, and H = iota_12 ; theta^-1 when none is supplied.  The
    decomposition is returned when K is effective.
    """
    chain = _chain(c)
    rep = Report(subject="connection gate")
    rep.extend(chain.vertical, prefix="vertical: ")
    rep.extend(chain.effectiveness.report, prefix="effectiveness: ")
    if chain.horizontal is not None:
        rep.extend(chain.horizontal, prefix="horizontal: ")
        rep.extend(chain.pair, prefix="pair: ")
    return rep, chain.effectiveness.decomposition


def derive_horizontal(c: Connection) -> Connection:
    """Recover H as the injection of the first two summands of the sum."""
    rep, decomp = check_effective(c)
    if decomp is None:
        raise ShapeError(
            "horizontal derivation needs an effective vertical map: "
            + "; ".join(r.name for r in rep.failing())
        )
    return replace(c, H=decomp.horizontal())


def christoffel_connection(
    base: Space, gamma: Sequence[Sequence[Sequence[Polynomial]]]
) -> Connection:
    """The vertical map (x,t,u,v) -> (x, v + Gamma(x)(t,u)) on the tangent bundle."""
    n = base.dim
    table = tuple(tuple(tuple(row) for row in plane) for plane in gamma)
    if len(table) != n or any(
        len(plane) != n or any(len(row) != n for row in plane) for plane in table
    ):
        raise ShapeError("Christoffel table must be cubic in the base dimension")
    for plane in table:
        for row in plane:
            for entry in row:
                if entry.arity != n:
                    raise ShapeError("Christoffel entries must be polynomials in the base variables")
    b = tangent_bundle(base)
    dom = 4 * n
    pad = [Polynomial.variable(dom, i) for i in range(n)]
    comps = list(pad)
    for k in range(n):
        acc = Polynomial.variable(dom, 3 * n + k)
        for i in range(n):
            for j in range(n):
                acc = acc + table[k][i][j].substitute(pad) * Polynomial.variable(
                    dom, n + i
                ) * Polynomial.variable(dom, 2 * n + j)
        comps.append(acc)
    return Connection(bundle=b, K=PolyMap(dom, tuple(comps)))


def canonical_connection(n: int) -> Connection:
    """The flat pair on the tangent bundle: K keeps (x, v), H pads with zero."""
    base = Space.euclidean(n)
    b = tangent_bundle(base)
    K = PolyMap.selection(4 * n, list(range(n)) + list(range(3 * n, 4 * n)))
    hat = 3 * n
    H = PolyMap(
        hat,
        tuple(Polynomial.variable(hat, i) for i in range(hat))
        + tuple(Polynomial.zero(hat) for _ in range(n)),
    )
    return Connection(bundle=b, K=K, H=H)


def decompose_point(
    d: Decomposition, xi: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
    """Split a second-order point into its three tangent-vector components."""
    p1, p2, p3 = d.biproduct.projections
    xs = [Fraction(v) for v in xi]
    return eval_map(p1, xs), eval_map(p2, xs), eval_map(p3, xs)


def recompose_point(
    d: Decomposition,
    parts: tuple[Sequence[Fraction], Sequence[Fraction], Sequence[Fraction]],
) -> tuple[Fraction, ...]:
    """Reassemble a point of TE from its three components via the inverse pairing."""
    b = d.biproduct.summands[0]
    m = b.base.dim
    first, second, third = (tuple(Fraction(v) for v in p) for p in parts)
    if not (first[:m] == second[:m] == third[:m]):
        raise ShapeError("components disagree on the base point")
    packed = first + second[m:] + third[m:]
    return eval_map(d.theta_inv, list(packed))


def equivalence_suite(c: Connection) -> Report:
    """Check that the four presentations of a connection agree on this instance.

    The four legs: a compatible pair (K, H) exists, with H read off the
    decomposition when none is supplied; K is an effective vertical map; TE
    is the Whitney sum E + TM + E with the stated projections, injections
    and first/second partial structures; K retracts the lift and the pairing
    exhibits that product, whose projections are fixed but whose injections
    are not.  The legs read the one pass of ``verify_connection``'s checks.
    For a genuine connection all legs pass; for a defective K all legs must
    fail together.
    """
    b = c.bundle
    rep = Report(subject="equivalence of presentations")
    chain = _chain(c)
    vert, eff = chain.vertical, chain.effectiveness
    eff_rep, decomp = eff.report, eff.decomposition
    legs = (
        ("pair presentation", "a compatible horizontal map exists"),
        ("effective presentation", "vertical identities hold and the pairing inverts"),
        ("sum presentation", "TE is the stated Whitney sum with structural injections and partials"),
        ("product presentation", "K retracts the lift and the pairing exhibits the stated product"),
    )
    if eff.refutation is not None:
        # Every leg needs the inverse of theta: each carries its refutation,
        # or the exhausted budget.
        for name, law in legs:
            rep.no_inverse(name, law, eff.refutation)
    else:
        # Leg 1: some H makes (K, H) a full connection pair, with H read off
        # the decomposition when none is supplied.
        if chain.horizontal is not None:
            hor, pair = chain.horizontal, chain.pair
            rep.check(*legs[0], hor.passed and pair.passed,
                      "; ".join(r.name for r in (*hor.failing(), *pair.failing())) or None)
        else:
            rep.check(*legs[0], False, "; ".join(r.name for r in vert.failing()) or "no decomposition")
        # Leg 2: K is an effective vertical map.
        rep.summary(*legs[1], eff_rep)
        # Legs 3 and 4 share the structural comparisons made once the
        # pairing inverts, which it does only past the gate.
        if not vert.passed:
            why = "; ".join(r.name for r in vert.failing())
            rep.check("sum presentation", "TE is the stated Whitney sum", False, why)
            rep.check("product presentation", "retraction plus the stated product", False, why)
        else:
            failures = [r for r in eff_rep.records if r.status is Status.FAIL]
            product = [r for r in failures if r not in eff.injections.records]
            rep.check(*legs[2], eff_rep.passed, "; ".join(r.name for r in failures) or None)
            rep.check(*legs[3], not product, "; ".join(r.name for r in product) or None)

    if bundle_difference(b, tangent_bundle(b.base)) is None and decomp is not None:
        rep.check_equal(
            "affine case",
            "the third injection is the canonical vertical lift",
            decomp.biproduct.injections[2],
            lift_l(b.base),
        )
    return rep
