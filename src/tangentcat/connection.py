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
H is recovered as the injection of the first two summands.

Two premises decide records without their composites, each through
``Report.decide``.  "uniqueness of H": that H is the only one an effective
K admits, so ``check_horizontal`` and ``check_pair``, given the
decomposition, pass the seven horizontal and joint identities of that H
(``_horizontal_is_forced``) and check any other H identity by identity;
``verify_connection`` and the CLI's ``derive-h`` pass them the
decomposition.  "additivity of K": the sum's two partial bundles, over E
and over TM, must be the tangent bundle of E and T of the bundle; once
every effectiveness record before them has passed, they are decided from
K's additivity over both projections (``_partials_by_additivity``), and are
transported along the inverse pairing to be compared only when that does
not decide them.  All verdicts are exact: a pairing with no inverse fails
with an exact refutation witness, and is cannot-certify only when the
inverter's degree budget runs out.

Coordinate conventions: the bundle must have its base coordinates leading, so
E = (x, w), TE = (x, w, u, v) with u the tangent of x and v the tangent of w,
and the product E x_M TM is the Whitney sum E + TM on (x, w, u); its two
partial bundles are the structures over E and over TM that H is checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial
from fractions import Fraction
from typing import Optional, Sequence

from .polycore import (
    PolyMap,
    Polynomial,
    ShapeError,
    compose,
    compose_all,
    eval_map,
    map_equal,
    power_pair,
)
from .report import Report, Status
from .dbundle import (
    LINEAR_SQUARES,
    DiffBundle,
    additive_morphism_report,
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
    comparison map of the sum onto its concatenated model,
    ``biproduct.to_canonical``; theta^-1 is ``biproduct.from_canonical``.
    """

    biproduct: BiproductBundle

    @property
    def total(self) -> DiffBundle:
        """The sum on TE, transported from its model when first read."""
        return self.biproduct.sum

    @cached_property
    def horizontal(self) -> PolyMap:
        """H = iota_12 ; theta^-1, with iota_12 (x, w, u) -> (x, w, u, zero fibre); built once."""
        b = self.biproduct.summands[0]
        hat = b.total.dim + b.base.dim
        iota12 = PolyMap(
            hat,
            PolyMap.identity(hat).components
            + compose(PolyMap.selection(hat, range(b.base.dim)), fibre_part(b, b.zeta)).components,
        )
        return compose(iota12, self.biproduct.from_canonical)


def section_target(b: DiffBundle) -> PolyMap:
    """U = <p_E, T(q)> : TE -> E x_M TM."""
    e, m = b.total.dim, b.base.dim
    return PolyMap.selection(2 * e, list(range(e)) + list(range(e, e + m)))


def _sources(b: DiffBundle) -> tuple[tuple[str, PolyMap, DiffBundle], ...]:
    """The two bundles on TE that K maps into b, each with the map of bases under K.

    T(b) lies over TM and K over p_M; the tangent bundle of E lies over E
    and K over q.
    """
    return (
        ("base projection", proj_p(b.base), b.tangent),
        ("bundle projection", b.q, tangent_bundle(b.total)),
    )


def check_vertical(c: Connection) -> Report:
    """K retracts the lift and is linear over both relevant projections."""
    b = c.bundle
    rep = Report(subject="vertical map")
    rep.check_equal(
        "retraction", "lift then K is the identity", compose(b.lift, c.K), PolyMap.identity(b.total.dim)
    )
    for name, f, src in _sources(b):
        rep.extend(
            linear_morphism_report(f"over the {name}", c.K, f, src, b),
            prefix=f"linearity over the {name}: ",
        )
    return rep


def check_horizontal(c: Connection, d: Optional[Decomposition] = None) -> Report:
    """H sections U and is linear over the total space and the tangent base.

    ``d`` is the decomposition ``check_effective`` returned for c, when the
    caller holds it.  If H is the one it forces (``_horizontal_is_forced``),
    every law passes by the premise "uniqueness of H"; otherwise every law
    is computed on H.
    """
    b = c.bundle
    rep = Report(subject="horizontal map")
    if c.H is None:
        rep.check("presence", "a horizontal map is supplied", False, "no H given")
        return rep
    premise = "uniqueness of H" if _horizontal_is_forced(c, d) else None
    hat = b.total.dim + b.base.dim
    rep.decide(
        "section",
        "H then <p_E, T(q)> is the identity",
        premise,
        lambda: (compose(c.H, section_target(b)), PolyMap.identity(hat)),
    )
    # H is linear over both partial bundles of E x_M TM = E + TM, whose
    # concatenated model is E x_M TM itself; both squares of one partial
    # bundle read one linearity report, built when the first is computed.
    summands = (b, tangent_bundle(b.base))
    over = (
        ("total space", PolyMap.identity(b.total.dim), tangent_bundle(b.total)),
        ("tangent base", PolyMap.identity(2 * b.base.dim), b.tangent),
    )
    linear: dict[int, Report] = {}

    def witness(fixed: int, k: int) -> Optional[str]:
        if fixed not in linear:
            name, f, dst = over[fixed]
            src = concatenated(summands, b.base, fixed=fixed)
            linear[fixed] = linear_morphism_report(f"over the {name}", c.H, f, src, dst)
        return linear[fixed].records[k].witness

    for fixed, (name, _, _) in enumerate(over):
        for k, (square, law) in enumerate(LINEAR_SQUARES):
            rep.decide(f"linearity over the {name}: {square}", law, premise, partial(witness, fixed, k))
    return rep


def check_pair(c: Connection, d: Optional[Decomposition] = None) -> Report:
    """The joint identities for (K, H): compatibility and decomposition.

    ``d`` decides them as in ``check_horizontal``.
    """
    b = c.bundle
    rep = Report(subject="connection pair")
    if c.H is None:
        rep.check("presence", "a horizontal map is supplied", False, "no H given")
        return rep
    premise = "uniqueness of H" if _horizontal_is_forced(c, d) else None
    e = b.total.dim

    def compatibility() -> tuple[PolyMap, PolyMap]:
        return compose(c.H, c.K), compose_all(PolyMap.selection(e + b.base.dim, range(e)), b.q, b.zeta)

    def decomposition() -> tuple[PolyMap, PolyMap]:
        # Parts that lie over different points of E cannot be added.
        vertical_part = compose(power_pair(e, b.base_coords, [c.K, proj_p(b.total)]), mu_map(b))
        horizontal_part = compose(section_target(b), c.H)
        return tangent_bundle(b.total).add(vertical_part, horizontal_part), PolyMap.identity(2 * e)

    rep.decide("compatibility", "H then K factors through the zero section", premise, compatibility)
    rep.decide(
        "decomposition of the identity",
        "vertical part plus horizontal part is the identity on TE",
        premise,
        decomposition,
    )
    return rep


# The law of the three injection records, which the product presentation
# of ``equivalence_suite`` does not compare.
_INJECTION_LAW = "injection matches the structural map"


def _partials_by_additivity(c: Connection) -> bool:
    """Whether both partial-bundle records pass, decided without theta^-1.

    It is asked once every effectiveness record written before them has
    passed: the vertical gate, the inversion of theta = <p_E, T(q), K> :
    TE -> C = (x, w, u, k), the Whitney sum's records and the three
    injections.  The j-th record compares P_j, the model's partial bundle
    transported along theta, with B_j: B_0 is the tangent bundle of E over
    E and B_1 is T(b) over TM.  ``transport_bundle`` sets sigma' = kappa
    sigma_P theta^-1, zeta' = zeta_P theta^-1 and lift' = theta lift_P
    T(theta^-1).  Since theta theta^-1 = 1 and T(theta) T(theta^-1) = T(1)
    (T is a functor), the record passes once

        kappa sigma_P = sigma_B theta,  zeta_P = zeta_B theta,
        theta lift_P = lift_B T(theta).

    Compare both sides component by component over theta = (x, w, u, K_w):

    - The x, w and u components of theta select p_E and T(q), so there
      both sides read b's structure alone.  For j = 0 they agree as they
      stand.  For j = 1, P_1 is built from b's fibre parts alone and B_1 =
      T(b) from its whole structure; they agree when b lies over its base:
      zeta q = 1, sigma q = pi_1 q, lift p_E = q zeta and lift T(q) = q 0_M
      (the last says lift's dx block is zero).  The records already passed
      give all four.  "Whitney sum: annihilation 2,1" says iota_2 pi_1 =
      p_M zeta on C, where iota_2 (x, u) has the E part (x, zeta_w(x)): its
      base component is zeta q = 1.  The "third injection" record says
      lift = iota_3 theta^-1, and theta^-1 keeps the x, w and u components,
      so lift's are x, zeta_w(x) and 0: lift p_E = q zeta and lift T(q) =
      q 0_M.  The two lifts lift(x, w1) and lift(x, w2) lie over one point
      of E, so K's addition square over the bundle projection can be taken
      at them; since K lift = 1 (the gate's retraction), it gives
      sigma((x, w1), (x, w2)) as K of a point over x, and K's base part is
      x: sigma q = pi_1 q.
    - The gate's projection squares make K's base part x, so the k
      component of the sigma equation is that of sigma_B K = pi_1 K +
      pi_2 K in b, K's addition preservation over B_j.
    - The k component of the zeta equation is that of zeta_B K = f zeta,
      K's zero preservation, with f = q for j = 0 and f = p_M for j = 1.
    - The lift equation's k component has a point part and a tangent part.
      Its point part is K at lift_B p = q_B zeta_B (for j = 1 by the
      squares of b above): zero preservation again.  Its tangent part is
      that of the lift square lift_B T(K) = K lift, which the vertical gate
      has passed over both B_j.

    So both records pass, past those records, when K is an additive
    morphism over both projections (``additive_morphism_report``; its base
    square is the gate's projection square).  Between differential bundles
    a linear morphism is additive (Cockett and Cruttwell), so past the gate
    this fails only on a bundle that is not one.

    The caller records both partial-bundle records by the premise
    "additivity of K" when this returns True.  A passing record carries no
    witness, so its bytes are the transported comparison's; when this
    returns False the caller transports both partial bundles and compares
    them, so every witness is unchanged.
    """
    b = c.bundle
    return all(additive_morphism_report("additivity", c.K, f, src, b).passed for _, f, src in _sources(b))


def _effectiveness(c: Connection, vert: Report) -> tuple[Report, Optional[Decomposition]]:
    """Invert theta past the gate of ``vert``, the ``check_vertical(c)`` report."""
    b = c.bundle
    rep = Report(subject="effectiveness")
    rep.summary("gate", "the vertical identities hold", vert)
    if not vert.passed:
        return rep, None
    summands = (b, tangent_bundle(b.base), b)
    projections = (proj_p(b.total), T_map(b.q), c.K)
    # The comparison map of this sum is the pairing theta.  The vertical gate
    # makes the three projections agree on the base, so the recognition
    # reaches the inversion of theta.
    recog = recognize_biproduct(T_obj(b.total), projections, summands)
    if recog.refutation is not None:
        rep.no_inverse("pairing inversion", "the three-way pairing has a two-sided polynomial inverse", recog.refutation)
        return rep, None
    rep.check("pairing inversion", "two-sided polynomial inverse found", True, None)
    rep.extend(recog.report, prefix="Whitney sum: ")
    if recog.biproduct is None:
        return rep, None
    expected = (zero_0(b.total), T_map(b.zeta), b.lift)
    for name, got, want in zip(("first", "second", "third"), recog.biproduct.injections, expected):
        rep.check_equal(f"{name} injection", _INJECTION_LAW, got, want)
    premise = "additivity of K" if rep.passed and _partials_by_additivity(c) else None
    partials = (
        ("first partial bundle", "equals the tangent bundle of the total space", tangent_bundle(b.total)),
        ("second partial bundle", "equals the tangent of the bundle", b.tangent),
    )
    for j, (name, law, want) in enumerate(partials):
        rep.decide(
            name, law, premise, lambda j=j, want=want: bundle_difference(partial_bundle(recog.biproduct, j), want)
        )
    return rep, Decomposition(recog.biproduct) if rep.passed else None


def check_effective(c: Connection) -> tuple[Report, Optional[Decomposition]]:
    """Invert the three-way pairing and recognize TE as the Whitney sum E + TM + E.

    The vertical identities are checked first, as the gate: the pairing is
    inverted only when they hold.  The sum's biproduct laws are decided on
    its concatenated model.  The two partial bundles are decided from K's
    additivity (``_partials_by_additivity``) and transported onto TE to be
    compared only when that does not decide them; the sum itself is
    transported when the decomposition's ``total`` is first read.  The
    decomposition is returned only when every record passes.
    """
    return _effectiveness(c, check_vertical(c))


def _horizontal_is_forced(c: Connection, d: Optional[Decomposition]) -> bool:
    """Whether every horizontal and pair record passes, decided without composites.

    d is the decomposition ``check_effective`` returned for c's bundle and
    K; one of another bundle or K, or none, decides nothing.  It is returned
    once every effectiveness record has passed, so theta =
    <p_E, T(q), K> : TE -> C = (x, w, u, k) has a two-sided inverse, and d
    holds it.  Write D = iota_12 theta^-1 (``Decomposition.horizontal``),
    with iota_12 (x, w, u) = (x, w, u, zeta_w(x)) and zeta_w the fibre part
    of zeta.  It holds when H = D (``verify_connection`` checks D when no H
    is supplied), and every record of ``check_horizontal`` and
    ``check_pair`` on D then passes, as follows.

    Uniqueness.  The x, w, u components of theta are U = <p_E, T(q)>, so
    H theta = <H U, H K>.  The section record says H U = 1 and the
    compatibility record says H K = pi_E q zeta = (x, zeta_w(x)), since
    zeta q = 1 (the sum's "annihilation 2,1" record reads it).  So an H
    that passes both has H theta = iota_12, and H = iota_12 theta^-1 = D
    because theta is invertible.  An H != D therefore fails "section" or
    "compatibility", and its records are computed, so every witness is
    unchanged.

    Existence.  D U = iota_12 theta^-1 theta pi_12 = iota_12 pi_12 = 1, and
    D K = iota_12 theta^-1 theta pi_3 = iota_12 pi_3 = (x, zeta_w(x)):
    section and compatibility.  The j-th partial-bundle record
    says that theta^-1 carries P_j, the model's partial bundle with block j
    fixed, onto B_j (B_0 the tangent bundle of E, B_1 = T(b)); its sigma,
    zeta and lift squares are those of a linear isomorphism P_j -> B_j, and
    P_j, isomorphic to a differential bundle, is one.  iota_12 is the
    inclusion of E x_M TM = E + TM with the third block at P_j's zero, so
    it commutes with the projections, and its lift square is P_j's lift
    preserving that zero; it is linear from the j-th partial bundle of
    E + TM into P_j.  A composite of linear morphisms is linear, so D is
    linear over the total space (j = 0) and the tangent base (j = 1): the
    four projection and lift squares.  For the decomposition take xi in TE
    with theta(xi) = (x, w, u, k).  The first and third injection records
    give 0_E = theta^-1 iota_1 and lift = theta^-1 iota_3, so the vertical
    part mu(K xi, p_E xi) = T(sigma)(lift(x, k), 0_E(x, w)) is the sum in
    T(b) of theta^-1 (x, zeta_w, 0, k) and theta^-1 (x, w, 0, zeta_w), which
    theta^-1 carries from P_1: theta^-1 (x, w, 0, k).  The horizontal part
    is D(x, w, u) = theta^-1 (x, w, u, zeta_w), and their sum in the tangent
    bundle of E is carried from P_0: theta^-1 (x, w, u, k) = xi.  That is
    the sum's resolution of the identity, read in the first partial bundle.

    That b is a differential bundle, which makes P_j one, is not checked
    here.  The evidence that a passing chain implies it is a seeded search,
    not a proof: over about a hundred perturbed connections,
    ``verify_bundle`` passed on the bundle of every connection that passed
    (tests/test_premises.py).

    A passing record carries no witness, so the decided records' bytes are
    the computed ones'.  ``equivalence_suite`` still computes them: its pair
    leg is the executable form of this argument.
    """
    return (
        d is not None
        and d.biproduct.summands[0] == c.bundle
        and map_equal(d.biproduct.projections[2], c.K)
        and map_equal(c.H, d.horizontal)
    )


def verify_connection(c: Connection) -> tuple[Report, Optional[Decomposition]]:
    """Check K, its effectiveness, then H and the pair, with H derived when absent.

    A connection is one effective K: past the vertical identities theta
    inverts, and H = iota_12 ; theta^-1 is the only horizontal map that K
    admits.  So an absent H, or a supplied one equal to iota_12 ; theta^-1,
    passes the horizontal and pair records by that uniqueness
    (``_horizontal_is_forced``); any other H is checked record by record.
    The decomposition is returned when K is effective.
    """
    vert = check_vertical(c)
    eff, d = _effectiveness(c, vert)
    rep = Report(subject="connection gate")
    rep.extend(vert, prefix="vertical: ")
    rep.extend(eff, prefix="effectiveness: ")
    if d is not None:
        full = c if c.H is not None else replace(c, H=d.horizontal)
        rep.extend(check_horizontal(full, d), prefix="horizontal: ")
        rep.extend(check_pair(full, d), prefix="pair: ")
    return rep, d


def effective_decomposition(c: Connection) -> Decomposition:
    """The decomposition of an effective K; a ShapeError names the failing records otherwise."""
    rep, decomp = check_effective(c)
    if decomp is None:
        raise ShapeError(
            "horizontal derivation needs an effective vertical map: "
            + "; ".join(r.name for r in rep.failing())
        )
    return decomp


def derive_horizontal(c: Connection) -> Connection:
    """Recover H as the injection of the first two summands of the sum."""
    return replace(c, H=effective_decomposition(c).horizontal)


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


def equivalence_suite(c: Connection) -> Report:
    """Check that the four presentations of a connection agree on this instance.

    The four legs: a compatible pair (K, H) exists, with H read off the
    decomposition when none is supplied; K is an effective vertical map; TE
    is the Whitney sum E + TM + E with the stated projections, injections
    and first/second partial structures; K retracts the lift and the pairing
    exhibits that product, whose projections are fixed but whose injections
    are not.  The legs read one pass of ``verify_connection``'s checks, in
    which the pair leg's horizontal and joint identities are always
    computed: that leg is the executable form of the uniqueness of H that
    ``verify_connection`` relies on.  For a genuine connection all legs
    pass; for a defective K all legs must fail together.
    """
    b = c.bundle
    rep = Report(subject="equivalence of presentations")
    vert = check_vertical(c)
    eff_rep, decomp = _effectiveness(c, vert)
    legs = (
        ("pair presentation", "a compatible horizontal map exists"),
        ("effective presentation", "vertical identities hold and the pairing inverts"),
        ("sum presentation", "TE is the stated Whitney sum with structural injections and partials"),
        ("product presentation", "K retracts the lift and the pairing exhibits the stated product"),
    )
    inversion = next((r for r in eff_rep.records if r.name == "pairing inversion"), None)
    if inversion is not None and inversion.status is not Status.PASS:
        # Every leg needs the inverse of theta: each carries its refutation,
        # or the exhausted budget.
        for name, law in legs:
            rep.add(replace(inversion, name=name, law=law))
    else:
        # Leg 1: some H makes (K, H) a full connection pair, with H read off
        # the decomposition when none is supplied.
        if decomp is not None:
            full = c if c.H is not None else replace(c, H=decomp.horizontal)
            hor, pair = check_horizontal(full), check_pair(full)
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
            product = [r for r in failures if r.law != _INJECTION_LAW]
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
