"""Additive structure on bundles over a fixed base: sums, biproducts, partials.

Morphisms between two bundles over the same base form a commutative monoid:
the zero morphism q ; zeta' routes through the base and the zero section, and
addition is the codomain's ``DiffBundle.add``, which pairs into its fibre
square and applies its addition map; ``biproduct_laws`` writes its laws with
both.  Finite biproducts (Whitney sums) are realized canonically with the
total space being the base block followed by the fibre blocks in order; any
other presentation is handled by recognizing a comparison isomorphism onto the
canonical model and transporting the structure across it.  A biproduct also
induces, for each summand index, a *partial* bundle structure on the whole
total space over that summand, which fixes the chosen block and adds the
remaining ones; the sum and its partial bundles are built by one construction
of the model, ``concatenated``.  A sum is always handled through its
comparison isomorphism: its biproduct laws and its axioms are decided on the
model first, its partial bundles are the model's transported along it, and the
sum itself is transported only when it is read.  For a sum built by
``biproduct`` the isomorphism is the identity and the sum is the model.
Deciding a law on the model is a choice of where to compute it: every such
record is computed.  The one record passed by a premise is a recognition's
"tangential", by "T is a functor" through ``Report.decide``.
``recognize_biproduct`` returns its report with the sum, or None, as
``check_effective`` does; it inverts the comparison map through
``Report.attempt``, and builds every law, the common-base records and the
biproduct laws, inside ``Report.check_equal``; both record a refutation or
an exhausted budget.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .polycore import (
    PolyMap,
    Polynomial,
    ShapeError,
    Value,
    compose,
    invert_polymap,
)
from .report import CheckRecord, Report, Status
from .tangent import Space
from .dbundle import DiffBundle, transport_bundle, verify_bundle


def fibre_part(b: DiffBundle, m: PolyMap) -> PolyMap:
    """Restrict a map into the total space of b to its fibre components."""
    return PolyMap(m.domain_dim, tuple(m.components[i] for i in b.fibre_coords))


def _positions(summands: Sequence[DiffBundle], m: int, i: int) -> list[int]:
    """Where each coordinate of the i-th summand sits in the concatenated model.

    The model is (x, w_1, ..., w_r): the base block of dimension m, then the
    fibre blocks in summand order.
    """
    s = summands[i]
    start = m + sum(t.fibre_dim for t in summands[:i])
    pos = [0] * s.total.dim
    for k, p in enumerate(s.base_coords):
        pos[p] = k
    for k, p in enumerate(s.fibre_coords):
        pos[p] = start + k
    return pos


class BiproductBundle(Value):
    """A Whitney sum with its projections, injections, and summand list.

    ``model`` is the concatenated model of the summands and ``total`` the
    presented total space; ``to_canonical``/``from_canonical`` relate the
    two, and both are the identity when the sum was built directly by
    :func:`biproduct`.
    """

    _fields = ("model", "total", "summands", "projections", "injections", "to_canonical", "from_canonical")

    def __init__(
        self,
        model: DiffBundle,
        total: Space,
        summands: tuple[DiffBundle, ...],
        projections: tuple[PolyMap, ...],
        injections: tuple[PolyMap, ...],
        to_canonical: PolyMap,
        from_canonical: PolyMap,
    ) -> None:
        self.__dict__.update(
            model=model,
            total=total,
            summands=summands,
            projections=projections,
            injections=injections,
            to_canonical=to_canonical,
            from_canonical=from_canonical,
        )

    @cached_property
    def sum(self) -> DiffBundle:
        """The sum on the presented total space, transported from the model on first read.

        A sum built by :func:`biproduct` is its model.
        """
        if self.total == self.model.total and self.to_canonical.selected == tuple(range(self.total.dim)):
            return self.model
        return transport_bundle(self.model, self.to_canonical, self.from_canonical, self.total)


def _section(summands: Sequence[DiffBundle], m: int, fixed: Optional[int] = None) -> PolyMap:
    """The zero section of the concatenated model, or its ``fixed``-th injection.

    The injection of summand j keeps that summand's own coordinates in the
    base block and block j and puts zero in every other fibre block; it is
    also the zero section of the j-th partial bundle.
    """
    if fixed is None:
        dom, base_coords = m, range(m)
    else:
        dom, base_coords = summands[fixed].total.dim, summands[fixed].base_coords
    qb = PolyMap.selection(dom, base_coords)
    comps: list[Polynomial] = list(qb.components)
    for i, s in enumerate(summands):
        if i == fixed:
            comps.extend(Polynomial.variable(dom, p) for p in s.fibre_coords)
        else:
            comps.extend(compose(qb, fibre_part(s, s.zeta)).components)
    return PolyMap(dom, tuple(comps))


def concatenated(
    summands: Sequence[DiffBundle], base: Space, fixed: Optional[int] = None
) -> DiffBundle:
    """The concatenated model (x, w_1, ..., w_r) of a Whitney sum as a bundle.

    With ``fixed`` unset it lies over the common base and adds every block
    through its summand's addition.  With ``fixed=j`` it is the j-th partial
    bundle: block j joins the base, which becomes the j-th summand's total
    space, and only the other blocks are added.
    """
    m = base.dim
    fdims = [s.fibre_dim for s in summands]
    e = m + sum(fdims)
    sq = e + sum(f for i, f in enumerate(fdims) if i != fixed)
    total = Space(e, base.layout + tuple((f"w{i + 1}", f) for i, f in enumerate(fdims) if f))

    qe = PolyMap.selection(e, range(m))
    # sigma on the square (x, w_1..w_r, then a second copy of each added
    # block): add each block through the corresponding summand's addition.
    sigma_comps: list[Polynomial] = [Polynomial.variable(sq, k) for k in range(m)]
    lift_fibre: list[Polynomial] = []
    lift_tangent: list[Polynomial] = []
    extra = e
    for i, s in enumerate(summands):
        pos = _positions(summands, m, i)
        if i == fixed:
            block = [pos[p] for p in s.fibre_coords]
            sigma_comps.extend(Polynomial.variable(sq, k) for k in block)
            lift_fibre.extend(Polynomial.variable(e, k) for k in block)
            lift_tangent.extend(Polynomial.zero(e) for _ in block)
            continue
        pair = PolyMap.selection(sq, pos + list(range(extra, extra + fdims[i])))
        extra += fdims[i]
        sigma_comps.extend(compose(pair, fibre_part(s, s.sigma)).components)
        lift_fibre.extend(compose(qe, fibre_part(s, s.zeta)).components)
        tangent = PolyMap(s.total.dim, s.lift.components[s.total.dim :])
        lift_tangent.extend(compose(PolyMap.selection(e, pos), fibre_part(s, tangent)).components)
    sigma = PolyMap(sq, tuple(sigma_comps))
    lift = PolyMap(e, qe.components + tuple(lift_fibre + [Polynomial.zero(e)] * m + lift_tangent))

    if fixed is None:
        over, base_coords = base, tuple(range(m))
    else:
        over, base_coords = summands[fixed].total, tuple(_positions(summands, m, fixed))
    return DiffBundle(total, over, base_coords, sigma, _section(summands, m, fixed), lift)


def biproduct(summands: Sequence[DiffBundle], base: Optional[Space] = None) -> BiproductBundle:
    """Form the canonical Whitney sum with concatenated fibre blocks."""
    summands = tuple(summands)
    if summands:
        base = summands[0].base
    elif base is None:
        raise ShapeError("an empty biproduct needs an explicit base space")
    if any(s.base.dim != base.dim for s in summands):
        raise ShapeError("biproduct summands must share a base")
    model = concatenated(summands, base)
    m, e = base.dim, model.total.dim
    indices = range(len(summands))
    ident = PolyMap.identity(e)
    return BiproductBundle(
        model=model,
        total=model.total,
        summands=summands,
        projections=tuple(PolyMap.selection(e, _positions(summands, m, i)) for i in indices),
        injections=tuple(_section(summands, m, i) for i in indices),
        to_canonical=ident,
        from_canonical=ident,
    )


def biproduct_laws(bp: BiproductBundle) -> Report:
    """The hom-monoid identities that make the sum a biproduct.

    Each law is built inside ``Report.check_equal``, the resolution of the
    identity with the sum it reads, so a refutation or budget met while
    building one is its record.
    """
    rep = Report(subject=f"biproduct with {len(bp.summands)} summands")
    r = len(bp.summands)
    for i, inj in enumerate(bp.injections):
        rep.check_equal(
            f"retraction {i + 1}",
            "injection then projection is the identity",
            lambda: (compose(inj, bp.projections[i]), PolyMap.identity(bp.summands[i].total.dim)),
        )
        for j in range(r):
            if i != j:
                rep.check_equal(
                    f"annihilation {i + 1},{j + 1}",
                    "injection then foreign projection is the zero morphism",
                    lambda: (compose(inj, bp.projections[j]), compose(bp.summands[i].q, bp.summands[j].zeta)),
                )

    def resolution() -> tuple[PolyMap, PolyMap]:
        total = compose(bp.sum.q, bp.sum.zeta)
        for p, inj in zip(bp.projections, bp.injections):
            total = bp.sum.add(total, compose(p, inj))
        return total, PolyMap.identity(bp.sum.total.dim)

    rep.check_equal("resolution of identity", "sum of projection-injection composites is the identity", resolution)
    return rep


def recognize_biproduct(
    total: Space,
    projections: Sequence[PolyMap],
    summands: Sequence[DiffBundle],
) -> tuple[Report, Optional[BiproductBundle]]:
    """Decide whether the projections present ``total`` as a Whitney sum.

    Returns the report and, when every record passes, the sum.  Assembles
    the comparison map psi onto the canonical concatenated model C and
    inverts it through ``Report.attempt``: when ``invert_polymap`` finds no
    inverse, the "comparison inversion" record fails with its refutation,
    or is cannot-certify when the budget runs out, and the recognition
    stops there.

    The "tangential" record is decided by the premise "T is a functor": T
    is a functor on polynomial maps, so T(psi) T(psi^-1) = T(psi psi^-1) =
    T(1), the identity, once ``invert_polymap`` has returned psi^-1.

    The biproduct laws are decided on C.  Once the "common base" records
    pass, the i-th given projection is psi pi_i, with pi_i the model's
    projection: psi is the common base map followed by each projection's
    fibre block.  The i-th injection is iota_i psi^-1 by construction, and
    the sum's zero and addition are C's conjugated by psi.  So each
    retraction and annihilation composite iota_i psi^-1 psi pi_j is C's
    iota_i pi_j, and the sum's resolution of identity is C's between psi
    and psi^-1: each law holds on the sum exactly when it holds on C.  The
    record names and laws are the same on both sides and a pass carries no
    witness, so a passing report is the sum's byte for byte.  When a law
    fails, the laws are decided again on the sum itself, built then, so
    that the witnesses name coordinates of ``total``.  The "standard
    position" record needs only the sum's projection psi q_C, the common
    base map: the sum is in standard position when that is a coordinate
    selection.
    """
    rep = Report(subject="biproduct recognition")
    summands = tuple(summands)
    projections = tuple(projections)
    if len(projections) != len(summands):
        rep.check("arity", "one projection per summand", False, f"{len(projections)} projections for {len(summands)} summands")
        return rep, None
    canon = biproduct(summands) if summands else None
    if canon is None:
        rep.check("arity", "nonempty summand list", False, "no summands given")
        return rep, None
    if not rep.check(
        "dimension count",
        "total dimension equals base plus fibre blocks",
        total.dim == canon.total.dim,
        f"{total.dim} != {canon.total.dim}",
    ):
        return rep, None
    base_maps = [compose(p, s.q) for p, s in zip(projections, summands)]
    for i in range(1, len(base_maps)):
        if not rep.check_equal(
            f"common base {i + 1}", "all projections induce the same base map", lambda: (base_maps[0], base_maps[i])
        ):
            return rep, None
    comps: list[Polynomial] = list(base_maps[0].components)
    for p, s in zip(projections, summands):
        comps.extend(p.components[k] for k in s.fibre_coords)
    psi = PolyMap(total.dim, tuple(comps))
    psi_inv = rep.attempt(
        "comparison inversion", "comparison map onto the concatenated model is invertible", lambda: invert_polymap(psi)
    )
    if psi_inv is None:
        return rep, None
    rep.check("comparison isomorphism", "two-sided polynomial inverse found", True, None)
    rep.decide("tangential", "the comparison map stays invertible under T", "T is a functor")
    # psi q_C, the sum's projection, is the common base map
    if base_maps[0].selected is None:
        rep.add(CheckRecord("standard position", "transported projection is a coordinate selection",
                            Status.CANNOT_CERTIFY, "transported projection is not a coordinate selection"))
        return rep, None
    bp = BiproductBundle(
        model=canon.model,
        total=total,
        summands=summands,
        projections=projections,
        injections=tuple(compose(inj, psi_inv) for inj in canon.injections),
        to_canonical=psi,
        from_canonical=psi_inv,
    )
    laws = biproduct_laws(canon)
    rep.extend(laws if laws.passed else biproduct_laws(bp))
    return rep, bp if rep.passed else None


def verify_sum(bp: BiproductBundle) -> Report:
    """The five differential-bundle axioms of the sum, decided on its model.

    The presented sum is the concatenated model C transported along the
    comparison isomorphism psi = ``to_canonical`` over the identity of the
    base: ``transport_bundle`` sets sigma' = kappa sigma psi^-1, zeta' =
    zeta psi^-1 and lift' = psi lift T(psi^-1), where psi q is a selection
    and kappa = psi x_M psi maps the fibre square onto C's.  Each axiom is
    an equation between composites, and transport conjugates it by
    isomorphisms, so it holds for the sum exactly when it holds for C:

    - Axiom 0 (projection, section, commutativity, unit, associativity):
      each of the sum's equations is C's, preceded by psi, kappa or the
      cube of psi and followed by psi^-1 or nothing, since psi psi^-1 = 1
      and the projections, the swap and the pairings commute with kappa.
    - Axiom 1 holds for every bundle in standard position.
    - Axioms 2 and 3: T of the sum is T(C) transported along T(psi), and
      T(psi) T(psi^-1) = 1 by functoriality, so each additivity square is
      C's conjugated by psi and T(psi).
    - Axiom 4: by the naturality of the zero section, mu' = kappa mu
      T(psi^-1), and T(psi^-1) carries the subvariety where T(q) vanishes
      onto the one where T(q') does; so mu' is invertible there exactly
      when mu is, with nu' = T(psi) nu kappa^-1.
    - Axiom 5: by the naturality of l, T(psi^-1) l = l T^2(psi^-1), so
      both sides of lift' l = lift' T(lift') are C's between psi and
      T^2(psi^-1).

    A passing report has no witnesses, so C's is the sum's, byte for byte.
    Any other report is recomputed on the sum itself, so that its
    witnesses name the sum's coordinates.  Only a record the budget
    decides can differ: the size of a composite, and the degree of an
    inverse, are not invariant under conjugation, so the budget can run
    out on the sum where it does not on C.  A sum built by ``biproduct``
    is C itself, decided once when it passes.
    """
    report = verify_bundle(bp.model)
    return report if report.passed else verify_bundle(bp.sum)


def partial_bundle(bp: BiproductBundle, j: int) -> DiffBundle:
    """The j-th partial bundle: over that summand, it fixes its block and adds the rest."""
    if not 0 <= j < len(bp.summands):
        raise ShapeError(f"partial-bundle index {j} out of range")
    canon = concatenated(bp.summands, bp.model.base, fixed=j)
    return transport_bundle(canon, bp.to_canonical, bp.from_canonical, bp.total)
