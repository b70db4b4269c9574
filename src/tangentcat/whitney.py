"""Additive structure on bundles over a fixed base: sums, biproducts, partials.

Morphisms between two bundles over the same base form a commutative monoid:
the zero morphism routes through the base and the zero section, and addition
pairs into the codomain's fibre square and applies its addition map.  Finite
biproducts (Whitney sums) are realized canonically with the total space being
the base block followed by the fibre blocks in order; any other presentation
is handled by recognizing a comparison isomorphism onto the canonical model
and transporting the structure across it.  A biproduct also induces, for each
summand index, a *partial* bundle structure on the whole total space over
that summand, which fixes the chosen block and adds the remaining ones; the
sum and its partial bundles are built by one construction of the model,
``concatenated``.  A sum is always handled through its comparison
isomorphism: its partial bundles are the model's transported along it, and
its axioms are decided on the model first.  For a sum built by
``biproduct`` the isomorphism is the identity, and transport along it is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .polycore import (
    NotInvertible,
    PolyMap,
    Polynomial,
    ShapeError,
    compose,
    first_difference,
    invert_polymap,
    map_equal,
)
from .report import Report
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


def hom_zero(src: DiffBundle, dst: DiffBundle) -> PolyMap:
    """The zero morphism between bundles over the same base: q then zeta'."""
    if src.base.dim != dst.base.dim:
        raise ShapeError("hom_zero requires bundles over the same base")
    return compose(src.q, dst.zeta)


def hom_add(f: PolyMap, g: PolyMap, src: DiffBundle, dst: DiffBundle) -> PolyMap:
    """The sum of two morphisms over the base: pair into the square, then add."""
    if src.base.dim != dst.base.dim:
        raise ShapeError("hom_add requires bundles over the same base")
    return dst.add(f, g)


@dataclass(frozen=True)
class BiproductBundle:
    """A Whitney sum with its projections, injections, and summand list.

    ``to_canonical``/``from_canonical`` relate the presented total space to
    the canonical concatenated model; both are the identity when the sum was
    built directly by :func:`biproduct`.
    """

    sum: DiffBundle
    summands: tuple[DiffBundle, ...]
    projections: tuple[PolyMap, ...]
    injections: tuple[PolyMap, ...]
    to_canonical: PolyMap
    from_canonical: PolyMap


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
    sum_bundle = concatenated(summands, base)
    m, e = base.dim, sum_bundle.total.dim
    indices = range(len(summands))
    ident = PolyMap.identity(e)
    return BiproductBundle(
        sum=sum_bundle,
        summands=summands,
        projections=tuple(PolyMap.selection(e, _positions(summands, m, i)) for i in indices),
        injections=tuple(_section(summands, m, i) for i in indices),
        to_canonical=ident,
        from_canonical=ident,
    )


def biproduct_laws(bp: BiproductBundle) -> Report:
    """The hom-monoid identities that make the sum a biproduct."""
    rep = Report(subject=f"biproduct with {len(bp.summands)} summands")
    r = len(bp.summands)
    for i in range(r):
        rep.check_equal(
            f"retraction {i + 1}",
            "injection then projection is the identity",
            compose(bp.injections[i], bp.projections[i]),
            PolyMap.identity(bp.summands[i].total.dim),
        )
        for j in range(r):
            if i != j:
                rep.check_equal(
                    f"annihilation {i + 1},{j + 1}",
                    "injection then foreign projection is the zero morphism",
                    compose(bp.injections[i], bp.projections[j]),
                    hom_zero(bp.summands[i], bp.summands[j]),
                )
    total = hom_zero(bp.sum, bp.sum)
    for i in range(r):
        total = hom_add(
            total, compose(bp.projections[i], bp.injections[i]), bp.sum, bp.sum
        )
    rep.check_equal(
        "resolution of identity",
        "sum of projection-injection composites is the identity",
        total,
        PolyMap.identity(bp.sum.total.dim),
    )
    return rep


@dataclass(frozen=True)
class Recognition:
    """Outcome of presenting a space as a Whitney sum via given projections.

    ``refutation`` is what the inversion of the comparison map raised, when
    the recognition stopped there.
    """

    report: Report
    biproduct: Optional[BiproductBundle]
    refutation: Optional[NotInvertible] = None


def recognize_biproduct(
    total: Space,
    projections: Sequence[PolyMap],
    summands: Sequence[DiffBundle],
) -> Recognition:
    """Decide whether the projections present ``total`` as a Whitney sum.

    Assembles the comparison map onto the canonical concatenated model and
    inverts it with ``invert_polymap``.  On success the canonical structure
    is transported back across the comparison isomorphism.  When the
    inverter raises ``NotInvertible``, the "comparison inversion" record
    fails with its witness, or is cannot-certify when only the degree
    budget ran out, and the recognition carries the exception as its
    ``refutation``.

    The "tangential" record is decided by the returned inverse: T is a
    functor on polynomial maps, so T(psi) T(psi^-1) = T(psi psi^-1) = T(1),
    the identity, once ``invert_polymap`` has returned psi^-1.
    """
    rep = Report(subject="biproduct recognition")
    summands = tuple(summands)
    projections = tuple(projections)
    if len(projections) != len(summands):
        rep.check("arity", "one projection per summand", False, f"{len(projections)} projections for {len(summands)} summands")
        return Recognition(rep, None)
    canon = biproduct(summands) if summands else None
    if canon is None:
        rep.check("arity", "nonempty summand list", False, "no summands given")
        return Recognition(rep, None)
    m = canon.sum.base.dim
    if not rep.check(
        "dimension count",
        "total dimension equals base plus fibre blocks",
        total.dim == canon.sum.total.dim,
        f"{total.dim} != {canon.sum.total.dim}",
    ):
        return Recognition(rep, None)
    base_maps = [compose(p, s.q) for p, s in zip(projections, summands)]
    for i in range(1, len(base_maps)):
        if not rep.check(
            f"common base {i + 1}",
            "all projections induce the same base map",
            map_equal(base_maps[0], base_maps[i]),
            first_difference(base_maps[0], base_maps[i]),
        ):
            return Recognition(rep, None)
    comps: list[Polynomial] = list(base_maps[0].components)
    for p, s in zip(projections, summands):
        comps.extend(p.components[k] for k in s.fibre_coords)
    psi = PolyMap(total.dim, tuple(comps))
    try:
        psi_inv = invert_polymap(psi)
    except NotInvertible as exc:
        rep.no_inverse("comparison inversion", "comparison map onto the concatenated model is invertible", exc)
        return Recognition(rep, None, exc)
    rep.check("comparison isomorphism", "two-sided polynomial inverse found", True, None)
    rep.check("tangential", "the comparison map stays invertible under T", True)
    try:
        sum_here = transport_bundle(canon.sum, psi, psi_inv, total)
    except ShapeError as exc:
        rep.cannot_certify("standard position", "transported projection is a coordinate selection", str(exc))
        return Recognition(rep, None)
    injections = tuple(compose(inj, psi_inv) for inj in canon.injections)
    bp = BiproductBundle(
        sum=sum_here,
        summands=summands,
        projections=projections,
        injections=injections,
        to_canonical=psi,
        from_canonical=psi_inv,
    )
    rep.extend(biproduct_laws(bp))
    return Recognition(rep, bp if rep.passed else None)


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
    witnesses name the sum's coordinates.  The one verdict that can
    differ is axiom 4's: an inverse's degree is not invariant under
    conjugation, so the inverter's budget can run out on mu' where it
    does not on mu.  A sum built by ``biproduct`` is C itself, decided
    once when it passes.
    """
    report = verify_bundle(concatenated(bp.summands, bp.sum.base))
    return report if report.passed else verify_bundle(bp.sum)


def partial_bundle(bp: BiproductBundle, j: int) -> DiffBundle:
    """The j-th partial bundle: over that summand, it fixes its block and adds the rest."""
    if not 0 <= j < len(bp.summands):
        raise ShapeError(f"partial-bundle index {j} out of range")
    canon = concatenated(bp.summands, bp.sum.base, fixed=j)
    return transport_bundle(canon, bp.to_canonical, bp.from_canonical, bp.sum.total)


def partial_add(f: PolyMap, g: PolyMap, bp: BiproductBundle, j: int) -> PolyMap:
    """Add two maps into the sum blockwise, holding the j-th block fixed."""
    if not 0 <= j < len(bp.summands):
        raise ShapeError(f"partial-addition index {j} out of range")
    fj, gj = compose(f, bp.projections[j]), compose(g, bp.projections[j])
    diff = first_difference(fj, gj)
    if diff is not None:
        raise ShapeError(f"operands disagree on the fixed block: {diff}")
    return partial_bundle(bp, j).add(f, g)

