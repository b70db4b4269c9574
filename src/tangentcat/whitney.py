"""Additive structure on bundles over a fixed base: sums, biproducts, partials.

Morphisms between two bundles over the same base form a commutative monoid:
the zero morphism routes through the base and the zero section, and addition
pairs into the codomain's fibre square and applies its addition map.  Finite
biproducts (Whitney sums) are realized canonically with the total space being
the base block followed by the fibre blocks in order; any other presentation
is handled by recognizing a comparison isomorphism onto the canonical model
and transporting the structure across it.  A biproduct also induces, for each
summand index, a *partial* bundle structure on the whole total space over
that summand, which fixes the chosen block and adds the remaining ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .polycore import (
    PolyMap,
    Polynomial,
    ShapeError,
    compose,
    compose_all,
    first_difference,
    invert_polymap,
    map_equal,
    power_pair,
    selection_indices,
)
from .report import Report
from .tangent import Space, T_map
from .dbundle import (
    DiffBundle,
    tangent_of_bundle,
    transport_bundle,
    trivial_bundle,
)


def _fibre_part(b: DiffBundle, m: PolyMap) -> PolyMap:
    """Restrict a map into the total space of b to its fibre components."""
    return PolyMap(m.domain_dim, tuple(m.components[i] for i in b.fibre_coords))


def _zeta_fibre(b: DiffBundle) -> PolyMap:
    return _fibre_part(b, b.zeta)


def _sigma_fibre(b: DiffBundle) -> PolyMap:
    return _fibre_part(b, b.sigma)


def _lift_tangent_fibre(b: DiffBundle) -> PolyMap:
    e = b.total.dim
    return PolyMap(e, tuple(b.lift.components[e + i] for i in b.fibre_coords))


def _assemble(b: DiffBundle, dom: int, base: Sequence[Polynomial], fibre: Sequence[Polynomial]) -> PolyMap:
    """Build a map into the total space of b from base and fibre components."""
    comps: list[Optional[Polynomial]] = [None] * b.total.dim
    for pos, p in zip(b.base_coords, base):
        comps[pos] = p
    for pos, p in zip(b.fibre_coords, fibre):
        comps[pos] = p
    return PolyMap(dom, tuple(c for c in comps if c is not None))


def _subst(m: PolyMap, args: Sequence[Polynomial]) -> list[Polynomial]:
    return [c.substitute(list(args)) for c in m.components]


def hom_zero(src: DiffBundle, dst: DiffBundle) -> PolyMap:
    """The zero morphism between bundles over the same base: q then zeta'."""
    if src.base.dim != dst.base.dim:
        raise ShapeError("hom_zero requires bundles over the same base")
    return compose(src.q, dst.zeta)


def hom_add(f: PolyMap, g: PolyMap, src: DiffBundle, dst: DiffBundle) -> PolyMap:
    """The sum of two morphisms over the base: pair into the square, then add."""
    if src.base.dim != dst.base.dim:
        raise ShapeError("hom_add requires bundles over the same base")
    return compose(power_pair(dst.total.dim, dst.base_coords, [f, g]), dst.sigma)


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


@dataclass(frozen=True)
class PartialBundle:
    """The bundle structure on a sum's total space over its j-th summand."""

    bundle: DiffBundle
    index: int


def biproduct(summands: Sequence[DiffBundle], base: Optional[Space] = None) -> BiproductBundle:
    """Form the canonical Whitney sum with concatenated fibre blocks."""
    summands = tuple(summands)
    if summands:
        base = summands[0].base
    elif base is None:
        raise ShapeError("an empty biproduct needs an explicit base space")
    if any(s.base.dim != base.dim for s in summands):
        raise ShapeError("biproduct summands must share a base")
    m = base.dim
    fdims = [s.fibre_dim for s in summands]
    starts = []
    off = m
    for f in fdims:
        starts.append(off)
        off += f
    e = off
    layout = base.layout + tuple(
        (f"w{i + 1}", f) for i, f in enumerate(fdims) if f
    )
    total = Space(e, layout)

    def base_vars(dom: int) -> list[Polynomial]:
        return [Polynomial.variable(dom, i) for i in range(m)]

    def block_vars(dom: int, i: int) -> list[Polynomial]:
        return [Polynomial.variable(dom, starts[i] + k) for k in range(fdims[i])]

    # sigma on the square (x, w_1..w_r, w'_1..w'_r): add each block through
    # the corresponding summand's addition map.
    sq = e + sum(fdims)
    sq_starts = []
    off2 = e
    for f in fdims:
        sq_starts.append(off2)
        off2 += f
    sigma_comps: list[Polynomial] = base_vars(sq)
    for i, s in enumerate(summands):
        sq_point = _subst(
            _assemble(s, sq, base_vars(sq), block_vars(sq, i)),
            [Polynomial.variable(sq, k) for k in range(sq)],
        ) + [Polynomial.variable(sq, sq_starts[i] + k) for k in range(fdims[i])]
        sigma_comps.extend(_subst(_sigma_fibre(s), sq_point))
    sigma = PolyMap(sq, tuple(sigma_comps))

    zeta_comps: list[Polynomial] = base_vars(m)
    for s in summands:
        zeta_comps.extend(_zeta_fibre(s).components)
    zeta = PolyMap(m, tuple(zeta_comps))

    lift_comps: list[Polynomial] = base_vars(e)
    for i, s in enumerate(summands):
        lift_comps.extend(_subst(_zeta_fibre(s), base_vars(e)))
    lift_comps.extend(Polynomial.zero(e) for _ in range(m))
    for i, s in enumerate(summands):
        point = _assemble(s, e, base_vars(e), block_vars(e, i))
        lift_comps.extend(compose(point, _lift_tangent_fibre(s)).components)
    lift = PolyMap(e, tuple(lift_comps))

    if not summands:
        sum_bundle = trivial_bundle(base, 0)
    else:
        sum_bundle = DiffBundle(total, base, tuple(range(m)), sigma, zeta, lift)

    projections = tuple(
        _assemble(s, e, base_vars(e), block_vars(e, i)) for i, s in enumerate(summands)
    )
    injections = []
    for i, s in enumerate(summands):
        ei = s.total.dim
        qb = [Polynomial.variable(ei, p) for p in s.base_coords]
        comps: list[Polynomial] = list(qb)
        for k, other in enumerate(summands):
            if k == i:
                comps.extend(Polynomial.variable(ei, p) for p in s.fibre_coords)
            else:
                comps.extend(_subst(_zeta_fibre(other), qb))
        injections.append(PolyMap(ei, tuple(comps)))

    ident = PolyMap.identity(sum_bundle.total.dim)
    return BiproductBundle(
        sum=sum_bundle,
        summands=summands,
        projections=projections,
        injections=tuple(injections),
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
    """Outcome of presenting a space as a Whitney sum via given projections."""

    report: Report
    biproduct: Optional[BiproductBundle]


def recognize_biproduct(
    total: Space,
    projections: Sequence[PolyMap],
    summands: Sequence[DiffBundle],
    inverse: Optional[PolyMap] = None,
) -> Recognition:
    """Decide whether the projections present ``total`` as a Whitney sum.

    Assembles the comparison map onto the canonical concatenated model and
    looks for a two-sided polynomial inverse (``inverse`` may supply one).
    On success the canonical structure is transported back across the
    comparison isomorphism; an unsolved inversion yields cannot-certify,
    never refutation.
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

    if inverse is not None:
        ok = map_equal(compose(psi, inverse), PolyMap.identity(total.dim)) and map_equal(
            compose(inverse, psi), PolyMap.identity(total.dim)
        )
        if not ok:
            rep.check("witness inverse", "supplied inverse is two-sided", False, None)
            return Recognition(rep, None)
        psi_inv = inverse
    else:
        psi_inv = invert_polymap(psi)
        if psi_inv is None:
            rep.cannot_certify(
                "comparison inversion",
                "comparison map onto the concatenated model is invertible",
                "no polynomial inverse found",
            )
            return Recognition(rep, None)
    rep.check("comparison isomorphism", "two-sided polynomial inverse found", True, None)
    rep.check_equal(
        "tangential",
        "the comparison map stays invertible under T",
        compose(T_map(psi), T_map(psi_inv)),
        PolyMap.identity(2 * total.dim),
    )
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


def _canonical_partial(bp: BiproductBundle, j: int) -> DiffBundle:
    """The j-th partial bundle of the canonical concatenated model."""
    summands, canon = bp.summands, bp
    m = canon.summands[0].base.dim if summands else 0
    fdims = [s.fibre_dim for s in summands]
    e = m + sum(fdims)
    starts = []
    off = m
    for f in fdims:
        starts.append(off)
        off += f
    sj = summands[j]
    base_coords = tuple(range(m)) + tuple(range(starts[j], starts[j] + fdims[j]))
    fibre = sum(f for i, f in enumerate(fdims) if i != j)
    sq = e + fibre
    sq_starts = {}
    off2 = e
    for i, f in enumerate(fdims):
        if i != j:
            sq_starts[i] = off2
            off2 += f

    def bvars(dom: int) -> list[Polynomial]:
        return [Polynomial.variable(dom, k) for k in range(m)]

    def block(dom: int, i: int, start: int) -> list[Polynomial]:
        return [Polynomial.variable(dom, start + k) for k in range(fdims[i])]

    sigma_comps: list[Polynomial] = bvars(sq)
    for i, s in enumerate(summands):
        if i == j:
            sigma_comps.extend(block(sq, i, starts[i]))
        else:
            point = _subst(
                _assemble(s, sq, bvars(sq), block(sq, i, starts[i])),
                [Polynomial.variable(sq, k) for k in range(sq)],
            ) + block(sq, i, sq_starts[i])
            sigma_comps.extend(_subst(_sigma_fibre(s), point))
    sigma = PolyMap(sq, tuple(sigma_comps))

    # Build the canonical model's own injection for index j as the partial
    # zero section (its presented injection may live on a different total).
    ej = sj.total.dim
    qb = [Polynomial.variable(ej, p) for p in sj.base_coords]
    zeta_comps: list[Polynomial] = list(qb)
    for i, s in enumerate(summands):
        if i == j:
            zeta_comps.extend(Polynomial.variable(ej, p) for p in sj.fibre_coords)
        else:
            zeta_comps.extend(_subst(_zeta_fibre(s), qb))
    zeta = PolyMap(ej, tuple(zeta_comps))

    lift_comps: list[Polynomial] = bvars(e)
    for i, s in enumerate(summands):
        if i == j:
            lift_comps.extend(block(e, i, starts[i]))
        else:
            lift_comps.extend(_subst(_zeta_fibre(s), bvars(e)))
    lift_comps.extend(Polynomial.zero(e) for _ in range(m))
    for i, s in enumerate(summands):
        if i == j:
            lift_comps.extend(Polynomial.zero(e) for _ in range(fdims[i]))
        else:
            point = _assemble(s, e, bvars(e), block(e, i, starts[i]))
            lift_comps.extend(compose(point, _lift_tangent_fibre(s)).components)
    lift = PolyMap(e, tuple(lift_comps))

    total = Space.euclidean(e, "y")
    return DiffBundle(total, sj.total, base_coords, sigma, zeta, lift)


def partial_bundle(bp: BiproductBundle, j: int) -> PartialBundle:
    """The structure over the j-th summand that fixes its block and adds the rest."""
    if not 0 <= j < len(bp.summands):
        raise ShapeError(f"partial-bundle index {j} out of range")
    canon = _canonical_partial(bp, j)
    if selection_indices(bp.to_canonical) is not None:
        # canonical presentation: no transport needed beyond relabeling
        bundle = DiffBundle(
            bp.sum.total, canon.base, canon.base_coords, canon.sigma, canon.zeta, canon.lift
        )
    else:
        bundle = transport_bundle(canon, bp.to_canonical, bp.from_canonical, bp.sum.total)
    return PartialBundle(bundle=bundle, index=j)


def partial_add(f: PolyMap, g: PolyMap, bp: BiproductBundle, j: int) -> PolyMap:
    """Add two maps into the sum blockwise, holding the j-th block fixed."""
    if not 0 <= j < len(bp.summands):
        raise ShapeError(f"partial-addition index {j} out of range")
    fj, gj = compose(f, bp.projections[j]), compose(g, bp.projections[j])
    diff = first_difference(fj, gj)
    if diff is not None:
        raise ShapeError(f"operands disagree on the fixed block: {diff}")
    pb = partial_bundle(bp, j)
    b = pb.bundle
    return compose(power_pair(b.total.dim, b.base_coords, [f, g]), b.sigma)


def check_T_additive(f: PolyMap, g: PolyMap, src: DiffBundle, dst: DiffBundle) -> Report:
    """Check that applying T commutes with morphism addition and zero."""
    rep = Report(subject="tangent functor additivity")
    tsrc, tdst = tangent_of_bundle(src), tangent_of_bundle(dst)
    rep.check_equal(
        "addition",
        "T of a sum is the sum of the T-images",
        T_map(hom_add(f, g, src, dst)),
        hom_add(T_map(f), T_map(g), tsrc, tdst),
    )
    rep.check_equal(
        "zero",
        "T of the zero morphism is the zero morphism",
        T_map(hom_zero(src, dst)),
        hom_zero(tsrc, tdst),
    )
    return rep
