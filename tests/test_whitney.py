"""Hom-monoid laws, Whitney sums, recognition, and partial bundles."""

from fractions import Fraction
from itertools import permutations

import pytest

from tangentcat import polycore, whitney
from tangentcat.polycore import (
    Polynomial,
    PolyMap,
    ShapeError,
    compose,
    map_equal,
)
from tangentcat.tangent import Space
from tangentcat.dbundle import (
    bundle_difference,
    linear_morphism_report,
    tangent_bundle,
    tangent_of_bundle,
    transport_bundle,
    trivial_bundle,
    verify_bundle,
)
from tangentcat.whitney import (
    biproduct,
    biproduct_laws,
    partial_bundle,
    recognize_biproduct,
    verify_sum,
)
from tangentcat.report import Status


def x(arity, i):
    return Polynomial.variable(arity, i)


def small_bundles(n):
    base = Space.euclidean(n)
    return [tangent_bundle(base), trivial_bundle(base, 1), trivial_bundle(base, 2)]


# -------------------------------------------------------------- hom monoid


def test_zero_morphism_formula_and_linearity():
    """The zero morphism between bundles over one base is q then zeta'."""
    b = trivial_bundle(Space.euclidean(1), 1)
    zero = compose(b.q, b.zeta)
    assert zero == PolyMap.from_components(2, [x(2, 0), Polynomial.zero(2)])
    assert linear_morphism_report("zero", zero, PolyMap.identity(1), b, b).passed


def test_add_identity_with_itself():
    b = trivial_bundle(Space.euclidean(1), 1)
    doubled = b.add(PolyMap.identity(2), PolyMap.identity(2))
    assert doubled == PolyMap.from_components(2, [x(2, 0), x(2, 1).scale(2)])
    tm = tangent_bundle(Space.euclidean(1))
    assert tm.add(PolyMap.identity(2), PolyMap.identity(2)) == PolyMap.from_components(
        2, [x(2, 0), x(2, 1).scale(2)]
    )


def test_hom_monoid_laws():
    b = trivial_bundle(Space.euclidean(1), 2)
    e = b.total.dim
    f = PolyMap.from_components(e, [x(e, 0), x(e, 1).scale(2), x(e, 2)])
    g = PolyMap.from_components(e, [x(e, 0), x(e, 2), x(e, 1) + x(e, 2)])
    h = PolyMap.from_components(e, [x(e, 0), x(e, 1) * x(e, 0), x(e, 2).scale(-1)])
    zero = compose(b.q, b.zeta)
    assert b.add(f, g) == b.add(g, f)
    assert b.add(b.add(f, g), h) == b.add(f, b.add(g, h))
    assert b.add(f, zero) == f


# --------------------------------------------------------------- biproducts


def test_biproduct_laws_all_small_combinations():
    for n in (1, 2):
        pool = small_bundles(n)
        combos = [[pool[0]], [pool[0], pool[1]], [pool[0], pool[1], pool[2]]]
        for summands in combos:
            bp = biproduct(summands)
            assert biproduct_laws(bp).verdict is Status.PASS
            assert verify_bundle(bp.sum).verdict is Status.PASS


def test_biproduct_injection_formula():
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, tm])
    assert bp.sum.total.dim == 3
    assert bp.injections[0] == PolyMap.from_components(
        2, [x(2, 0), x(2, 1), Polynomial.zero(2)]
    )


def test_empty_biproduct_is_zero_fibre_bundle():
    base = Space.euclidean(2)
    bp = biproduct([], base=base)
    assert bp.sum.fibre_dim == 0
    assert biproduct_laws(bp).verdict is Status.PASS


def test_biproduct_base_mismatch():
    with pytest.raises(ShapeError):
        biproduct([tangent_bundle(Space.euclidean(1)), tangent_bundle(Space.euclidean(2))])


# -------------------------------------------------------------- recognition


def test_recognize_canonical_presentation():
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, tm])
    rep, got = recognize_biproduct(bp.sum.total, bp.projections, bp.summands)
    assert rep.verdict is Status.PASS
    assert got is not None
    assert bundle_difference(got.sum, bp.sum) is None


def test_recognize_permuted_blocks():
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tv, tv])
    perm = PolyMap.selection(3, [0, 2, 1])
    projections = [compose(perm, p) for p in bp.projections]
    rep, got = recognize_biproduct(bp.sum.total, projections, bp.summands)
    assert rep.verdict is Status.PASS
    assert got is not None
    assert map_equal(got.to_canonical, perm)
    assert biproduct_laws(got).verdict is Status.PASS


def test_recognize_mixed_fibre_coordinates():
    # (x, w1, w2) presented through (x, w1 + w2) and (x, w1 - w2): the
    # comparison map mixes the fibre coordinates, so only its linear part
    # shows how to invert it.
    tv = trivial_bundle(Space.euclidean(1), 1)
    total = biproduct([tv, tv]).sum.total
    projections = [
        PolyMap.from_components(3, [x(3, 0), x(3, 1) + x(3, 2)]),
        PolyMap.from_components(3, [x(3, 0), x(3, 1) - x(3, 2)]),
    ]
    rep, got = recognize_biproduct(total, projections, [tv, tv])
    assert rep.verdict is Status.PASS
    assert got is not None
    assert biproduct_laws(got).verdict is Status.PASS
    assert verify_bundle(got.sum).verdict is Status.PASS


@pytest.mark.parametrize(
    "first, second, refutation",
    [
        # (x, w1 + w2) twice: the linear part of the comparison map is singular
        (lambda: x(3, 1) + x(3, 2), lambda: x(3, 1) + x(3, 2), "the linear part J(0) = [1, 0, 0; 0, 1, 1; 0, 1, 1] is singular"),
        # (x, w1 (1 + x)) and (x, w2): det J = 1 + x is not constant
        (lambda: x(3, 1) * (Polynomial.constant(3, 1) + x(3, 0)), lambda: x(3, 2), "det J is 1 at (0, 0, 0) but 2 at (1, 2, 3)"),
    ],
    ids=["singular-linear-part", "det-J-not-constant"],
)
def test_recognize_refutes_a_comparison_map_without_inverse(first, second, refutation):
    tv = trivial_bundle(Space.euclidean(1), 1)
    total = biproduct([tv, tv]).sum.total
    projections = [
        PolyMap.from_components(3, [x(3, 0), first()]),
        PolyMap.from_components(3, [x(3, 0), second()]),
    ]
    rep, got = recognize_biproduct(total, projections, [tv, tv])
    assert rep.verdict is Status.FAIL
    assert got is None
    record = rep.records[-1]
    assert (record.name, record.status, record.witness) == ("comparison inversion", Status.FAIL, refutation)


def test_a_refuted_map_is_decided_once(monkeypatch):
    # det J is sampled once per refuted map: the witness comes from the one
    # inversion that failed, not from deciding the map again.
    calls = []
    sample = polycore._det_witness
    monkeypatch.setattr(polycore, "_det_witness", lambda f: calls.append(f) or sample(f))
    tv = trivial_bundle(Space.euclidean(1), 1)
    w = x(2, 1)
    # the dw slot of the lift is w + 3w^2: mu has det J = 1 + 6w
    mutant = tv.replace(lift=PolyMap(2, tv.lift.components[:3] + (w + (w * w).scale(3),)))
    checks = {r.name: r for r in verify_bundle(mutant).records}
    assert checks["axiom 4: shear inversion"].status is Status.FAIL
    assert len(calls) == 1
    projections = [
        PolyMap.from_components(3, [x(3, 0), x(3, 1) * (Polynomial.constant(3, 1) + x(3, 0))]),
        PolyMap.from_components(3, [x(3, 0), x(3, 2)]),
    ]
    rep, _ = recognize_biproduct(biproduct([tv, tv]).sum.total, projections, [tv, tv])
    assert rep.records[-1].status is Status.FAIL
    assert len(calls) == 2


def test_recognize_rejects_dropped_projection():
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tv, tv])
    rep, got = recognize_biproduct(bp.sum.total, [bp.projections[0]], [tv])
    assert rep.verdict is Status.FAIL
    assert got is None


@pytest.mark.parametrize(
    "count, summands, law, witness",
    [
        (2, 1, "one projection per summand", "2 projections for 1 summands"),
        (0, 0, "nonempty summand list", "no summands given"),
    ],
    ids=["projections-differ-from-summands", "no-summands"],
)
def test_recognize_rejects_an_arity_mismatch(count, summands, law, witness):
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tv, tv])
    rep, got = recognize_biproduct(bp.sum.total, bp.projections[:count], [tv] * summands)
    assert got is None
    assert [(r.name, r.law, r.status, r.witness) for r in rep.records] == [("arity", law, Status.FAIL, witness)]


def test_recognize_rejects_mismatched_bases():
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tv, tv])
    shifted = PolyMap.from_components(
        3, [x(3, 0) + Polynomial.constant(3, 1), x(3, 2)]
    )
    rep, got = recognize_biproduct(bp.sum.total, [bp.projections[0], shifted], [tv, tv])
    assert rep.verdict is Status.FAIL


def test_a_sum_off_standard_position_cannot_be_certified():
    # the common base map x -> 2x inverts, but it is not a coordinate selection
    tv = trivial_bundle(Space.euclidean(1), 1)
    projections = [PolyMap.from_components(3, [x(3, 0).scale(2), x(3, k)]) for k in (1, 2)]
    rep, got = recognize_biproduct(biproduct([tv, tv]).sum.total, projections, [tv, tv])
    assert got is None
    record = rep.records[-1]
    assert (record.name, record.status, record.witness) == (
        "standard position",
        Status.CANNOT_CERTIFY,
        "transported projection is not a coordinate selection",
    )


# ---------------------------------------------------------- partial bundles


def _with_tangent(b):
    """The summands of E x_M TM = E + TM, the domain of a horizontal map."""
    return [b, tangent_bundle(b.base)]


@pytest.mark.parametrize(
    "summands",
    [
        pytest.param(
            [tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 2),
             tangent_bundle(Space.euclidean(1))],
            id="tm-tv-tm",
        ),
        pytest.param(_with_tangent(tangent_bundle(Space.euclidean(1))), id="TR1-TM"),
        pytest.param(_with_tangent(tangent_bundle(Space.euclidean(2))), id="TR2-TM"),
        pytest.param(_with_tangent(trivial_bundle(Space.euclidean(2), 1)), id="R2xR-TM"),
        # T(TM) has base coordinates (0, 2), not leading ones.
        pytest.param([tangent_of_bundle(tangent_bundle(Space.euclidean(1)))] * 2, id="TTM-TTM"),
    ],
)
def test_partial_bundles_verify_and_match_injections(summands):
    bp = biproduct(summands)
    for j in range(len(summands)):
        pb = partial_bundle(bp, j)
        assert verify_bundle(pb).verdict is Status.PASS
        assert map_equal(pb.zeta, bp.injections[j])
        assert map_equal(pb.q, bp.projections[j])


def test_partials_of_a_permuted_presentation():
    tv = trivial_bundle(Space.euclidean(1), 1)
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tv, tm])
    perm = PolyMap.selection(3, [0, 2, 1])
    rep, got = recognize_biproduct(bp.sum.total, [compose(perm, p) for p in bp.projections], bp.summands)
    assert got is not None
    for j in range(2):
        pb = partial_bundle(got, j)
        assert map_equal(pb.q, got.projections[j])
        assert map_equal(pb.zeta, got.injections[j])
        assert verify_bundle(pb).verdict is Status.PASS


def test_first_partial_of_double_tangent():
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, tm])
    pb = partial_bundle(bp, 0)
    assert pb.base.dim == 2
    assert pb.base_coords == (0, 1)
    # addition acts on the second block only
    assert pb.sigma == PolyMap.from_components(
        4, [x(4, 0), x(4, 1), x(4, 2) + x(4, 3)]
    )


def test_single_summand_partial_is_identity_like():
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm])
    pb = partial_bundle(bp, 0)
    assert pb.fibre_dim == 0
    assert verify_bundle(pb).verdict is Status.PASS


@pytest.mark.parametrize(
    "summands",
    [
        [tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 2)],
        _with_tangent(trivial_bundle(Space.euclidean(2), 1)),
        [tangent_of_bundle(tangent_bundle(Space.euclidean(1)))] * 2,
    ],
    ids=["TR-R1xR2", "R2xR-TM", "TTM-TTM"],
)
def test_partials_of_a_built_sum_are_the_model_partials(summands):
    """Transport along the identity comparison map gives the model's partial bundle."""
    bp = biproduct(summands)
    for j in range(len(summands)):
        assert partial_bundle(bp, j) == whitney.concatenated(bp.summands, bp.sum.base, fixed=j)


def test_partial_index_out_of_range():
    bp = biproduct([tangent_bundle(Space.euclidean(1))])
    with pytest.raises(ShapeError):
        partial_bundle(bp, 1)


# ----------------------------------------------------------- partial addition


def _endo(bp, i):
    return compose(bp.projections[i], bp.injections[i])


def _keep(bp, indices):
    acc = compose(bp.sum.q, bp.sum.zeta)
    for i in indices:
        acc = bp.sum.add(acc, _endo(bp, i))
    return acc


def test_partial_bundle_add_blockwise_formula():
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, tm, tm])
    f = PolyMap.identity(4)
    g = PolyMap.identity(4)
    summed = partial_bundle(bp, 1).add(f, g)
    assert summed == PolyMap.from_components(
        4, [x(4, 0), x(4, 1).scale(2), x(4, 2), x(4, 3).scale(2)]
    )


def test_partial_bundle_add_requires_agreement_on_fixed_block():
    """Maps that differ on the fixed block lie over different base points
    of the partial bundle, so they cannot be paired into its fibre square."""
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, tm])
    f = PolyMap.identity(3)
    g = PolyMap.from_components(3, [x(3, 0), x(3, 1) + x(3, 2), x(3, 2) + x(3, 2)])
    with pytest.raises(ShapeError):
        partial_bundle(bp, 1).add(f, g)


def test_injection_sum_lemma_every_index():
    """Adding the two foreign projection-injection composites while fixing
    block j reproduces the composite through the two-summand sub-sum."""
    tm = tangent_bundle(Space.euclidean(1))
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tm, tv, tm])
    for j in range(3):
        i, k = (t for t in range(3) if t != j)
        lhs = partial_bundle(bp, j).add(_endo(bp, i), _endo(bp, k))
        assert map_equal(lhs, _keep(bp, [i, k]))


def test_identity_resolution_lemma_every_enumeration():
    """For every enumeration (i, j, k), the two sub-sum composites add up to
    the identity under addition that fixes block i."""
    tm = tangent_bundle(Space.euclidean(1))
    tv = trivial_bundle(Space.euclidean(1), 1)
    bp = biproduct([tm, tv, tm])
    for i, j, k in permutations(range(3)):
        lhs = partial_bundle(bp, i).add(_keep(bp, [i, k]), _keep(bp, [i, j]))
        assert map_equal(lhs, PolyMap.identity(bp.sum.total.dim))



# ------------------------------------------------ axioms of a presented sum


def _presented(summands):
    """biproduct(summands) with its sum transported along a triangular psi."""
    bp = biproduct(summands)
    v = [x(3, i) for i in range(3)]
    psi = PolyMap.from_components(3, [v[0], v[1].scale(-1) - v[0] * v[0], v[2].scale(2) + v[1] + v[0]])
    psi_inv = PolyMap.from_components(
        3, [v[0], v[1].scale(-1) - v[0] * v[0], (v[2] - v[0] + v[1] + v[0] * v[0]).scale(Fraction(1, 2))]
    )
    assert map_equal(compose(psi, psi_inv), PolyMap.identity(3))
    return bp.replace(to_canonical=psi, from_canonical=psi_inv)


def _spy_on_verify_bundle(monkeypatch):
    seen = []

    def spy(b):
        seen.append(b)
        return verify_bundle(b)

    monkeypatch.setattr(whitney, "verify_bundle", spy)
    return seen


def test_a_passing_sum_is_decided_on_its_model(monkeypatch):
    bp = _presented([tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 1)])
    expected = verify_bundle(bp.sum)
    assert expected.passed
    seen = _spy_on_verify_bundle(monkeypatch)
    assert verify_sum(bp).to_dict() == expected.to_dict()
    assert len(seen) == 1 and seen[0] is not bp.sum
    assert bundle_difference(seen[0], biproduct(bp.summands).sum) is None


def test_the_model_itself_is_verified_once(monkeypatch):
    bp = biproduct([tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 2)])
    seen = _spy_on_verify_bundle(monkeypatch)
    assert verify_sum(bp).passed
    assert seen == [bp.sum]


@pytest.mark.parametrize("perturb", [False, True], ids=["passing", "perturbed-sigma"])
def test_a_built_sum_is_reported_as_its_own_bundle(perturb):
    tr = tangent_bundle(Space.euclidean(1))
    if perturb:
        sigma = PolyMap.from_components(3, [x(3, 0), x(3, 1) + x(3, 2) + x(3, 1) * x(3, 2)])
        tr = tr.replace(sigma=sigma)
    bp = biproduct([tr, trivial_bundle(Space.euclidean(1), 1)])
    report = verify_sum(bp)
    assert report.passed is not perturb
    assert report.to_dict() == verify_bundle(bp.sum).to_dict()


def test_a_failing_sum_is_reported_on_its_own_coordinates(monkeypatch):
    tr = tangent_bundle(Space.euclidean(1))
    lift = PolyMap.from_components(2, [x(2, 0), x(2, 1), Polynomial.zero(2), x(2, 1) * x(2, 1)])
    bp = _presented([tr.replace(lift=lift), trivial_bundle(Space.euclidean(1), 1)])
    model = verify_bundle(biproduct(bp.summands).sum)
    expected = verify_bundle(bp.sum)
    assert model.verdict is expected.verdict is Status.FAIL
    # the witnesses name coordinates, so the model's report is not the sum's
    assert model.to_dict() != expected.to_dict()
    seen = _spy_on_verify_bundle(monkeypatch)
    assert verify_sum(bp).to_dict() == expected.to_dict()
    assert len(seen) == 2 and seen[1] is bp.sum


# ------------------------------------------------- the sum, built when read


def _comparison(presentation, summands):
    """psi and its inverse for a permuted or a triangular presentation of a 3-dimensional sum."""
    if presentation == "permuted":
        perm = PolyMap.selection(3, [0, 2, 1])
        return perm, perm
    bp = _presented(summands)
    return bp.to_canonical, bp.from_canonical


def _spy_on_transport(monkeypatch):
    moves = []
    transport = whitney.transport_bundle
    monkeypatch.setattr(whitney, "transport_bundle", lambda *args: moves.append(args) or transport(*args))
    return moves


@pytest.mark.parametrize("presentation", ["permuted", "triangular"])
def test_a_recognized_sum_is_transported_when_read(presentation, monkeypatch):
    summands = [tangent_bundle(Space.euclidean(1)), trivial_bundle(Space.euclidean(1), 1)]
    canon = biproduct(summands)
    psi, psi_inv = _comparison(presentation, summands)
    moves = _spy_on_transport(monkeypatch)
    rep, got = recognize_biproduct(canon.total, [compose(psi, p) for p in canon.projections], summands)
    assert rep.verdict is Status.PASS and moves == []
    assert map_equal(got.to_canonical, psi)
    eager = transport_bundle(canon.sum, psi, psi_inv, canon.total)
    assert bundle_difference(got.sum, eager) is None
    assert got.sum is got.sum and len(moves) == 1


def test_a_failing_law_is_reported_on_the_presented_sum():
    # zeta puts the fibre's zero at w = x: the resolution of identity fails,
    # with a witness on the presented coordinates that is not the model's
    tv = trivial_bundle(Space.euclidean(1), 1)
    summands = [tv.replace(zeta=PolyMap.from_components(1, [x(1, 0), x(1, 0)])), tangent_bundle(Space.euclidean(1))]
    canon = biproduct(summands)
    psi, psi_inv = _comparison("triangular", summands)
    projections = tuple(compose(psi, p) for p in canon.projections)
    rep, got = recognize_biproduct(canon.total, projections, summands)
    presented = canon.replace(
        projections=projections,
        injections=tuple(compose(inj, psi_inv) for inj in canon.injections),
        to_canonical=psi,
        from_canonical=psi_inv,
    )
    expected = biproduct_laws(presented)
    assert expected.verdict is Status.FAIL and got is None
    assert expected.to_dict() != biproduct_laws(canon).to_dict()
    checks = rep.to_dict()["checks"]
    assert checks[-len(expected.records):] == expected.to_dict()["checks"]
