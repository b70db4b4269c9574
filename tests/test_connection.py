"""Connection axioms, effectiveness, derived horizontals, and equivalences."""

import hashlib
import random
from fractions import Fraction

import pytest

from tangentcat.polycore import (
    BudgetExceeded,
    NotInvertible,
    Polynomial,
    PolyMap,
    ShapeError,
    compose,
    eval_map,
    map_equal,
)
from tangentcat.tangent import Space, T_map, T_obj, proj_p
from tangentcat import serialize
from tangentcat.dbundle import DiffBundle, bundle_difference, tangent_bundle, trivial_bundle, verify_bundle
from tangentcat.whitney import biproduct, partial_bundle, recognize_biproduct
from tangentcat.connection import (
    Connection,
    _effectiveness,
    _partials_by_additivity,
    canonical_connection,
    check_effective,
    check_horizontal,
    check_pair,
    check_vertical,
    christoffel_connection,
    decompose_point,
    derive_horizontal,
    equivalence_suite,
    verify_connection,
)
from tangentcat.report import Report, Status


def x(arity, i):
    return Polynomial.variable(arity, i)


def random_christoffel(n, rng):
    """A Christoffel table with coefficient polynomials of degree <= 2."""
    def coeff():
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = tuple(
                rng.choice([0, 1, 2]) if rng.random() < 0.7 else 0 for _ in range(n)
            )
            if sum(exps) > 2:
                exps = tuple(0 for _ in range(n))
            terms[exps] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        return Polynomial.from_terms(n, terms)

    table = tuple(
        tuple(tuple(coeff() for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    return christoffel_connection(Space.euclidean(n), table)


# ----------------------------------------------------------------- vertical


def test_canonical_vertical_passes():
    for n in (1, 2, 3):
        assert check_vertical(canonical_connection(n)).verdict is Status.PASS


def test_christoffel_vertical_passes():
    c = christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))
    assert check_vertical(c).verdict is Status.PASS


def test_nonadditive_K_fails_vertical():
    b = tangent_bundle(Space.euclidean(1))
    k = PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1) * x(4, 1)])
    report = check_vertical(Connection(bundle=b, K=k))
    assert report.verdict is Status.FAIL


def test_nonretraction_K_fails_vertical():
    b = tangent_bundle(Space.euclidean(1))
    k = PolyMap.from_components(4, [x(4, 0), x(4, 3).scale(2)])
    report = check_vertical(Connection(bundle=b, K=k))
    assert report.verdict is Status.FAIL
    assert "retraction" in {r.name for r in report.failing()}


def _shear_bundle():
    """The trivial bundle R x R^2 transported along psi = (x0, x1 + x0^2, x2 + x1^2)."""
    from tangentcat.dbundle import transport_bundle
    from tangentcat.polycore import invert_polymap

    b = trivial_bundle(Space.euclidean(1), 2)
    y0, y1, y2 = (x(3, i) for i in range(3))
    psi = PolyMap(3, (y0, y1 + y0 * y0, y2 + y1 * y1))
    return transport_bundle(b, psi, invert_polymap(psi), b.total)


@pytest.mark.parametrize(
    "name, builds",
    [("canonical", 0), ("christoffel", 0), ("K-mutant", 0), ("shear bundle", 1)],
)
def test_check_vertical_builds_T_of_K_at_most_once(name, builds, monkeypatch):
    """Both lift squares take T(K) after a lift.  On a tangent bundle both
    lifts are padded selections, so the squares are fused and T(K) is never
    built.  On the shear bundle T(b)'s lift is not one, so T(K) is built
    once; the square over the bundle projection, whose lift is lift_l, is
    still fused."""
    import tangentcat.connection as connection
    import tangentcat.dbundle as dbundle
    import tangentcat.tangent as tangent

    if name == "shear bundle":
        c = Connection(bundle=_shear_bundle(), K=PolyMap(6, (x(6, 0), x(6, 4) + x(6, 1) * x(6, 3), x(6, 5))))
    else:
        k = christoffel_connection(Space.euclidean(2), (((x(2, 0), x(2, 1)),) * 2,) * 2).K
        if name == "canonical":
            k = canonical_connection(2).K
        elif name == "K-mutant":
            k = PolyMap(8, k.components[:3] + (k.components[3] + x(8, 5) * x(8, 6),))
        c = Connection(bundle=tangent_bundle(Space.euclidean(2)), K=k)
    built = []
    T_map = tangent.T_map

    def counted(f):
        built.append(f is c.K)
        return T_map(f)

    for module in (tangent, dbundle, connection):
        monkeypatch.setattr(module, "T_map", counted)
    check_vertical(c)
    assert sum(built) == builds
    if name == "shear bundle":
        assert any(p.terms and p.bare is None for p in c.bundle.tangent.lift.components)


# --------------------------------------------------------------- horizontal


def test_canonical_horizontal_passes():
    for n in (1, 2):
        assert check_horizontal(canonical_connection(n)).verdict is Status.PASS


def test_perturbed_horizontal_fails():
    c = canonical_connection(1)
    bad_h = PolyMap.from_components(3, [x(3, 0), x(3, 1), x(3, 2), x(3, 1) * x(3, 1)])
    report = check_horizontal(Connection(bundle=c.bundle, K=c.K, H=bad_h))
    assert report.verdict is Status.FAIL


def test_rival_horizontal_fails_pair_with_wrong_K():
    # (x, t, u) -> (x, t, u, t*u) is the horizontal map of a different
    # connection; it passes the standalone horizontal checks but clashes
    # with the flat vertical map in the joint decomposition identity.
    c = canonical_connection(1)
    rival_h = PolyMap.from_components(3, [x(3, 0), x(3, 1), x(3, 2), x(3, 1) * x(3, 2)])
    mixed = Connection(bundle=c.bundle, K=c.K, H=rival_h)
    assert check_horizontal(mixed).verdict is Status.PASS
    assert check_pair(mixed).verdict is Status.FAIL


def test_missing_horizontal_reported():
    c = canonical_connection(1)
    report = check_horizontal(Connection(bundle=c.bundle, K=c.K))
    assert report.verdict is Status.FAIL


def test_swapped_factor_H_is_shape_error():
    c = canonical_connection(2)
    # E x_M TM for n = 2 has dimension 6 but a swapped-factor H built for a
    # different bundle shape cannot even be attached to the connection.
    with pytest.raises(ShapeError):
        Connection(bundle=c.bundle, K=c.K, H=PolyMap.identity(4))


# --------------------------------------------------------------------- pair


def test_canonical_pair_passes():
    for n in (1, 2):
        assert check_pair(canonical_connection(n)).verdict is Status.PASS


def test_pair_without_H_fails_its_presence_record():
    c = canonical_connection(1)
    report = check_pair(c.replace(H=None))
    assert [(r.name, r.status, r.witness) for r in report.records] == [("presence", Status.FAIL, "no H given")]


def test_pair_compatibility_fails_with_wrong_H():
    c = canonical_connection(1)
    bad_h = PolyMap.from_components(3, [x(3, 0), x(3, 1), x(3, 2), x(3, 2)])
    report = check_pair(Connection(bundle=c.bundle, K=c.K, H=bad_h))
    assert report.verdict is Status.FAIL
    assert "compatibility" in {r.name for r in report.failing()}


# ------------------------------------------------------------- effectiveness


def test_canonical_effective_and_decomposition():
    c = canonical_connection(1)
    report, decomp = check_effective(c)
    assert report.verdict is Status.PASS
    assert decomp is not None
    assert map_equal(decomp.biproduct.to_canonical, PolyMap.identity(4))
    assert verify_bundle(decomp.biproduct.sum).verdict is Status.PASS


def test_effectiveness_gated_on_vertical():
    b = tangent_bundle(Space.euclidean(1))
    k = PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 3) * x(4, 1) * x(4, 2)])
    report, decomp = check_effective(Connection(bundle=b, K=k))
    assert decomp is None
    assert report.verdict is Status.FAIL
    assert report.records[0].name == "gate"


def test_christoffel_effective():
    c = christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))
    report, decomp = check_effective(c)
    assert report.verdict is Status.PASS
    assert decomp is not None


def _digest(bundle):
    return hashlib.sha256(serialize.dumps(serialize.bundle_to_json(bundle)).encode()).hexdigest()


def test_partial_bundle_bytes_are_pinned():
    # Serialized partial bundles of a plain three-summand sum and of the
    # decomposition of a seeded Christoffel connection, pinned byte for byte.
    tm = tangent_bundle(Space.euclidean(1))
    bp = biproduct([tm, trivial_bundle(Space.euclidean(1), 2), tm])
    assert [_digest(partial_bundle(bp, j)) for j in range(3)] == [
        "a94d3423f7e6c4f9394ab7cc4f49701b5fd9ae90ee2163695d71146239335ed5",
        "a68de13ef328bcb53613af4fb7e116b2e6589a9d89b24bb556a2495c97db7254",
        "4b0ade4fcb8e1bfd0e6adbeabcd7e576782dd523452a1852199cd6c537279876",
    ]
    _, decomp = check_effective(random_christoffel(2, random.Random(3)))
    assert [_digest(partial_bundle(decomp.biproduct, j)) for j in range(2)] == [
        "8b085302a17c3793783d7207a0c1795d08ae4141112ca21a88bf8b5886a9dc0c",
        "b77af603516342eddc0823e66493899f4060494c7182a135347f1b4cf86d100c",
    ]


def _perturbed_connection(c, rng):
    """c with one monomial c y or c y z added to one component of K, sigma, zeta or lift.

    Half the K perturbations add a Christoffel-shaped term g(x) t_i u_j to a
    fibre component, which keeps the vertical gate passing.
    """
    field = rng.choice(("K", "sigma", "zeta", "lift"))
    b = c.bundle
    m = c.K if field == "K" else getattr(b, field)
    comps = list(m.components)
    k = rng.randrange(len(comps))
    dom = m.domain_dim
    coeff = rng.choice((-2, -1, Fraction(1, 2), 1, 3))
    if field == "K" and rng.random() < 0.5:
        n = b.base.dim
        k = n + rng.randrange(n)
        term = x(dom, n + rng.randrange(n)) * x(dom, 2 * n + rng.randrange(n))
        if rng.random() < 0.5:
            term = term * x(dom, rng.randrange(n))
    else:
        term = x(dom, rng.randrange(dom))
        if rng.random() < 0.5:
            term = term * x(dom, rng.randrange(dom))
    comps[k] = comps[k] + term.scale(coeff)
    moved = PolyMap(dom, tuple(comps))
    if field == "K":
        return Connection(bundle=b, K=moved)
    return Connection(bundle=b.replace(**{field: moved}), K=c.K)


SWEEP_MODELS = {
    "canonical n=1": lambda rng: canonical_connection(1),
    "canonical n=2": lambda rng: canonical_connection(2),
    "canonical n=3": lambda rng: canonical_connection(3),
    "christoffel n=1": lambda rng: random_christoffel(1, rng),
    "christoffel n=2": lambda rng: random_christoffel(2, rng),
}


@pytest.mark.parametrize("shortcut", [True, False], ids=["shortcut", "composites"])
@pytest.mark.parametrize("name", sorted(SWEEP_MODELS))
def test_partials_decided_by_additivity_agree_with_transport(name, shortcut, monkeypatch):
    """Where K's additivity decides the two partial-bundle records, the
    partial bundles transported along theta^-1 pass, and the records are
    the transported comparison's, byte for byte, in every case.  Additivity
    is decided by its fibrewise shortcut or, with that turned off, by its
    composites."""
    if not shortcut:
        monkeypatch.setattr(DiffBundle, "adds_fibrewise", property(lambda self: False))
    rng = random.Random(f"partials {name}")
    decided = fallback = 0
    for case in range(60):
        c = SWEEP_MODELS[name](rng)
        if case % 6:
            c = _perturbed_connection(c, rng)
        vert = check_vertical(c)
        if not vert.passed:
            continue
        b = c.bundle
        _, recognized = recognize_biproduct(
            T_obj(b.total), (proj_p(b.total), T_map(b.q), c.K), (b, tangent_bundle(b.base), b)
        )
        if recognized is None:
            continue
        moved = [
            bundle_difference(partial_bundle(recognized, 0), tangent_bundle(b.total)),
            bundle_difference(partial_bundle(recognized, 1), b.tangent),
        ]
        if _partials_by_additivity(c):
            decided += 1
            assert moved == [None, None], (case, c)
        else:
            fallback += 1
        records = {r.name: r for r in _effectiveness(c, vert)[0].records}
        got = [records[f"{which} partial bundle"] for which in ("first", "second")]
        assert [(r.status, r.witness) for r in got] == [
            (Status.PASS, None) if d is None else (Status.FAIL, d) for d in moved
        ], (case, c)
    assert decided and fallback


# ------------------------------------------------------- derived horizontals


def test_derive_horizontal_canonical():
    c = canonical_connection(1)
    derived = derive_horizontal(Connection(bundle=c.bundle, K=c.K))
    assert map_equal(derived.H, c.H)


def test_derive_horizontal_christoffel_formula():
    c = christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))
    derived = derive_horizontal(c)
    expected = PolyMap.from_components(
        3, [x(3, 0), x(3, 1), x(3, 2), -(x(3, 0) * x(3, 1) * x(3, 2))]
    )
    assert map_equal(derived.H, expected)
    assert check_horizontal(derived).verdict is Status.PASS
    assert check_pair(derived).verdict is Status.PASS


def test_derive_horizontal_zero_table_is_canonical():
    zero = Polynomial.zero(1)
    c = christoffel_connection(Space.euclidean(1), (((zero,),),))
    derived = derive_horizontal(c)
    assert map_equal(derived.H, canonical_connection(1).H)


def test_derive_horizontal_requires_effectiveness():
    b = tangent_bundle(Space.euclidean(1))
    k = PolyMap.from_components(4, [x(4, 0), x(4, 3).scale(2)])
    with pytest.raises(ShapeError):
        derive_horizontal(Connection(bundle=b, K=k))


# ------------------------------------------ horizontal maps forced by K


def christoffel_of_degree(n, degree, rng):
    """A Christoffel table whose nonzero entries are c x^a with |a| = degree."""
    def coeff():
        if rng.random() < 0.3:
            return Polynomial.zero(n)
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        coefficient = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
        return Polynomial.from_terms(n, {tuple(exps): coefficient})

    table = tuple(
        tuple(tuple(coeff() for _ in range(n)) for _ in range(n)) for _ in range(n)
    )
    return christoffel_connection(Space.euclidean(n), table)


def _perturbed_block(c, block, rng):
    """c.H with a monomial added to one component of its x, w, u or v block."""
    b, h = c.bundle, c.H
    e, m = b.total.dim, b.base.dim
    span = {"x": range(m), "w": range(m, e), "u": range(e, e + m), "v": range(e + m, 2 * e)}[block]
    comps = list(h.components)
    k = rng.choice(span)
    dom = h.domain_dim
    term = x(dom, rng.randrange(dom))
    if rng.random() < 0.5:
        term = term * x(dom, rng.randrange(dom))
    comps[k] = comps[k] + term.scale(rng.choice((-2, -1, Fraction(1, 2), 1, 3)))
    return c.replace(H=PolyMap(dom, tuple(comps)))


def _christoffel_family(n, degree):
    """Seeded Christoffel connections with H absent, derived, and perturbed in each block."""
    rng = random.Random(f"forced n={n} degree={degree}")
    for _ in range(3):
        c = christoffel_of_degree(n, degree, rng)
        derived = derive_horizontal(c)
        yield c
        yield derived
        for block in "xwuv":
            yield _perturbed_block(derived, block, rng)


FORCED_MODELS = {
    **{
        f"christoffel n={n} degree={d}": (lambda n=n, d=d: _christoffel_family(n, d))
        for n in (1, 2, 3)
        for d in (0, 1, 2)
    },
    **{
        f"canonical n={n}": (lambda n=n: (canonical_connection(n), canonical_connection(n).replace(H=None)))
        for n in (1, 2, 3)
    },
    # the rival horizontal map of test_rival_horizontal_fails_pair_with_wrong_K
    "rival": lambda: (
        canonical_connection(1).replace(
            H=PolyMap.from_components(3, [x(3, 0), x(3, 1), x(3, 2), x(3, 1) * x(3, 2)]),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(FORCED_MODELS))
def test_forced_horizontal_records_equal_the_computed_ones(name):
    """verify_connection decides the horizontal and pair records of an absent
    H, or of H = iota_12 theta^-1, without computing them; its report is the
    fully computed one byte for byte, and every other H fails "section" or
    "compatibility" (the uniqueness half of the proof)."""
    for c in FORCED_MODELS[name]():
        report, decomp = verify_connection(c)
        assert decomp is not None
        derived = decomp.horizontal
        full = c if c.H is not None else c.replace(H=derived)
        expected = Report(subject="connection gate")
        expected.extend(check_vertical(c), prefix="vertical: ")
        expected.extend(check_effective(c)[0], prefix="effectiveness: ")
        horizontal, pair = check_horizontal(full), check_pair(full)
        expected.extend(horizontal, prefix="horizontal: ")
        expected.extend(pair, prefix="pair: ")
        assert serialize.dumps(report.to_dict()) == serialize.dumps(expected.to_dict()), c
        assert report.render_text() == expected.render_text()
        if not map_equal(full.H, derived):
            failing = {r.name for r in (*horizontal.failing(), *pair.failing())}
            assert failing & {"section", "compatibility"}, (c, failing)


# ------------------------------------------------------------- constructors


def test_christoffel_rejects_bad_table():
    with pytest.raises(ShapeError):
        christoffel_connection(Space.euclidean(2), (((x(2, 0),),),))
    with pytest.raises(ShapeError):
        christoffel_connection(Space.euclidean(1), (((x(2, 0),),),))


def test_christoffel_asymmetric_table_is_vertical():
    n = 2
    zero = Polynomial.zero(n)
    one = Polynomial.constant(n, 1)
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    table[0][0][1] = one
    table[0][1][0] = -one
    c = christoffel_connection(Space.euclidean(n), tuple(tuple(tuple(r) for r in p) for p in table))
    assert check_vertical(c).verdict is Status.PASS
    report, decomp = check_effective(c)
    assert report.verdict is Status.PASS and decomp is not None


def test_canonical_connection_on_trivial_like_bundle():
    c = canonical_connection(2)
    assert c.K == PolyMap.selection(8, [0, 1, 6, 7])


# --------------------------------------------------------- point operations


def _recompose(decomp, parts):
    """The point of TE with these three components: theta^-1 of (x, w, u, k)."""
    first, second, third = parts
    m = decomp.biproduct.summands[0].base.dim
    return eval_map(decomp.biproduct.from_canonical, list(first + second[m:] + third[m:]))


def test_decompose_point_canonical():
    _, decomp = check_effective(canonical_connection(1))
    triple = decompose_point(decomp, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert triple == ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3)), (Fraction(1), Fraction(4)))
    assert _recompose(decomp, triple) == (1, 2, 3, 4)


def test_decompose_point_christoffel():
    c = christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))
    _, decomp = check_effective(c)
    triple = decompose_point(decomp, [Fraction(1), Fraction(2), Fraction(3), Fraction(4)])
    assert triple[2] == (Fraction(1), Fraction(10))
    assert _recompose(decomp, triple) == (1, 2, 3, 4)


# ---------------------------------------------------------------- equivalence


def test_equivalence_suite_passes_on_good_instances():
    for c in (canonical_connection(1), christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))):
        report = equivalence_suite(c)
        assert report.verdict is Status.PASS


def test_equivalence_suite_fails_coherently_on_mutations():
    b = tangent_bundle(Space.euclidean(1))
    mutations = [
        PolyMap.from_components(4, [x(4, 0), x(4, 3).scale(2)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1) * x(4, 1)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 2)]),
        PolyMap.from_components(4, [x(4, 0) + x(4, 1), x(4, 3)]),
    ]
    for k in mutations:
        report = equivalence_suite(Connection(bundle=b, K=k))
        legs = [r for r in report.records if "presentation" in r.name]
        assert len(legs) == 4
        assert all(r.status is Status.FAIL for r in legs)


@pytest.mark.parametrize("budget, status", [(False, Status.FAIL), (True, Status.CANNOT_CERTIFY)])
def test_equivalence_suite_legs_carry_the_pairing_inversion_record(monkeypatch, budget, status):
    """When theta does not invert, each of the four legs is the effectiveness
    report's "pairing inversion" record under the leg's name: a refutation
    fails with its witness, an exhausted budget is cannot-certify.  No
    connection in these tests passes the vertical gate with a theta that
    does not invert, so the inverter is made to raise."""
    import tangentcat.whitney as whitney

    def no_inverse(f):
        raise (BudgetExceeded if budget else NotInvertible)("no inverse: stated for the test")

    monkeypatch.setattr(whitney, "invert_polymap", no_inverse)
    c = canonical_connection(1)
    report, decomp = check_effective(c)
    assert decomp is None
    assert [(r.name, r.status) for r in report.records] == [("gate", Status.PASS), ("pairing inversion", status)]
    legs = [r for r in equivalence_suite(c).records if "presentation" in r.name]
    assert [(r.name, r.status, r.witness) for r in legs] == [
        (name, status, "no inverse: stated for the test")
        for name in ("pair presentation", "effective presentation", "sum presentation", "product presentation")
    ]


def test_equivalence_suite_random_christoffel():
    rng = random.Random(7)
    for n in (1, 2):
        c = random_christoffel(n, rng)
        assert equivalence_suite(c).verdict is Status.PASS


# ------------------------------------------------------------- miscellaneous


def test_connection_requires_base_first_coordinates():
    b = trivial_bundle(Space.euclidean(1), 1)
    from tangentcat.dbundle import DiffBundle

    flipped = DiffBundle(
        b.total,
        b.base,
        (1,),
        PolyMap.from_components(3, [x(3, 0) + x(3, 2), x(3, 1)]),
        PolyMap.from_components(1, [Polynomial.zero(1), x(1, 0)]),
        PolyMap.from_components(2, [Polynomial.zero(2), x(2, 1), x(2, 0), Polynomial.zero(2)]),
    )
    with pytest.raises(ShapeError):
        Connection(bundle=flipped, K=PolyMap.selection(4, [0, 1]))
