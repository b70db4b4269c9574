"""Acceptance gate: one test per shipping criterion, each printing a verdict line.

All comparisons are exact (tolerance zero); the only numeric bounds are the
wall-clock budgets stated inline.  Expected values are constructed from
explicit coordinate formulas, independently of the engine code under test.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from tangentcat import serialize
from tangentcat.polycore import Polynomial, PolyMap, compose, eval_map, map_equal
from tangentcat.report import Status
from tangentcat.tangent import Space
from tangentcat.dbundle import (
    bundle_difference,
    check_tangent_axioms,
    tangent_bundle,
    tangent_of_bundle,
    trivial_bundle,
)
from tangentcat.whitney import biproduct, biproduct_laws, partial_bundle
from tangentcat.connection import (
    Connection,
    canonical_connection,
    check_effective,
    check_horizontal,
    check_pair,
    check_vertical,
    christoffel_connection,
    decompose_point,
    derive_horizontal,
)


def _verdict(criterion, ok):
    print(f"criterion {criterion}: {'pass' if ok else 'fail'}")
    assert ok, f"criterion {criterion} failed"


def x(arity, i):
    return Polynomial.variable(arity, i)


def _random_table(n, rng):
    """A Christoffel table whose entries have total degree at most 2."""
    def coeff():
        exps = [0] * n
        budget = rng.randint(0, 2)
        for _ in range(budget):
            exps[rng.randrange(n)] += 1
        return Polynomial.from_terms(
            n, {tuple(exps): Fraction(rng.randint(-3, 3), rng.randint(1, 3))}
        )

    return tuple(
        tuple(tuple(coeff() for _ in range(n)) for _ in range(n)) for _ in range(n)
    )


_INSTANCES = None


def instances():
    """Canonical flat connections plus ten seeded random Christoffel ones."""
    global _INSTANCES
    if _INSTANCES is None:
        rng = random.Random(20260826)
        out = [canonical_connection(1), canonical_connection(2)]
        while len(out) < 12:
            n = rng.choice([1, 2])
            out.append(christoffel_connection(Space.euclidean(n), _random_table(n, rng)))
        _INSTANCES = tuple(out)
    return _INSTANCES


def test_criterion_1_tangent_axioms_dims_1_to_3():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        report = check_tangent_axioms(Space.euclidean(n))
        ok = ok and report.verdict is Status.PASS and len(report.records) == 7
    elapsed = time.perf_counter() - start
    _verdict(1, ok and elapsed < 5.0)


def test_criterion_2_canonical_maps_byte_identical():
    c = canonical_connection(1)
    _, decomp = check_effective(c)
    tb = decomp.total

    def frozen(dom, comps):
        return serialize.dumps(serialize.map_to_json(PolyMap.from_components(dom, comps)))

    def got(m):
        return serialize.dumps(serialize.map_to_json(m))

    zero7 = Polynomial.zero(7)
    expectations = [
        (got(c.K), frozen(4, [x(4, 0), x(4, 3)])),
        (got(c.H), frozen(3, [x(3, 0), x(3, 1), x(3, 2), Polynomial.zero(3)])),
        (
            got(tb.sigma),
            frozen(7, [x(7, 0), x(7, 1) + x(7, 4), x(7, 2) + x(7, 5), x(7, 3) + x(7, 6)]),
        ),
        (
            got(tb.zeta),
            frozen(1, [x(1, 0)] + [Polynomial.zero(1)] * 3),
        ),
        (
            got(tb.lift),
            frozen(4, [x(4, 0)] + [Polynomial.zero(4)] * 4 + [x(4, 1), x(4, 2), x(4, 3)]),
        ),
        (got(decomp.biproduct.projections[0]), frozen(4, [x(4, 0), x(4, 1)])),
        (got(decomp.biproduct.projections[1]), frozen(4, [x(4, 0), x(4, 2)])),
        (got(decomp.biproduct.projections[2]), frozen(4, [x(4, 0), x(4, 3)])),
    ]
    _verdict(2, all(a == b for a, b in expectations))


def test_criterion_3_full_chain_on_random_instances():
    start = time.perf_counter()
    ok = True
    for c in instances():
        bare = Connection(bundle=c.bundle, K=c.K)
        ok = ok and check_vertical(bare).verdict is Status.PASS
        eff, decomp = check_effective(bare)
        ok = ok and eff.verdict is Status.PASS and decomp is not None
        full = derive_horizontal(bare)
        ok = ok and check_horizontal(full).verdict is Status.PASS
        ok = ok and check_pair(full).verdict is Status.PASS
    elapsed = time.perf_counter() - start
    _verdict(3, ok and elapsed < 60.0)


def test_criterion_4_equivalence_coherence():
    from tangentcat.connection import equivalence_suite

    ok = True
    for c in instances():
        ok = ok and equivalence_suite(c).verdict is Status.PASS
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
        legs = [r for r in report.records if r.name.endswith("presentation")]
        ok = ok and len(legs) == 4 and all(r.status is Status.FAIL for r in legs)
    _verdict(4, ok)


def test_criterion_5_biproduct_laws_and_lemmas():
    ok = True
    for m in (1, 2):
        base = Space.euclidean(m)
        pool = [tangent_bundle(base), trivial_bundle(base, 1), trivial_bundle(base, 2)]
        for k in (1, 2, 3):
            bp = biproduct(pool[:k])
            ok = ok and biproduct_laws(bp).verdict is Status.PASS

    def endo(bp, i):
        return compose(bp.projections[i], bp.injections[i])

    def keep(bp, idxs):
        acc = compose(bp.sum.q, bp.sum.zeta)
        for i in idxs:
            acc = bp.sum.add(acc, endo(bp, i))
        return acc

    base = Space.euclidean(1)
    bp = biproduct([tangent_bundle(base), trivial_bundle(base, 1), tangent_bundle(base)])
    for j in range(3):
        i, k = sorted(set(range(3)) - {j})
        ok = ok and map_equal(partial_bundle(bp, j).add(endo(bp, i), endo(bp, k)), keep(bp, [i, k]))
    for i, j, k in permutations(range(3)):
        lhs = partial_bundle(bp, i).add(keep(bp, [i, k]), keep(bp, [i, j]))
        ok = ok and map_equal(lhs, PolyMap.identity(bp.sum.total.dim))
    _verdict(5, ok)


def test_criterion_6_partial_bundles_of_decompositions():
    ok = True
    for c in instances():
        _, decomp = check_effective(c)
        ok = ok and decomp is not None
        if decomp is None:
            continue
        first = partial_bundle(decomp.biproduct, 0)
        second = partial_bundle(decomp.biproduct, 1)
        ok = ok and bundle_difference(first, tangent_bundle(c.bundle.total)) is None
        ok = ok and bundle_difference(second, tangent_of_bundle(c.bundle)) is None
    _verdict(6, ok)


def test_criterion_7_horizontal_perturbations_detected():
    rng = random.Random(1234)
    ok = True
    for c in instances()[:4]:
        full = derive_horizontal(Connection(bundle=c.bundle, K=c.K))
        ok = ok and check_horizontal(full).verdict is Status.PASS
        ok = ok and check_pair(full).verdict is Status.PASS
        e, m = c.bundle.total.dim, c.bundle.base.dim
        hat = e + m
        for _ in range(20):
            # Vary only the last output block, so the section identity is
            # untouched; the perturbation must still be caught by one of the
            # linearity or joint-decomposition checks.
            delta = [Polynomial.zero(hat) for _ in range(e - m)]
            while all(d.is_zero() for d in delta):
                slot = rng.randrange(e - m)
                exps = [0] * hat
                for _ in range(rng.randint(1, 2)):
                    exps[rng.randrange(hat)] += 1
                delta[slot] = delta[slot] + Polynomial.from_terms(
                    hat, {tuple(exps): Fraction(rng.randint(1, 3))}
                )
            comps = list(full.H.components)
            for i, d in enumerate(delta):
                comps[hat + i] = comps[hat + i] + d
            perturbed = Connection(
                bundle=c.bundle, K=c.K, H=PolyMap(hat, tuple(comps))
            )
            caught = (
                check_horizontal(perturbed).verdict is Status.FAIL
                or check_pair(perturbed).verdict is Status.FAIL
            )
            ok = ok and caught
    _verdict(7, ok)


def test_criterion_8_decompose_recompose_round_trip():
    rng = random.Random(99)
    ok = True
    for c in instances():
        _, decomp = check_effective(c)
        dim = 2 * c.bundle.total.dim
        for _ in range(100):
            point = [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(dim)
            ]
            first, second, third = decompose_point(decomp, point)
            m = c.bundle.base.dim
            ok = ok and eval_map(decomp.theta_inv, list(first + second[m:] + third[m:])) == tuple(point)
    _verdict(8, ok)
