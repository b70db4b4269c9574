"""Output bytes of the connection and bundle checks, pinned by sha256 digest.

The connection digests were computed before the checkers started sharing
their intermediate results (the vertical report, the inverse pairing and the
derived H); the ``verify --kind bundle`` and ``demo tangent-axioms`` digests
before axioms 2 and 3 and the tangent structure's (l, 0) and (c, 1) records
shared one additive-morphism check.  Any change to a verdict, a record or
its order shows here.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from tangentcat import serialize
from tangentcat.cli import main
from tangentcat.connection import (
    Connection,
    canonical_connection,
    christoffel_connection,
    equivalence_suite,
)
from tangentcat.dbundle import tangent_bundle, trivial_bundle, verify_bundle
from tangentcat.polycore import Polynomial, PolyMap
from tangentcat.tangent import Space
from tangentcat.whitney import biproduct


def x(arity, i):
    return Polynomial.variable(arity, i)


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical_without_H():
    c = canonical_connection(1)
    return Connection(bundle=c.bundle, K=c.K)


def _christoffel():
    return christoffel_connection(Space.euclidean(1), (((x(1, 0),),),))


def _K_mutant():
    c = canonical_connection(1)
    return Connection(bundle=c.bundle, K=PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1) * x(4, 1)]))


def _H_mutant():
    c = canonical_connection(1)
    return Connection(bundle=c.bundle, K=c.K, H=PolyMap.from_components(3, [x(3, 0), x(3, 1), x(3, 2), x(3, 2)]))


CLI_CASES = {
    "verify-canonical-with-H": (
        "verify", lambda: canonical_connection(1), 0,
        "6285cb69046fd4a4ee75c5ee75b2e31ba7130cce1d108ca0f949ba349449f55d",
    ),
    "verify-canonical-without-H": (
        "verify", _canonical_without_H, 0,
        "6285cb69046fd4a4ee75c5ee75b2e31ba7130cce1d108ca0f949ba349449f55d",
    ),
    "verify-christoffel-without-H": (
        "verify", _christoffel, 0,
        "6285cb69046fd4a4ee75c5ee75b2e31ba7130cce1d108ca0f949ba349449f55d",
    ),
    "verify-K-mutant": (
        "verify", _K_mutant, 2,
        "93c2487c605dd5f08c94a5f30d8c9d02ff377f615c4220fc8b0a71bb249738c0",
    ),
    "verify-H-mutant": (
        "verify", _H_mutant, 2,
        "568f3e5598b5a88cf1a4358b7f434beb55a489d00eff8a75e45b767ee9b24df9",
    ),
    "derive-h-christoffel": (
        "derive-h", _christoffel, 0,
        "9ab4f9dff2f975567a9e2e9264e4df431996b0cc65d07639d98581bfc793312f",
    ),
}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_json_bytes_are_pinned(case, tmp_path, capsys):
    command, build, code, digest = CLI_CASES[case]
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(serialize.connection_to_json(build())))
    assert main(["--format", "json", command, str(path)]) == code
    # derive-h names its sidecar; the temporary directory is not part of the bytes
    out = capsys.readouterr().out.replace(str(tmp_path), "DIR")
    assert _sha(out) == digest


TOTAL_BUNDLE_CASES = {
    "canonical": (
        lambda: canonical_connection(1),
        "0391385edd813a85263effbc3405860e565c6ace0a98d2f2e75f05630cba474b",
    ),
    "christoffel": (
        _christoffel,
        "a05327e02dd2772c964159b2ee7ce0185bb1a21ba47709110fbe21fe99271c67",
    ),
}


@pytest.mark.parametrize("case", sorted(TOTAL_BUNDLE_CASES))
def test_total_bundle_json_and_sidecar_bytes_are_pinned(case, tmp_path, capsys):
    """The report and the transported sum the sidecar holds, both before the
    sum's axioms were decided on its concatenated model."""
    build, sidecar = TOTAL_BUNDLE_CASES[case]
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(serialize.connection_to_json(build())))
    assert main(["--format", "json", "total-bundle", str(path)]) == 0
    out = capsys.readouterr().out.replace(str(tmp_path), "DIR")
    assert _sha(out) == "6a86922d4e78afed3c9999494dd840097f78f1b59d2fba383210cd8860f6e500"
    assert _sha((tmp_path / "conn.total.json").read_text()) == sidecar


@pytest.mark.parametrize("name", ["canonical", "christoffel"])
def test_connection_demo_bytes_are_pinned(name, capsys):
    assert main(["--format", "json", "demo", name]) == 0
    assert _sha(capsys.readouterr().out) == (
        "4ca6b60da3ddc14d815135bf971573201628a5a9f7e291799eb423e5339bbfba"
    )


def test_decompose_json_bytes_are_pinned(tmp_path, capsys):
    """Computed while ``serialize.dumps`` still called ``json.dumps``."""
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(serialize.connection_to_json(canonical_connection(1))))
    assert main(["--format", "json", "decompose", str(path), "1/2,2,3,4"]) == 0
    assert _sha(capsys.readouterr().out) == (
        "f4e6250084bddd47deab85c1ec431b9ae72da833e2216ccd28ec0ed051f0f4ef"
    )


def test_derived_H_sidecar_bytes_are_pinned(tmp_path, capsys):
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(serialize.connection_to_json(_christoffel())))
    assert main(["derive-h", str(path)]) == 0
    assert _sha((tmp_path / "conn.h.json").read_text()) == (
        "dc8b889ce1138bd6755742bde9043443225f1d0cd737cdb1e4c04498b81be226"
    )


def _suite_instances():
    b = tangent_bundle(Space.euclidean(1))
    mutations = [
        PolyMap.from_components(4, [x(4, 0), x(4, 3).scale(2)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1) * x(4, 1)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 1)]),
        PolyMap.from_components(4, [x(4, 0), x(4, 3) + x(4, 2)]),
        PolyMap.from_components(4, [x(4, 0) + x(4, 1), x(4, 3)]),
    ]
    return [canonical_connection(1), _christoffel()] + [Connection(bundle=b, K=k) for k in mutations]


def test_equivalence_suite_bytes_are_pinned():
    digests = [_sha(serialize.dumps(equivalence_suite(c).to_dict())) for c in _suite_instances()]
    assert digests == [
        "70fc0e4f943a06387fe0b17ea353455a288666b4c0299ad68fc6d7d385c69910",
        "70fc0e4f943a06387fe0b17ea353455a288666b4c0299ad68fc6d7d385c69910",
        "cb3e54d0b23801b2d55a4fe5137033120747b8f51470f2a6b99a9f9008ea967e",
        "5ff8ee2f6a4ce7bd6feadb72659b393be94bc77b72db17c7ecb83d61e223b547",
        "363075f21234fa7e73f8bea66fe633c7e122096ab7a22db3c599b339baf2ff96",
        "6a13cd282064d8e308dd4c6b269cf06a462ab88e319043c46dcfde492055024b",
        "8402c58fc4669a257e55671a11d49946c4a70903830e411cc53103a9188dc6d8",
    ]


def _trivial_mutant(field, slot, value):
    """The trivial bundle over R on (x, w) with one component of a map replaced.

    sigma is defined on (x, w1, w2), zeta on (x) and lambda on (x, w); value
    receives the domain's variables.
    """
    doc = serialize.bundle_to_json(trivial_bundle(Space.euclidean(1), 1))
    arity = doc[field]["dom"]
    doc[field]["components"][slot] = serialize.poly_to_json(value([x(arity, i) for i in range(arity)]))
    return doc


BUNDLE_CASES = {
    "tangent-bundle-R2": (
        lambda: serialize.bundle_to_json(tangent_bundle(Space.euclidean(2))), 0,
        "b2d0090c4611e1ba72075b37b53b2c99d36a93b333f2ac2ecb22eeff5626afcb",
    ),
    "sigma-w1+w1w2": (
        lambda: _trivial_mutant("sigma", 1, lambda v: v[1] + v[2] + v[1] * v[2]), 2,
        "19ff2e7da03e3575939d3ba848390959ba1a910d5aadd4565c133ea5ce9069ed",
    ),
    "zeta-w=x": (
        lambda: _trivial_mutant("zeta", 1, lambda v: v[0]), 2,
        "deaec5151ace53ca5053f17272caccff0aaa04aaccbbcc6d95f36862aa0b9753",
    ),
    "lambda-dw=w+xw": (
        lambda: _trivial_mutant("lambda", 3, lambda v: v[1] + v[0] * v[1]), 2,
        "e3e21089f3b86f20f6feb3221acaacb9bd6465b552812060397ca26224bcb997",
    ),
    # lambda moves the base point: the axiom-4 witness names the coordinate
    # of the pairing that cannot be formed
    "lambda-x=x+w": (
        lambda: _trivial_mutant("lambda", 0, lambda v: v[0] + v[1]), 2,
        "f5edcb801013a4c645ae464f3443b06fb74fb19e77e4c4a5b5a2ce307a779aba",
    ),
    "lambda-dx=w": (
        lambda: _trivial_mutant("lambda", 2, lambda v: v[1]), 2,
        "8f6494ac943e537c0d00eb4df3619a465c1f55b29e1ab1270419d83e2f3984e5",
    ),
}


@pytest.mark.parametrize("case", sorted(BUNDLE_CASES))
def test_verify_bundle_json_bytes_are_pinned(case, tmp_path, capsys):
    build, code, digest = BUNDLE_CASES[case]
    path = tmp_path / "bundle.json"
    path.write_text(serialize.dumps(build()))
    assert main(["--format", "json", "verify", "--kind", "bundle", str(path)]) == code
    assert _sha(capsys.readouterr().out) == digest


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("text", "d97be60aabcf3046f14ec4868a83f5d89ed50655d29fa8f824b7a57fb05f14e2"),
        ("json", "9515fb6f75612fb8344816608cb18526ff6b093a2af35bfecfd28c4861f91297"),
    ],
)
def test_tangent_axioms_demo_bytes_are_pinned(fmt, digest, capsys):
    assert main(["--format", fmt, "demo", "tangent-axioms"]) == 0
    assert _sha(capsys.readouterr().out) == digest


def _sweep_bundles(count=100, seed=1):
    """Six passing bundles, then ``count`` seeded mutants of them.

    Each mutant adds one monomial of degree at most 2 to one component of
    sigma, zeta or lambda; many move the base point, so the pairings of
    axiom 0 and of the comparison map cannot be formed.
    """
    rng = random.Random(seed)
    r1, r2 = Space.euclidean(1), Space.euclidean(2)
    bases = [
        tangent_bundle(r1), tangent_bundle(r2), trivial_bundle(r1, 1), trivial_bundle(r1, 2),
        trivial_bundle(r2, 1), biproduct([tangent_bundle(r1), trivial_bundle(r1, 1)]).sum,
    ]
    out = list(bases)
    for _ in range(count):
        b = rng.choice(bases)
        field = rng.choice(("sigma", "zeta", "lift"))
        m = getattr(b, field)
        k = rng.randrange(m.codomain_dim)
        exps = [0] * m.domain_dim
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(m.domain_dim)] += 1
        coeff = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2)))
        comps = list(m.components)
        comps[k] = comps[k] + Polynomial.from_terms(m.domain_dim, {tuple(exps): coeff})
        out.append(b.replace(**{field: PolyMap(m.domain_dim, tuple(comps))}))
    return out


def test_verify_bundle_bytes_are_pinned_over_a_seeded_sweep():
    """The reports of ``verify --kind bundle``, passing and failing, before
    fibrewise addition was spelled once as ``DiffBundle.add``."""
    h = hashlib.sha256()
    for b in _sweep_bundles():
        h.update(serialize.dumps(verify_bundle(b).to_dict()).encode())
    assert h.hexdigest() == "f0043ebfe6bc7507178831a8c2b2272698eb9bfeaff4a086c43348b039aac9ef"


# sigma is defined on (x, t1, t2) and zeta on (x); each mutant adds the last
# variable to one component.  The bundle then fails a biproduct law of TE's
# sum (resolution of identity, or annihilation 1,3 / 2,1 / 2,3 / 3,1) or its
# second partial bundle.  The digests were computed while the laws were
# still decided on the transported sum, before they were decided on its
# concatenated model with the sum as the fallback.
BROKEN_BUNDLE_CASES = {
    ("verify", "sigma-fibre"): "11e72cea3167ca8606f238f715add8d588859d2eb0206c90b0adb40a23585fc1",
    ("verify", "sigma-base"): "3f1d55f9de4946188dc86ee94da86ab014ab302c86e242a82bc8a4cc2f550a88",
    ("verify", "zeta-fibre"): "d758da5365caca1a1e77abe6935269390ecc5a6417dcf9fc075b7d5f0867b8d2",
    ("verify", "zeta-base"): "d9691d6759339e0dbf19ce34455f4b57673ded905044ebd4c23bbbaa481afce4",
    ("total-bundle", "sigma-fibre"): "72e988085d2222608e3e6d7716afe7027b578f4dd72ed2787cb74aa83e1fdcb6",
    ("total-bundle", "sigma-base"): "482a130f943c8f69f99d008886d0f0694e52f101cb80158f1699cfa2336c0c30",
    ("total-bundle", "zeta-fibre"): "cc98e13c2ddc61530219048cfa139e7803e78115f692c0e8541024cf95f92595",
    ("total-bundle", "zeta-base"): "0f47ab0dbd0b921289b8cf3c2e553cc0521bf869f3b0fd5ecfb0be1e631ff577",
}
MUTANT_SLOTS = {"sigma-fibre": ("sigma", 1), "sigma-base": ("sigma", 0), "zeta-fibre": ("zeta", 1), "zeta-base": ("zeta", 0)}


@pytest.mark.parametrize("mutant", sorted(MUTANT_SLOTS))
@pytest.mark.parametrize("command", ["verify", "total-bundle"])
@pytest.mark.parametrize("build", [lambda: canonical_connection(1), _christoffel], ids=["canonical", "christoffel"])
def test_broken_bundle_json_bytes_are_pinned(build, command, mutant, tmp_path, capsys):
    doc = serialize.connection_to_json(build())
    field, slot = MUTANT_SLOTS[mutant]
    spot = doc["bundle"][field]
    last = x(spot["dom"], spot["dom"] - 1)
    spot["components"][slot] = serialize.poly_to_json(serialize.poly_from_json(spot["components"][slot]) + last)
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", command, str(path)]) == 2
    assert _sha(capsys.readouterr().out) == BROKEN_BUNDLE_CASES[command, mutant]
    assert not (tmp_path / "broken.total.json").exists()
