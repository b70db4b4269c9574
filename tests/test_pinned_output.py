"""Output bytes of the connection checks, pinned by sha256 digest.

The digests were computed before the checkers started sharing their
intermediate results (the vertical report, the inverse pairing and the
derived H), so any change to a verdict, a record or its order shows here.
"""

import hashlib

import pytest

from tangentcat import serialize
from tangentcat.cli import main
from tangentcat.connection import (
    Connection,
    canonical_connection,
    christoffel_connection,
    equivalence_suite,
)
from tangentcat.dbundle import tangent_bundle
from tangentcat.polycore import Polynomial, PolyMap
from tangentcat.tangent import Space


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
