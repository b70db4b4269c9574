"""Round-trip and schema-error coverage for the JSON interchange layer."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentcat import serialize
from tangentcat.polycore import Polynomial, PolyMap, map_equal
from tangentcat.tangent import Space
from tangentcat.dbundle import bundle_difference, tangent_bundle, trivial_bundle
from tangentcat.connection import canonical_connection, christoffel_connection
from tangentcat.serialize import SerializationError

from conftest import polynomials, polymaps


@given(polynomials(arity=2))
@settings(max_examples=50)
def test_polynomial_round_trip(p):
    assert serialize.poly_from_json(serialize.poly_to_json(p)) == p


@given(polymaps(domain=2, codomain=3))
@settings(max_examples=50)
def test_polymap_round_trip(m):
    back = serialize.map_from_json(serialize.map_to_json(m))
    assert map_equal(back, m)


def test_fraction_strings_are_exact():
    assert serialize.fraction_to_str(Fraction(-3, 7)) == "-3/7"
    assert serialize.fraction_from_str("5/10", "here") == Fraction(1, 2)
    assert serialize.fraction_from_str("4", "here") == Fraction(4)


def test_decimal_coefficients_rejected():
    with pytest.raises(SerializationError):
        serialize.fraction_from_str("0.5", "coefficient")
    bad = {"arity": 1, "terms": [{"coeff": "1.25", "exps": [0]}]}
    with pytest.raises(SerializationError):
        serialize.poly_from_json(bad)


def test_space_round_trip():
    s = Space(3, (("x", 2), ("w", 1)))
    assert serialize.space_from_json(serialize.space_to_json(s)) == s


def test_bundle_round_trip():
    for b in (tangent_bundle(Space.euclidean(2)), trivial_bundle(Space.euclidean(1), 2)):
        back = serialize.bundle_from_json(serialize.bundle_to_json(b))
        assert bundle_difference(back, b) is None
        assert back.base_coords == b.base_coords


def test_connection_round_trip_with_H_and_gamma():
    c = canonical_connection(2)
    back = serialize.connection_from_json(serialize.connection_to_json(c))
    assert bundle_difference(back.bundle, c.bundle) is None
    assert map_equal(back.K, c.K)
    assert back.H is not None and map_equal(back.H, c.H)
    assert back.gamma == c.gamma


def test_connection_round_trip_without_H():
    x = Polynomial.variable(1, 0)
    c = christoffel_connection(Space.euclidean(1), (((x,),),))
    doc = serialize.connection_to_json(c)
    back = serialize.connection_from_json(doc)
    assert back.H is None
    assert map_equal(back.K, c.K)


def test_missing_key_names_location():
    with pytest.raises(SerializationError) as exc:
        serialize.map_from_json({"dom": 2})
    assert "cod" in str(exc.value)


def test_wrong_exponent_arity_rejected():
    bad = {"arity": 2, "terms": [{"coeff": "1", "exps": [1]}]}
    with pytest.raises(SerializationError):
        serialize.poly_from_json(bad)


def test_dumps_is_deterministic_and_newline_terminated():
    c = canonical_connection(1)
    a = serialize.dumps(serialize.connection_to_json(c))
    b = serialize.dumps(serialize.connection_to_json(c))
    assert a == b
    assert a.endswith("\n")
    parsed = json.loads(a)
    assert list(parsed) == sorted(parsed)


def test_bundle_schema_rejects_inconsistent_shapes():
    b = tangent_bundle(Space.euclidean(1))
    doc = serialize.bundle_to_json(b)
    doc["base_coords"] = [0, 1]
    with pytest.raises((SerializationError, Exception)):
        serialize.bundle_from_json(doc)
