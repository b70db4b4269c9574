"""Round-trip and schema-error coverage for the JSON interchange layer."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tangentcat import serialize
from tangentcat.cli import main
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
    assert str(Fraction(-3, 7)) == "-3/7"
    assert serialize.fraction_from_str("5/10", "here") == Fraction(1, 2)
    assert serialize.fraction_from_str("4", "here") == Fraction(4)


def test_coefficients_parse_to_the_canonical_type():
    for text, value in (("+3", 3), ("007", 7), ("4/2", 2), ("-0", 0), ("0/5", 0)):
        got = serialize.fraction_from_str(text, "here")
        assert got == value and type(got) is int
    got = serialize.fraction_from_str("-6/4", "here")
    assert got == Fraction(-3, 2) and type(got) is Fraction
    doc = {"arity": 1, "terms": [{"coeff": "-0", "exps": [1]}, {"coeff": "0/5", "exps": [0]}, {"coeff": "2", "exps": [2]}]}
    assert serialize.poly_from_json(doc).terms == (((2,), 2),)


def test_a_zero_denominator_exits_1_with_its_location(tmp_path, capsys):
    doc = serialize.connection_to_json(canonical_connection(1))
    doc["K"]["components"][0]["terms"][0]["coeff"] = "1/0"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: connection.K.components[0].terms[0]: bad coefficient '1/0'")


def test_a_coefficient_with_too_many_digits_exits_1_with_its_location(tmp_path, capsys):
    # int() refuses strings beyond the interpreter's digit limit with a ValueError.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts strings of any length to int")
    doc = serialize.connection_to_json(canonical_connection(1))
    doc["K"]["components"][0]["terms"][0]["coeff"] = "1/" + "3" * (limit + 1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: connection.K.components[0].terms[0]: coefficient of")


def test_respelt_coefficients_give_the_same_verify_bytes(tmp_path, capsys):
    x = Polynomial.variable(1, 0)
    doc = serialize.connection_to_json(christoffel_connection(Space.euclidean(1), (((x,),),)))
    path = tmp_path / "doc.json"
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", "verify", str(path)]) == 0
    plain = capsys.readouterr().out
    spellings = iter(["+1", "2/2", "007/7"] * 100)
    respelt = 0

    def respell(obj):
        nonlocal respelt
        if isinstance(obj, dict):
            if obj.get("coeff") == "1":
                obj["coeff"] = next(spellings)
                respelt += 1
            for value in obj.values():
                respell(value)
        elif isinstance(obj, list):
            for value in obj:
                respell(value)

    respell(doc)
    assert respelt >= 3
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", "verify", str(path)]) == 0
    assert capsys.readouterr().out == plain


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


def test_connection_round_trip_with_H():
    c = canonical_connection(2)
    doc = serialize.connection_to_json(c)
    assert sorted(doc) == ["H", "K", "bundle"]
    back = serialize.connection_from_json(doc)
    assert bundle_difference(back.bundle, c.bundle) is None
    assert map_equal(back.K, c.K)
    assert back.H is not None and map_equal(back.H, c.H)


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
    with pytest.raises(SerializationError, match="base_coords length != base dimension"):
        serialize.bundle_from_json(doc)


# Non-ASCII text, control characters, quotes, backslashes and lone
# surrogates, which json escapes as \uXXXX.
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\u20ac\U0001f600\ud800\udfff')))
_INTS = st.one_of(st.integers(), st.integers(min_value=2**64, max_value=2**200), st.integers(max_value=-(2**64)))
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), _INTS, _TEXT),
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(_TEXT, inner),
        # the writer joins all-int and all-str lists in one go; bool is not int there
        st.lists(st.one_of(_INTS, st.booleans())),
        st.lists(_TEXT),
    ),
    max_leaves=25,
)


@given(st.one_of(_JSON, st.sampled_from([{}, [], (), {"a": []}, [{}, ()]])))
@settings(max_examples=150, deadline=None)
def test_dumps_gives_the_bytes_of_json_dumps(value):
    """The writer accepts dict (str keys), list, tuple, str, int, bool and None."""
    assert serialize.dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, object(), {"a": [frozenset()]}, [1, object()], {1: "a"}, [0.5]])
def test_dumps_rejects_what_it_cannot_encode_with_type_error(value):
    """A set or an object, as under ``json``; also a float and a non-str key."""
    with pytest.raises(TypeError):
        serialize.dumps(value)
