"""End-to-end exercises of the command-line front end and its exit codes."""

import hashlib
import json
import os
import re

import pytest

from tangentcat import serialize
from tangentcat.cli import build_parser, main
from tangentcat.polycore import BudgetExceeded, Polynomial, PolyMap
from tangentcat.tangent import Space
from tangentcat.connection import Connection, canonical_connection, christoffel_connection, derive_horizontal


def write_connection(tmp_path, c, name="conn.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.connection_to_json(c)))
    return str(path)


def write_bundle(tmp_path, b, name="bundle.json"):
    path = tmp_path / name
    path.write_text(serialize.dumps(serialize.bundle_to_json(b)))
    return str(path)


def christoffel_linear():
    x = Polynomial.variable(1, 0)
    return christoffel_connection(Space.euclidean(1), (((x,),),))


# ------------------------------------------------------------------- verify


def test_verify_connection_passes(tmp_path, capsys):
    path = write_connection(tmp_path, canonical_connection(1))
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_bundle_passes(tmp_path, capsys):
    from tangentcat.dbundle import tangent_bundle

    path = write_bundle(tmp_path, tangent_bundle(Space.euclidean(2)))
    assert main(["verify", "--kind", "bundle", path]) == 0
    assert "verdict: pass" in capsys.readouterr().out


# Mutants of the trivial bundle over R on (x, w): lambda = (x, 0, 0, w) lists
# the (x, w, dx, dw) slots and sigma = (x, w1 + w2) is defined on (x, w1, w2).
# In the first two, mu has no polynomial inverse: its linear part is singular,
# or its Jacobian determinant is not constant.  In all but the first three,
# some pairing of the axioms cannot be formed.
@pytest.mark.parametrize(
    "field, slot, value, record",
    [
        ("lambda", 3, lambda v: v[0] - v[0], "axiom 4: shear inversion"),
        ("lambda", 3, lambda v: v[1] + (v[1] * v[1]).scale(3), "axiom 4: shear inversion"),
        ("lambda", 3, lambda v: v[0] * v[1], "axiom 5"),
        ("lambda", 0, lambda v: v[0] + v[1], "axiom 4: comparison map"),
        ("lambda", 2, lambda v: v[1], "axiom 4: comparison map"),
        ("lambda", 1, lambda v: v[1], "axiom 3: (lift, zeta) additive"),
        ("lambda", 0, lambda v: v[0] + v[0], "axiom 4: comparison map"),
        ("sigma", 0, lambda v: v[0] + v[1], "associativity"),
        ("sigma", 0, lambda v: v[0] + v[2], "associativity"),
    ],
    ids=["dw-slot-zero", "dw-slot-w+3w^2", "dw-slot-xw", "x-slot+w", "dx-slot+w", "w-slot+w", "x-slot+x",
         "sigma-x+w1", "sigma-x+w2"],
)
def test_verify_corrupted_lift_exits_2(tmp_path, capsys, field, slot, value, record):
    from tangentcat.dbundle import trivial_bundle

    doc = serialize.bundle_to_json(trivial_bundle(Space.euclidean(1), 1))
    arity = doc[field]["dom"]
    doc[field]["components"][slot] = serialize.poly_to_json(
        value([Polynomial.variable(arity, i) for i in range(arity)])
    )
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", "verify", "--kind", "bundle", str(path)]) == 2
    checks = {r["name"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
    assert checks[record]["status"] == "fail"
    assert checks[record]["witness"]


@pytest.mark.parametrize("component", [0, 1])  # the x and the w output of H
def test_verify_H_off_the_base_point_exits_2(tmp_path, capsys, component):
    doc = serialize.connection_to_json(canonical_connection(1))
    u = Polynomial.variable(3, 2)
    doc["H"]["components"][component] = serialize.poly_to_json(Polynomial.variable(3, component) + u * u)
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", "verify", str(path)]) == 2
    checks = {r["name"]: r for r in json.loads(capsys.readouterr().out)["checks"]}
    record = checks["pair: decomposition of the identity"]
    assert record["status"] == "fail"
    assert "inconsistent values" in record["witness"]


# sigma is defined on (x, t1, t2), zeta on (x) and lambda = (x, 0, 0, t) on
# (x, t), one component per block; each mutant adds the last variable to one
# component, so the bundle is not a differential bundle.
@pytest.mark.parametrize("command", ["verify", "derive-h", "total-bundle", "decompose"])
@pytest.mark.parametrize(
    "field, slot",
    [("sigma", 1), ("sigma", 0), ("zeta", 1), ("lambda", 0), ("lambda", 1), ("lambda", 2), ("lambda", 3)],
    ids=["sigma-fibre", "sigma-base", "zeta-fibre", "lambda-x", "lambda-t", "lambda-dx", "lambda-dt"],
)
@pytest.mark.parametrize(
    "connection", [canonical_connection(1), christoffel_linear()], ids=["canonical", "christoffel"]
)
def test_connection_commands_refute_a_broken_bundle(tmp_path, capsys, connection, field, slot, command):
    doc = serialize.connection_to_json(connection)
    spot = doc["bundle"][field]
    last = Polynomial.variable(spot["dom"], spot["dom"] - 1)
    old = serialize.poly_from_json(spot["components"][slot])
    spot["components"][slot] = serialize.poly_to_json(old + last)
    path = tmp_path / "broken.json"
    path.write_text(serialize.dumps(doc))
    argv = ["--format", "json", command, str(path)] + (["1,2,3,4"] if command == "decompose" else [])
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err == ""
    failing = [r for r in json.loads(out)["checks"] if r["status"] == "fail"]
    assert failing and all(r.get("witness") for r in failing)


def test_verify_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["verify", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_schema_error_exits_1(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"bundle": {}}))
    assert main(["verify", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_verify_missing_file_exits_1(tmp_path, capsys):
    assert main(["verify", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err


_ZERO_1 = serialize.poly_to_json(Polynomial.zero(1))
# A 3 -> 4 map of the shape H has on the tangent bundle of R.
_H_3_TO_4 = serialize.map_to_json(canonical_connection(1).H)


@pytest.mark.parametrize(
    "kind, field, value, where",
    [
        ("connection", ["K", "components", 0, "terms", 0, "coeff"], "1e0", "connection.K.components[0].terms[0]"),
        ("connection", ["K", "components", 0, "terms", 0, "coeff"], " 1", "connection.K.components[0].terms[0]"),
        ("connection", ["K", "components", 0, "arity"], True, "connection.K.components[0]"),
        ("connection", ["K", "components", 0, "terms"], 5, "connection.K.components[0]"),
        ("connection", ["K", "components", 0], {"arity": 2, "terms": []}, "connection.K"),
        ("connection", ["K", "components", 0, "terms", 0, "exps"], [True, False, False, False],
         "connection.K.components[0].terms[0]"),
        ("connection", ["bundle", "zeta", "dom"], True, "connection.bundle.zeta"),
        ("bundle", ["sigma", "cod"], True, "bundle.sigma"),
        ("connection", ["bundle", "base", "dim"], True, "connection.bundle.base"),
        ("connection", ["bundle", "base_coords"], [False], "connection.bundle"),
        ("connection", ["gamma"], [[5]], "connection.gamma"),
        ("connection", ["gamma"], 5, "connection.gamma"),
        ("connection", ["gamma"], [[[_ZERO_1, _ZERO_1]]], "connection.gamma"),
        ("connection", ["gamma"], [[[_ZERO_1]]], "connection.gamma"),
        ("connection", ["h"], _H_3_TO_4, "connection.h"),
        ("connection", ["bundle", "base", "layout"], [["x", 1.7]], "connection.bundle.base"),
        ("connection", ["bundle", "base", "layout"], [["x", True]], "connection.bundle.base"),
        ("connection", ["bundle", "base", "layout"], [["x", "1"]], "connection.bundle.base"),
        ("connection", ["bundle", "base", "layout"], [[1, 1]], "connection.bundle.base"),
        ("connection", ["K", "components", 0, "terms", 0, "exps"], [1, 0, 0],
         "connection.K.components[0].terms[0]"),
        ("connection", ["K", "components", 0, "terms", 0, "exps"], [-1, 0, 0, 1],
         "connection.K.components[0].terms[0]"),
    ],
    ids=["coeff-exponent", "coeff-space", "arity-bool", "terms-int", "component-arity", "exps-bool", "dom-bool",
         "cod-bool", "dim-bool", "base-coords-bool", "gamma-int-row", "gamma-int", "gamma-ragged",
         "gamma-well-formed", "h-misspelt",
         "layout-float", "layout-bool", "layout-string-size", "layout-int-name", "exps-short", "exps-negative"],
)
def test_malformed_fields_exit_1_with_location(tmp_path, capsys, kind, field, value, where):
    if kind == "connection":
        doc = serialize.connection_to_json(canonical_connection(1))
        load = serialize.connection_from_json
    else:
        from tangentcat.dbundle import trivial_bundle

        doc = serialize.bundle_to_json(trivial_bundle(Space.euclidean(1), 0))
        load = serialize.bundle_from_json
    spot = doc
    for key in field[:-1]:
        spot = spot[key]
    spot[field[-1]] = value
    with pytest.raises(serialize.SerializationError, match=re.escape(where + ":")):
        load(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--kind", kind, str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {where}:")


# ------------------------------------------------------------ high degree


@pytest.mark.parametrize("degree", [9, 10])
def test_high_degree_connections_verify(tmp_path, capsys, degree):
    """No input is rejected for its degree: the Christoffel connection with
    Gamma = x^degree, whose K = (x, v + x^degree t u) has degree
    degree + 2, verifies with no flag."""
    x = Polynomial.variable(1, 0)
    steep = x
    for _ in range(degree - 1):
        steep = steep * x
    c = christoffel_connection(Space.euclidean(1), (((steep,),),))
    assert c.K.max_degree() == degree + 2
    path = write_connection(tmp_path, c)
    assert main(["verify", path]) == 0
    assert capsys.readouterr().err == ""


# ----------------------------------------------------------------- derive-h


def test_derive_h_writes_sidecar_and_is_idempotent(tmp_path, capsys):
    path = write_connection(tmp_path, christoffel_linear())
    assert main(["derive-h", path]) == 0
    sidecar = str(tmp_path / "conn.h.json")
    assert os.path.exists(sidecar)
    first = open(sidecar).read()
    capsys.readouterr()
    assert main(["derive-h", path]) == 0
    assert open(sidecar).read() == first
    h = serialize.map_from_json(json.loads(first))
    assert h.domain_dim == 3 and h.codomain_dim == 4
    # v-component of H for the table Gamma = x is -x t u.
    x = Polynomial.variable(3, 0)
    t = Polynomial.variable(3, 1)
    u = Polynomial.variable(3, 2)
    assert h.components[3] == -(x * t * u)


def test_derive_h_fails_for_defective_K(tmp_path, capsys):
    c = canonical_connection(1)
    doc = serialize.connection_to_json(c)
    del doc["H"]
    scaled = serialize.map_to_json(
        PolyMap.from_components(
            4, [Polynomial.variable(4, 0), Polynomial.variable(4, 3).scale(2)]
        )
    )
    doc["K"] = scaled
    path = tmp_path / "bad.json"
    path.write_text(serialize.dumps(doc))
    assert main(["derive-h", str(path)]) == 2
    assert "verdict: fail" in capsys.readouterr().out
    assert not os.path.exists(tmp_path / "bad.h.json")


def test_derive_h_is_inconclusive_when_the_pairing_inversion_exceeds_the_budget(tmp_path, capsys, monkeypatch):
    import tangentcat.whitney as whitney

    def over_budget(f):
        raise BudgetExceeded("stated for the test: over the term budget")

    monkeypatch.setattr(whitney, "invert_polymap", over_budget)
    path = write_connection(tmp_path, christoffel_linear())
    assert main(["--format", "json", "derive-h", path]) == 3
    (record,) = json.loads(capsys.readouterr().out)["checks"]
    assert (record["name"], record["status"]) == ("derivation", "cannot-certify")
    assert not os.path.exists(tmp_path / "conn.h.json")


# -------------------------------------------------------------- total-bundle


def test_total_bundle_writes_verified_structure(tmp_path, capsys):
    path = write_connection(tmp_path, canonical_connection(1))
    assert main(["total-bundle", path]) == 0
    out = capsys.readouterr().out
    sidecar = str(tmp_path / "conn.total.json")
    assert sidecar in out
    doc = json.loads(open(sidecar).read())
    bundle = serialize.bundle_from_json(doc)
    assert bundle.total.dim == 4 and bundle.base.dim == 1
    # zeta-hat sends x to (x, 0, 0, 0).
    assert [str(p) for p in bundle.zeta.components] == ["x0", "0", "0", "0"]


@pytest.mark.parametrize("command, tag", [("derive-h", "h"), ("total-bundle", "total")])
def test_an_unwritable_sidecar_exits_1_naming_it(tmp_path, capsys, command, tag):
    """A directory where the sidecar goes cannot be replaced by a file: the
    command exits 1 with a message naming the sidecar, prints no report, and
    leaves no temp file behind."""
    path = write_connection(tmp_path, christoffel_linear())
    sidecar = tmp_path / f"conn.{tag}.json"
    sidecar.mkdir()
    assert main([command, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {sidecar}: ")
    assert sidecar.is_dir() and {p.name for p in tmp_path.iterdir()} == {"conn.json", sidecar.name}


def _trivial_over_a_point():
    """R^0 x R with K = (w, w') -> w'."""
    from tangentcat.dbundle import trivial_bundle

    return Connection(trivial_bundle(Space.euclidean(0), 1), PolyMap.selection(2, [1]))


@pytest.mark.parametrize(
    "build", [_trivial_over_a_point, lambda: canonical_connection(0)], ids=["trivial-R0xR", "canonical-0"]
)
def test_total_bundle_over_a_base_of_dimension_0(tmp_path, capsys, build):
    """A valid document over R^0 is decided, not rejected as malformed."""
    path = write_connection(tmp_path, build())
    assert main(["total-bundle", path]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    bundle = serialize.bundle_from_json(json.loads(open(tmp_path / "conn.total.json").read()))
    assert bundle.base.dim == 0


# ---------------------------------------------------------------- decompose


def test_decompose_text_output(tmp_path, capsys):
    path = write_connection(tmp_path, christoffel_linear())
    assert main(["decompose", path, "1,2,3,4"]) == 0
    assert capsys.readouterr().out == "(1, 2), (1, 3), (1, 10)\n"


def test_decompose_json_output(tmp_path, capsys):
    path = write_connection(tmp_path, canonical_connection(1))
    assert main(["--format", "json", "decompose", path, "1/2,2,3,4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["components"] == [["1/2", "2"], ["1/2", "3"], ["1/2", "4"]]


def test_decompose_bad_point_exits_1(tmp_path, capsys):
    path = write_connection(tmp_path, canonical_connection(1))
    assert main(["decompose", path, "1,2,x"]) == 1
    capsys.readouterr()
    assert main(["decompose", path, "1,2"]) == 1
    assert "expected" in capsys.readouterr().err
    # coordinates follow the document notation: no decimals, exponents,
    # padding or digit separators
    for point in ("1,2,3,0.5", "1e0,2,3,4", " 1,2,3,4", "1_0,2,3,4", "1,2,3,4/0"):
        assert main(["decompose", path, point]) == 1
        assert "coordinate" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, broken, code, transports",
    [("verify", False, 0, 0), ("total-bundle", False, 0, 1), ("verify", True, 2, 2), ("total-bundle", True, 2, 2)],
    ids=["verify", "total-bundle", "verify-sigma-base", "total-bundle-sigma-base"],
)
def test_only_the_bundles_that_are_read_are_transported(
    tmp_path, monkeypatch, capsys, command, broken, code, transports
):
    """A connection's two partial bundles are decided from K's additivity and
    transported onto TE only when that does not decide them, as when sigma
    moves the base point; only total-bundle, whose sidecar holds the sum,
    transports the sum, and only when it passes."""
    from tangentcat import whitney

    moves = []
    transport = whitney.transport_bundle
    monkeypatch.setattr(whitney, "transport_bundle", lambda *args: moves.append(args) or transport(*args))
    doc = serialize.connection_to_json(christoffel_linear())
    if broken:
        sigma = doc["bundle"]["sigma"]
        base = serialize.poly_from_json(sigma["components"][0])
        sigma["components"][0] = serialize.poly_to_json(base + Polynomial.variable(sigma["dom"], 2))
    path = tmp_path / "conn.json"
    path.write_text(serialize.dumps(doc))
    assert main(["--format", "json", command, str(path)]) == code
    assert len(moves) == transports
    capsys.readouterr()


def count_calls(monkeypatch, *fns):
    """Count calls of each function, in every tangentcat module that bound it."""
    import sys

    calls = {fn.__name__: 0 for fn in fns}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in fns:
        wrapper = counted(fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("tangentcat") and vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, wrapper)
    return calls


def test_verify_checks_vertical_and_effectiveness_once(tmp_path, monkeypatch, capsys):
    import tangentcat.connection as connection
    import tangentcat.dbundle as dbundle

    calls = count_calls(
        monkeypatch, connection.check_vertical, connection._effectiveness, dbundle.tangent_of_bundle
    )
    # two documents written separately: nothing built for the first may
    # serve the second
    for i, c in enumerate((canonical_connection(1), christoffel_linear())):
        path = write_connection(tmp_path, Connection(bundle=c.bundle, K=c.K), f"conn{i}.json")
        assert main(["verify", path]) == 0
        assert calls == {name: i + 1 for name in calls}
    capsys.readouterr()


@pytest.mark.parametrize(
    "h, code, reports",
    [("absent", 0, 2), ("derived", 0, 2), ("u block perturbed", 2, 4)],
)
def test_verify_builds_horizontal_reports_only_for_another_H(tmp_path, monkeypatch, capsys, h, code, reports):
    """Once K is effective, an absent H or H = iota_12 theta^-1 passes the
    horizontal and pair records by uniqueness, so only the vertical check's
    two linearity reports are built; any other H is checked record by
    record and its linearity reports are built too."""
    import tangentcat.dbundle as dbundle

    c = derive_horizontal(christoffel_linear())
    if h == "absent":
        c = Connection(bundle=c.bundle, K=c.K)
    elif h == "u block perturbed":
        comps = list(c.H.components)
        comps[2] = comps[2] + Polynomial.variable(3, 1)
        c = Connection(bundle=c.bundle, K=c.K, H=PolyMap(3, tuple(comps)))
    calls = count_calls(monkeypatch, dbundle.linear_morphism_report)
    assert main(["--format", "json", "verify", write_connection(tmp_path, c)]) == code
    assert calls == {"linear_morphism_report": reports}
    capsys.readouterr()


def test_only_a_map_outside_the_triangular_form_enters_the_expansion(tmp_path, monkeypatch, capsys):
    """theta and mu of a Christoffel connection are triangular and invert in
    closed form; the transport of a trivial bundle along the two-level shear
    psi = (x0, x1 + x0^2, x2 + x1^2) has a mu that is not, and psi itself
    is not either."""
    import tangentcat.polycore as polycore
    from tangentcat.dbundle import transport_bundle, trivial_bundle

    x0, x1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    one = Polynomial.constant(2, 1)
    gamma = (((x0, one), (one, x1)), ((x1 * x1, x0), (x0, Polynomial.zero(2))))
    path = write_connection(tmp_path, christoffel_connection(Space.euclidean(2), gamma))
    calls = count_calls(monkeypatch, polycore._expand_inverse)
    for command in ("verify", "total-bundle"):
        assert main(["--format", "json", command, path]) == 0
        assert calls == {"_expand_inverse": 0}

    b = trivial_bundle(Space.euclidean(1), 2)
    y0, y1, y2 = (Polynomial.variable(3, i) for i in range(3))
    psi = PolyMap(3, (y0, y1 + y0 * y0, y2 + y1 * y1))
    shear = transport_bundle(b, psi, polycore.invert_polymap(psi), b.total)
    calls["_expand_inverse"] = 0
    assert main(["--format", "json", "verify", "--kind", "bundle", write_bundle(tmp_path, shear)]) == 0
    assert calls["_expand_inverse"] > 0
    capsys.readouterr()


# --------------------------------------------------------------------- demo


@pytest.mark.parametrize("name", ["canonical", "christoffel", "tangent-axioms"])
def test_demos_pass(name, capsys):
    assert main(["demo", name]) == 0
    assert "verdict: pass" in capsys.readouterr().out


# ------------------------------------------------------------------- parser


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_a_usage_error_leaves_the_shared_parser_as_it_was(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--format", "json", "verify"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["--format", "json", "demo", "canonical"]) == 0
    # the digest tests/test_pinned_output.py pins for this demo
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "4ca6b60da3ddc14d815135bf971573201628a5a9f7e291799eb423e5339bbfba"
    )


def test_demo_json_output_is_stable(capsys):
    assert main(["--format", "json", "demo", "canonical"]) == 0
    first = capsys.readouterr().out
    assert main(["--format", "json", "demo", "canonical"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["verdict"] == "pass"
