"""The verdict contract over mutated and malformed documents.

A wrong structure is refuted (exit 2) with a witness, a malformed document
is rejected (exit 1) with a message, a document beyond the term budget is
cannot-certify (exit 3), and no document makes a command raise.
"""

import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tangentcat import polycore, serialize
from tangentcat.cli import main
from tangentcat.connection import (
    canonical_connection,
    check_horizontal,
    check_pair,
    christoffel_connection,
    derive_horizontal,
    equivalence_suite,
    verify_connection,
)
from tangentcat.dbundle import tangent_bundle, trivial_bundle
from tangentcat.polycore import BudgetExceeded, PolyMap, Polynomial
from tangentcat.report import CheckRecord, Report, Status
from tangentcat.tangent import Space


def _run(doc_text, command, point_dim=4):
    """Run one command on a document; return (exit code, stdout, stderr).

    ``verify-bundle`` is ``verify --kind bundle``; ``decompose`` gets the
    point (1, ..., 1) of ``point_dim`` coordinates.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc_text)
        argv = ["verify", "--kind", "bundle", path] if command == "verify-bundle" else [command, path]
        if command == "decompose":
            argv.append(",".join(["1"] * point_dim))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--format", "json"] + argv)
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------ mutation sweep


def _christoffel(n, seed):
    rng = random.Random(seed)

    def entry():
        exps = tuple(rng.randint(0, 1) for _ in range(n))
        return Polynomial.from_terms(n, {exps: Fraction(rng.randint(-3, 3), rng.randint(1, 3))})

    table = tuple(tuple(tuple(entry() for _ in range(n)) for _ in range(n)) for _ in range(n))
    return derive_horizontal(christoffel_connection(Space.euclidean(n), table))


INSTANCES = {
    "canonical-1": lambda: canonical_connection(1),
    "canonical-2": lambda: canonical_connection(2),
    "christoffel-1": lambda: _christoffel(1, 11),
    "christoffel-2": lambda: _christoffel(2, 12),
}

# Where each map sits in a connection document, and the commands that read it.
FIELDS = {
    "K": (("K",), {"verify", "derive-h", "total-bundle", "decompose"}),
    "H": (("H",), {"verify"}),
    "sigma": (("bundle", "sigma"), {"verify", "derive-h", "total-bundle", "decompose", "verify-bundle"}),
    "zeta": (("bundle", "zeta"), {"verify", "derive-h", "total-bundle", "decompose", "verify-bundle"}),
    "lambda": (("bundle", "lambda"), {"verify", "derive-h", "total-bundle", "decompose", "verify-bundle"}),
}
COMMANDS = ("verify", "derive-h", "total-bundle", "decompose", "verify-bundle")


def _mutant(instance, field, seed):
    """The instance's document with c y^2 added to one component of one map.

    A square is never a Christoffel term t_i u_j, so a mutated K is not
    again a connection on the same bundle; H is determined by K.
    """
    rng = random.Random(f"{instance}/{field}/{seed}")
    doc = serialize.connection_to_json(INSTANCES[instance]())
    spot = doc
    for key in FIELDS[field][0]:
        spot = spot[key]
    slot = rng.randrange(spot["cod"])
    var = Polynomial.variable(spot["dom"], rng.randrange(spot["dom"]))
    old = serialize.poly_from_json(spot["components"][slot])
    spot["components"][slot] = serialize.poly_to_json(old + (var * var).scale(rng.choice([-2, -1, 1, 3])))
    return doc


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("instance", sorted(INSTANCES))
def test_one_mutated_monomial_is_refuted_where_it_is_read(instance, field, seed):
    doc = _mutant(instance, field, seed)
    for command in COMMANDS:
        text = serialize.dumps(doc["bundle"] if command == "verify-bundle" else doc)
        code, out, err = _run(text, command, 2 * doc["bundle"]["total"]["dim"])
        assert err == "", (command, err)
        if command not in FIELDS[field][1]:
            assert code == 0, command
            continue
        assert code == 2, (command, out)
        failing = [r for r in json.loads(out)["checks"] if r["status"] == "fail"]
        assert failing and all(r.get("witness") for r in failing), command


# ---------------------------------------------------------- document fuzzer


def _valid_documents():
    c = christoffel_connection(Space.euclidean(1), (((Polynomial.variable(1, 0),),),))
    return {
        "connection": [
            serialize.connection_to_json(canonical_connection(1)),
            serialize.connection_to_json(c),
            serialize.connection_to_json(derive_horizontal(c)),
        ],
        "bundle": [
            serialize.bundle_to_json(tangent_bundle(Space.euclidean(1))),
            serialize.bundle_to_json(trivial_bundle(Space.euclidean(1), 1)),
        ],
    }


VALID_DOCUMENTS = _valid_documents()
# Small values only: a retyped exponent or dimension must not ask for a
# large expansion.
RETYPED = [None, True, False, -1, 0, 1, 2, 0.5, "x", "1/2", "", [], {}, [0], {"dom": 1}]
# A renamed key is the old key with this suffix, which no schema field has.
RENAMED = "~"


def _paths(node, prefix=()):
    """Every path to a value inside a JSON tree, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _render(node, duplicate):
    """JSON text of ``node``, and the key listed twice, if any: the object at
    path ``duplicate`` lists its first key twice, first with the value null."""
    repeated = []

    def walk(v, path):
        if isinstance(v, dict):
            parts = [f"{json.dumps(k)}: {walk(x, path + (k,))}" for k, x in v.items()]
            if path == duplicate and v:
                repeated.append(next(iter(v)))
                parts.insert(0, f"{json.dumps(repeated[0])}: null")
            return "{" + ", ".join(parts) + "}"
        if isinstance(v, list):
            return "[" + ", ".join(walk(x, path + (i,)) for i, x in enumerate(v)) + "]"
        return json.dumps(v)

    return walk(node, ()), (repeated or [None])[0]


@st.composite
def broken_documents(draw, kind):
    """A document broken by one to three edits, and the key it lists twice, if any.

    An edit retypes, deletes or duplicates a value, or renames an object key.
    The depth of its path is drawn first, so that the few top-level fields
    are edited as often as the many monomial terms.
    """
    doc = copy.deepcopy(draw(st.sampled_from(VALID_DOCUMENTS[kind])))
    duplicate = None
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        depth = draw(st.integers(1, max(len(p) for p in paths)))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        ops = ["retype", "delete", "duplicate"] + (["rename"] if isinstance(parent, dict) else [])
        op = draw(st.sampled_from(ops))
        if op == "rename":
            parent[path[-1] + RENAMED] = parent.pop(path[-1])
        elif op == "retype":
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(RETYPED)))
        elif op == "delete":
            del parent[path[-1]]
        elif isinstance(parent, list):
            parent.insert(path[-1], copy.deepcopy(parent[path[-1]]))
        else:
            duplicate = path[:-1]
    return _render(doc, duplicate)


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_broken_documents_keep_the_exit_contract(command, data):
    kind = "bundle" if command == "verify-bundle" else "connection"
    text, repeated = data.draw(broken_documents(kind))
    code, _, err = _run(text, command)
    assert code in (0, 1, 2, 3)
    assert err.startswith("error: ") if code == 1 else err == ""
    if repeated is not None:
        assert code == 1 and f"duplicated key {json.dumps(repeated)}" in err
    if any(isinstance(p[-1], str) and p[-1].endswith(RENAMED) for p in _paths(json.loads(text))):
        assert code == 1 and err.startswith("error: ")


# ------------------------------------------------------------- term budget


def test_an_exhausted_term_budget_is_cannot_certify(monkeypatch):
    """With no term product allowed, every command that computes ends in
    cannot-certify (exit 3) and names the budget, on stderr or in a
    cannot-certify record; none raises."""
    demo = christoffel_connection(Space.euclidean(1), (((Polynomial.variable(1, 0),),),))
    doc = serialize.dumps(serialize.connection_to_json(demo))
    monkeypatch.setattr(polycore, "TERM_BUDGET", 0)
    runs = {command: _run(doc, command) for command in ("verify", "derive-h", "total-bundle", "decompose")}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        runs["demo christoffel"] = main(["--format", "json", "demo", "christoffel"]), out.getvalue(), err.getvalue()
    for command, (code, out, err) in runs.items():
        assert code == 3, (command, code, err)
        records = json.loads(out).get("checks", []) if out else []
        named = [r for r in records if r["status"] == "cannot-certify" and "term budget" in r.get("witness", "")]
        assert "term budget" in err or named, command


def test_an_exponent_above_the_term_budget_is_cannot_certify_at_once(tmp_path):
    """x0^(10^9) added to K's w component: the power chain is refused before
    it is built, so verify exits 3 within seconds, naming the budget.  It
    runs in a child process so that a chain that is built fails the test by
    its timeout rather than stalling the suite."""
    doc = serialize.connection_to_json(canonical_connection(1))
    doc["K"]["components"][1]["terms"].append({"coeff": "1", "exps": [10**9, 0, 0, 0]})
    path = tmp_path / "doc.json"
    path.write_text(serialize.dumps(doc), encoding="utf-8")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run(
        [sys.executable, "-m", "tangentcat.cli", "--format", "json", "verify", str(path)],
        capture_output=True, text=True, timeout=5, env={**os.environ, "PYTHONPATH": src},
    )
    assert (done.returncode, done.stderr) == (3, "")
    assert "a power of exponent 1000000000 exceeds the term budget" in done.stdout


def _sweep_documents():
    """Canonical and Christoffel connections and a K-mutant of the latter, n = 1 and 2."""
    docs = {}
    for n in (1, 2):
        docs[f"canonical-{n}"] = serialize.connection_to_json(canonical_connection(n))
        docs[f"christoffel-{n}"] = serialize.connection_to_json(INSTANCES[f"christoffel-{n}"]())
        docs[f"K-mutant-{n}"] = _mutant(f"christoffel-{n}", "K", 1)
    return docs


SWEEP_DOCUMENTS = _sweep_documents()
# Every budget up to past where each document reaches its unbudgeted exit,
# and two far above it.
SWEEP_BUDGETS = (*range(12), 64, 1024)


@pytest.mark.parametrize("name", sorted(SWEEP_DOCUMENTS))
def test_every_term_budget_gives_the_unbudgeted_exit_or_cannot_certify(name, monkeypatch):
    """At every budget each command exits as it does with none, or with 3,
    and writes nothing to stderr: a budget met in a check is its record."""
    doc = SWEEP_DOCUMENTS[name]
    texts = {
        command: serialize.dumps(doc["bundle"] if command == "verify-bundle" else doc)
        for command in ("verify", "derive-h", "total-bundle", "verify-bundle")
    }
    unbudgeted = {command: _run(text, command)[0] for command, text in texts.items()}
    for budget in SWEEP_BUDGETS:
        monkeypatch.setattr(polycore, "TERM_BUDGET", budget)
        for command, text in texts.items():
            code, _, err = _run(text, command)
            assert code in (unbudgeted[command], 3) and err == "", (command, budget, code, err)


def _rival_h():
    """The canonical connection, n = 1, with H's last component x1 x2: its
    horizontal records are computed, and some fail."""
    c = canonical_connection(1)
    y = [Polynomial.variable(3, i) for i in range(3)]
    return c.replace(H=PolyMap(3, c.H.components[:3] + (y[1] * y[2],)))


SWEEP_CONNECTIONS = {
    "canonical-1": lambda: canonical_connection(1),
    "canonical-2": lambda: canonical_connection(2),
    "christoffel-1": INSTANCES["christoffel-1"],
    "christoffel-2": INSTANCES["christoffel-2"],
    "rival-H": _rival_h,
}
# Each check with the decomposition it is given: none, so that the
# horizontal and pair records are computed rather than decided.
SWEEP_CHECKS = {
    "check_horizontal": check_horizontal,
    "check_pair": check_pair,
    "equivalence_suite": equivalence_suite,
    "verify_connection": lambda c: verify_connection(c)[0],
}


def _failing_records(c):
    return {(check, r.name) for check, run in SWEEP_CHECKS.items() for r in run(c).records if r.status is Status.FAIL}


@pytest.mark.parametrize("name", sorted(SWEEP_CONNECTIONS))
def test_no_record_fails_only_under_a_term_budget(name, monkeypatch):
    """A budget met in a check leaves a record cannot-certify, never failed:
    at every budget each failing record also fails at the default one."""
    build = SWEEP_CONNECTIONS[name]
    refuted = _failing_records(build())
    for budget in SWEEP_BUDGETS:
        c = build()
        with monkeypatch.context() as m:
            m.setattr(polycore, "TERM_BUDGET", budget)
            failing = _failing_records(c)
        assert failing <= refuted, (budget, failing - refuted)


def test_decide_records_an_exhausted_budget_as_cannot_certify():
    def build():
        raise BudgetExceeded("over the term budget")

    rep = Report(subject="budget")
    assert rep.decide("law", "lhs = rhs", None, build) is False
    assert [(r.name, r.status, r.witness) for r in rep.records] == [
        ("law", Status.CANNOT_CERTIFY, "over the term budget")
    ]


def test_a_summary_keeps_a_cannot_certify_sub_report():
    sub = Report(subject="axiom")
    sub.check("square", "f = g", True)
    sub.add(CheckRecord("addition", "h = k", Status.CANNOT_CERTIFY, "over the term budget"))
    rep = Report(subject="bundle")
    assert rep.summary("axiom", "both squares", sub) is False
    assert [(r.status, r.witness) for r in rep.records] == [(Status.CANNOT_CERTIFY, "addition (over the term budget)")]
    sub.check("zero", "z = 0", False, "component 0")
    rep.summary("axiom", "both squares", sub)
    assert (rep.records[-1].status, rep.records[-1].witness) == (Status.FAIL, "addition (over the term budget); zero")
