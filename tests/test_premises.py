"""Records decided by a premise, against the composites they stand for.

``Report.decide`` passes a record by its premise, when it has one, without
building the record's composites.  Replacing it by a ``decide`` that builds
whenever a build is given turns every such shortcut off at once.  These
tests run the pinned corpus, the verdict-contract documents and seeded
perturbations both ways and require the same bytes; they pin which records
each premise decides; and they search for a connection that passes on a
bundle that is not a differential bundle.
"""

import contextlib
import io
import os
import random
import tempfile
import time
from fractions import Fraction

import pytest

import test_pinned_output as pinned
import test_verdict_contract as contract
from tangentcat import cli, serialize
from tangentcat.cli import main
from tangentcat.connection import (
    Connection,
    canonical_connection,
    check_effective,
    check_horizontal,
    check_pair,
    christoffel_connection,
    derive_horizontal,
    equivalence_suite,
    verify_connection,
)
from tangentcat.dbundle import additive_morphism_report, trivial_bundle, verify_bundle
from tangentcat.polycore import PolyMap, Polynomial, map_equal
from tangentcat.report import Report, Status
from tangentcat.tangent import Space, zero_0

DECIDE = Report.decide


def computed_decide(self, name, law, premise, build=None):
    """``Report.decide`` with the premise dropped wherever a build is given."""
    return DECIDE(self, name, law, None if build is not None else premise, build)


def report_bytes(report):
    return serialize.dumps(report.to_dict()), report.render_text()


def both_ways(monkeypatch, run):
    """``run()`` with the premises, then with every record that has a build computed."""
    by_premise = run()
    with monkeypatch.context() as m:
        m.setattr(Report, "decide", computed_decide)
        computed = run()
    return by_premise, computed


def x(arity, i):
    return Polynomial.variable(arity, i)


# ------------------------------------------------------ the documents and runs


def run_cli(monkeypatch, argv, files=()):
    """Exit code, stdout, stderr, the bytes of every emitted report, and of ``files``."""
    emitted = []
    emit = cli._emit

    def capture(report, fmt, extra=None):
        emitted.append(report_bytes(report))
        emit(report, fmt, extra)

    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as m, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        m.setattr(cli, "_emit", capture)
        code = main(argv)
    written = [open(f, encoding="utf-8").read() if os.path.exists(f) else None for f in files]
    return code, out.getvalue(), err.getvalue(), emitted, written


def run_document(monkeypatch, doc, command, point=None):
    """``run_cli`` on one document in a fresh directory, with its sidecars."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(doc))
        argv = ["verify", "--kind", "bundle", path] if command == "verify-bundle" else [command, path]
        if command == "decompose":
            argv.append(point)
        sidecars = [os.path.join(tmp, "doc.h.json"), os.path.join(tmp, "doc.total.json")]
        code, out, err, emitted, written = run_cli(monkeypatch, ["--format", "json"] + argv, sidecars)
    return code, out.replace(tmp, "DIR"), err.replace(tmp, "DIR"), emitted, written


def pinned_corpus(monkeypatch):
    """Every input of tests/test_pinned_output.py, run through the CLI or the library."""
    out = []
    for command, build, _, _ in pinned.CLI_CASES.values():
        out.append(run_document(monkeypatch, serialize.connection_to_json(build()), command))
    for build, _ in pinned.TOTAL_BUNDLE_CASES.values():
        out.append(run_document(monkeypatch, serialize.connection_to_json(build()), "total-bundle"))
    for build, _, _ in pinned.BUNDLE_CASES.values():
        out.append(run_document(monkeypatch, build(), "verify-bundle"))
    out.append(run_document(monkeypatch, serialize.connection_to_json(canonical_connection(1)), "decompose", "1/2,2,3,4"))
    out.append(run_document(monkeypatch, serialize.connection_to_json(pinned._christoffel()), "derive-h"))
    for name in ("canonical", "christoffel", "tangent-axioms"):
        for fmt in ("text", "json"):
            out.append(run_cli(monkeypatch, ["--format", fmt, "demo", name]))
    for build in (lambda: canonical_connection(1), pinned._christoffel):
        for mutant, (field, slot) in sorted(pinned.MUTANT_SLOTS.items()):
            doc = serialize.connection_to_json(build())
            spot = doc["bundle"][field]
            last = x(spot["dom"], spot["dom"] - 1)
            spot["components"][slot] = serialize.poly_to_json(serialize.poly_from_json(spot["components"][slot]) + last)
            for command in ("verify", "total-bundle"):
                out.append(run_document(monkeypatch, doc, command))
    out.extend(report_bytes(equivalence_suite(c)) for c in pinned._suite_instances())
    out.extend(report_bytes(verify_bundle(b)) for b in pinned._sweep_bundles())
    return out


def contract_documents(monkeypatch):
    """The valid documents and every seeded mutant of tests/test_verdict_contract.py, under each command."""
    out = []
    for kind, docs in sorted(contract.VALID_DOCUMENTS.items()):
        commands = ("verify-bundle",) if kind == "bundle" else ("verify", "derive-h", "total-bundle", "decompose")
        for doc in docs:
            point = ",".join(["1"] * (2 * doc["bundle"]["total"]["dim"])) if kind == "connection" else None
            out.extend(run_document(monkeypatch, doc, command, point) for command in commands)
    for instance in sorted(contract.INSTANCES):
        for field in sorted(contract.FIELDS):
            for seed in (1, 2, 3):
                doc = contract._mutant(instance, field, seed)
                point = ",".join(["1"] * (2 * doc["bundle"]["total"]["dim"]))
                for command in contract.COMMANDS:
                    target = doc["bundle"] if command == "verify-bundle" else doc
                    out.append(run_document(monkeypatch, target, command, point))
    return out


def perturbed(c, field, rng):
    """c with one term c y or c y z added to one component of sigma, zeta, lambda, K or H.

    Half the K perturbations add a Christoffel-shaped term g(x) t_i u_j to
    a fibre component, which gives another connection on the same bundle.
    """
    b = c.bundle
    m = {"sigma": b.sigma, "zeta": b.zeta, "lambda": b.lift, "K": c.K, "H": c.H}[field]
    comps = list(m.components)
    dom, k = m.domain_dim, rng.randrange(len(comps))
    if field == "K" and rng.random() < 0.5:
        n, f = b.base.dim, b.fibre_dim
        k = n + rng.randrange(f)
        term = x(dom, n + rng.randrange(f)) * x(dom, n + f + rng.randrange(n))
        if rng.random() < 0.5:
            term = term * x(dom, rng.randrange(n))
    else:
        term = x(dom, rng.randrange(dom))
        if rng.random() < 0.5:
            term = term * x(dom, rng.randrange(dom))
    comps[k] = comps[k] + term.scale(rng.choice((-2, -1, Fraction(1, 2), 1, 3)))
    moved = PolyMap(dom, tuple(comps))
    if field in ("K", "H"):
        return c.replace(**{field: moved})
    return c.replace(bundle=b.replace(**{"lift" if field == "lambda" else field: moved}))


def christoffel_1(rng):
    """A Christoffel connection over R^1 with a seeded table entry of degree at most 1."""
    entry = Polynomial.from_terms(1, {(rng.randint(0, 1),): Fraction(rng.choice((-2, -1, 1, 3)), rng.randint(1, 2))})
    return christoffel_connection(Space.euclidean(1), (((entry,),),))


MODELS = {
    "canonical n=1": lambda rng: canonical_connection(1),
    "canonical n=2": lambda rng: canonical_connection(2),
    "christoffel n=1": christoffel_1,
}


def perturbations(models, count, seed):
    """``count`` seeded single-term perturbations per model, each of H absent or derived."""
    for name in sorted(models):
        rng = random.Random(f"{seed} {name}")
        for case in range(count):
            c = models[name](rng)
            c = derive_horizontal(c) if case % 2 else Connection(bundle=c.bundle, K=c.K)
            fields = ("sigma", "zeta", "lambda", "K", "H") if c.H is not None else ("sigma", "zeta", "lambda", "K")
            yield perturbed(c, rng.choice(fields), rng)


def perturbed_reports(monkeypatch):
    """verify_connection and verify_bundle on each seeded perturbation."""
    out = []
    for c in perturbations(MODELS, 40, "decide"):
        out.append(report_bytes(verify_connection(c)[0]))
        out.append(report_bytes(verify_bundle(c.bundle)))
    return out


# ------------------------------------------------------------- differential


@pytest.mark.parametrize(
    "corpus",
    [pinned_corpus, contract_documents, perturbed_reports],
    ids=["pinned corpus", "verdict-contract documents", "seeded perturbations"],
)
def test_premises_give_the_bytes_of_the_computed_records(corpus, monkeypatch):
    by_premise, computed = both_ways(monkeypatch, lambda: corpus(monkeypatch))
    assert len(by_premise) == len(computed)
    for i, (a, b) in enumerate(zip(by_premise, computed)):
        assert a == b, i


def test_the_perturbations_reach_every_premise():
    """The sweep is not vacuous: every premise decides some record in it, and
    some of its connections fail."""
    premises, verdicts = set(), []
    for c in perturbations(MODELS, 40, "decide"):
        b = c.bundle
        report = verify_connection(c)[0]
        verdicts.append(report.passed)
        sub = additive_morphism_report("axiom 2", b.lift, zero_0(b.base), b, b.tangent)
        premises |= {r.premise for r in (*report.records, *verify_bundle(b).records, *sub.records)}
    assert premises - {None} == {
        "additivity of K", "fibrewise linear", "standard position", "T is a functor", "two-sided inverse",
        "uniqueness of H",
    }
    assert any(verdicts) and not all(verdicts)


# ------------------------------------------------ the partial-bundle premise


def christoffel_2():
    """A Christoffel connection over R^2 with a fixed table."""
    zero = Polynomial.zero(2)
    table = (
        ((zero, x(2, 1)), (zero, zero)),
        ((x(2, 0).scale(2), zero), (zero, Polynomial.constant(2, Fraction(1, 2)))),
    )
    return christoffel_connection(Space.euclidean(2), table)


PARTIAL_MODELS = {
    "canonical n=1": lambda: canonical_connection(1),
    "canonical n=2": lambda: canonical_connection(2),
    "christoffel n=1": pinned._christoffel,
    "christoffel n=2": christoffel_2,
}


def bundle_perturbations():
    """Each model, with H supplied and with H absent, on a bundle whose sigma
    or zeta moves the base point: sigma's base component plus each fibre
    coordinate of the fibre square, and zeta's base component plus 1 and
    minus 1/2.  Yields (field, connection)."""
    for name in sorted(PARTIAL_MODELS):
        c = PARTIAL_MODELS[name]()
        for full in (c if c.H is not None else derive_horizontal(c), Connection(bundle=c.bundle, K=c.K)):
            b = full.bundle
            s, z = b.sigma, b.zeta
            for k in range(b.base.dim, s.domain_dim):
                sigma = PolyMap(s.domain_dim, (s.components[0] + x(s.domain_dim, k),) + s.components[1:])
                yield "sigma", full.replace(bundle=b.replace(sigma=sigma))
            for shift in (1, Fraction(-1, 2)):
                zeta = PolyMap(z.domain_dim, (z.components[0] + Polynomial.constant(z.domain_dim, shift),) + z.components[1:])
                yield "zeta", full.replace(bundle=b.replace(zeta=zeta))


def test_bundles_off_their_base_give_the_bytes_of_the_computed_partial_bundles(monkeypatch):
    """The premise "additivity of K" decides the two partial-bundle records
    from K's additivity and the records written before them, with no
    squares of the bundle's own structure; on bundles whose sigma or zeta
    moves the base point, the reports are those of the computed records,
    byte for byte.  The sigma perturbations pass the vertical gate, the sum
    and the injections, so they reach both partial-bundle records on their
    computed path; the zeta perturbations stop at the sum's annihilation
    law.  Perturbations of lambda's w or u block are left out: they stop at
    the vertical gate."""
    cases = list(bundle_perturbations())
    assert len(cases) == 40

    def run():
        return [
            [report_bytes(r) for r in (verify_connection(c)[0], check_effective(c)[0], equivalence_suite(c))]
            for _, c in cases
        ]

    by_premise, computed = both_ways(monkeypatch, run)
    for i, (a, b) in enumerate(zip(by_premise, computed)):
        assert a == b, cases[i]
    for field, c in cases:
        records = check_effective(c)[0].records
        names = [r.name for r in records]
        if field == "sigma":
            assert names[-2:] == ["first partial bundle", "second partial bundle"], c
            assert all(r.status is Status.PASS for r in records[:-2]), c
            assert [r.premise for r in records[-2:]] == [None, None], c
            assert records[-1].status is Status.FAIL, c
        else:
            assert "first partial bundle" not in names, c
            assert next(r for r in records if r.name == "Whitney sum: annihilation 2,1").status is Status.FAIL, c


# -------------------------------------------------------- the premise table


def premise_table(report):
    return [(r.name, r.premise) for r in report.records if r.premise is not None]


FORCED_H = [
    ("horizontal: section", "uniqueness of H"),
    ("horizontal: linearity over the total space: projection square", "uniqueness of H"),
    ("horizontal: linearity over the total space: lift square", "uniqueness of H"),
    ("horizontal: linearity over the tangent base: projection square", "uniqueness of H"),
    ("horizontal: linearity over the tangent base: lift square", "uniqueness of H"),
    ("pair: compatibility", "uniqueness of H"),
    ("pair: decomposition of the identity", "uniqueness of H"),
]
CONNECTION_TABLE = [
    ("effectiveness: Whitney sum: tangential", "T is a functor"),
    ("effectiveness: first partial bundle", "additivity of K"),
    ("effectiveness: second partial bundle", "additivity of K"),
] + FORCED_H


@pytest.mark.parametrize("build", [lambda: canonical_connection(1), pinned._christoffel], ids=["canonical", "christoffel"])
def test_the_records_each_premise_decides_in_a_connection(build):
    assert premise_table(verify_connection(build())[0]) == CONNECTION_TABLE


def test_the_records_each_premise_decides_in_a_bundle():
    b = trivial_bundle(Space.euclidean(1), 1)
    assert premise_table(verify_bundle(b)) == [
        ("tangential fibre power", "standard position"),
        ("axiom 4: left inverse", "two-sided inverse"),
        ("axiom 4: preserved by T", "T is a functor"),
    ]
    # axioms 2 and 3 are summaries of additive_morphism_report, whose records
    # the bundle's fibrewise addition decides
    sub = additive_morphism_report("axiom 2", b.lift, zero_0(b.base), b, b.tangent)
    assert premise_table(sub) == [
        ("zero preservation", "fibrewise linear"),
        ("addition preservation", "fibrewise linear"),
    ]


def test_a_decomposition_of_another_K_decides_nothing():
    """The premise "uniqueness of H" is taken only from the decomposition of
    c's own K: the canonical H under a Christoffel K, given the canonical
    decomposition, is checked record by record and fails."""
    canonical = canonical_connection(1)
    d = verify_connection(canonical)[1]
    other = canonical.replace(K=pinned._christoffel().K)
    assert map_equal(other.H, d.horizontal)
    pair, horizontal = check_pair(other, d), check_horizontal(other, d)
    assert {r.premise for r in (*pair.records, *horizontal.records)} == {None}
    assert [r.name for r in pair.failing()] == ["compatibility", "decomposition of the identity"]


def test_a_decomposition_of_another_bundle_decides_nothing():
    """Nor is it taken from the decomposition of another bundle: the
    canonical K and H on the tangent bundle with lambda's last component
    doubled, given the canonical decomposition, are checked record by
    record, and the decomposition of the identity fails."""
    canonical = canonical_connection(1)
    d = check_effective(canonical)[1]
    lift = canonical.bundle.lift
    doubled = PolyMap(lift.domain_dim, lift.components[:-1] + (lift.components[-1].scale(2),))
    other = canonical.replace(bundle=canonical.bundle.replace(lift=doubled))
    pair = check_pair(other, d)
    assert {r.premise for r in pair.records} == {None}
    assert [(r.name, r.witness) for r in pair.failing()] == [
        ("decomposition of the identity", "component 3: coefficient of x3^1 differs by 1")
    ]


def test_no_output_names_a_premise(capsys):
    for fmt in ("text", "json"):
        for name in ("canonical", "christoffel", "tangent-axioms"):
            assert main(["--format", fmt, "demo", name]) == 0
            assert "premise" not in capsys.readouterr().out


# ------------------------------------------------------ the bundle premise


def test_a_passing_connection_lies_on_a_differential_bundle():
    """Whenever ``verify_connection`` passes, ``verify_bundle`` passes on its
    bundle: the evidence, not a proof, for the premise that
    ``_horizontal_is_forced`` takes from a passing chain.  Each case adds one term to sigma, zeta, lambda or K of
    canonical n = 1, 2, Christoffel n = 1 or the trivial bundle over R^1
    with the canonical K, with no H.  The search is not vacuous: some
    connections pass, and many bundles that are not differential bundles
    get past the vertical gate, where the premises are taken."""
    models = dict(MODELS)
    models["trivial over R^1"] = lambda rng: Connection(trivial_bundle(Space.euclidean(1), 1), PolyMap.selection(4, [0, 3]))
    start = time.perf_counter()
    passed = reached = 0
    for name in sorted(models):
        rng = random.Random(f"bundle premise {name}")
        for _ in range(25):
            c = models[name](rng)
            c = perturbed(Connection(bundle=c.bundle, K=c.K), rng.choice(("sigma", "zeta", "lambda", "K")), rng)
            report = verify_connection(c)[0]
            if verify_bundle(c.bundle).passed:
                passed += report.passed
            else:
                assert not report.passed, c
                reached += next(r for r in report.records if r.name == "effectiveness: gate").status is Status.PASS
    assert passed >= 5 and reached >= 50, (passed, reached)
    assert time.perf_counter() - start < 10
