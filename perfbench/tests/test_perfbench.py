"""Tests of the benchmark itself: generator, tracer and reported metric names.

Run from the root of the repository with ``python3 -m pytest perfbench/tests -q``.
"""

import inspect
import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

import tangentcat
import tangentcat.cli
from tangentcat import serialize
from tangentcat.connection import (
    canonical_connection,
    check_effective,
    christoffel_connection,
    derive_horizontal,
)
from tangentcat.dbundle import tangent_bundle, trivial_bundle
from tangentcat.polycore import Polynomial
from tangentcat.tangent import Space
from tangentcat.whitney import biproduct

import run
import tracer
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def first_cycles(workload, seed, count=1):
    stream = workloads.cycles(workload, seed)
    return [next(stream) for _ in range(count)]


# --------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    a, b = first_cycles(workload, 5, 2), first_cycles(workload, 5, 2)
    assert a == b
    names = [d.name for cycle in a for d in cycle]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_the_class_mix(workload):
    (a,), (b,) = first_cycles(workload, 1), first_cycles(workload, 2)
    assert [d.cls for d in a] == [d.cls for d in b]
    assert [d.text for d in a] != [d.text for d in b]


def _canonical(doc_dict):
    """The engine's own bytes for a generated bundle document."""
    return serialize.dumps(serialize.bundle_to_json(serialize.bundle_from_json(doc_dict)))


def test_bundle_documents_match_the_engine_constructors():
    R = Space.euclidean
    cases = [(workloads.tangent_bundle(n), tangent_bundle(R(n))) for n in (1, 2, 3)]
    cases += [
        (workloads.linear_bundle(m, [("w", f)]), trivial_bundle(R(m), f))
        for m in (1, 2, 3, 4)
        for f in (1, 2, 3)
    ]
    cases.append(
        (
            workloads.linear_bundle(2, [("w1", 1), ("w2", 2), ("w3", 2)]),
            biproduct([trivial_bundle(R(2), 1), tangent_bundle(R(2)), trivial_bundle(R(2), 2)]).sum,
        )
    )
    for n in (1, 2):
        _, decomp = check_effective(canonical_connection(n))
        cases.append((workloads.linear_bundle(n, [("t", n), ("u", n), ("v", n)]), decomp.total))
    for doc, engine in cases:
        assert _canonical(doc) == serialize.dumps(serialize.bundle_to_json(engine))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_connection_documents_match_the_engine(n):
    gamma = workloads.random_gamma(n, n - 1, random.Random(n))
    table = tuple(
        tuple(tuple(Polynomial.from_terms(n, entry) for entry in row) for row in plane) for plane in gamma
    )
    engine = christoffel_connection(Space.euclidean(n), table)
    text = workloads.connection_doc(n, workloads.christoffel_K(n, gamma), workloads.christoffel_H(n, gamma))
    doc = serialize.connection_from_json(json.loads(text))
    assert doc.bundle == engine.bundle
    assert doc.K == engine.K
    assert doc.H == derive_horizontal(engine).H

    flat = canonical_connection(n)
    doc = serialize.connection_from_json(
        json.loads(workloads.connection_doc(n, workloads.canonical_K(n), workloads.canonical_H(n)))
    )
    assert (doc.bundle, doc.K, doc.H) == (flat.bundle, flat.K, flat.H)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_known_answers_hold(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (cycle,) = first_cycles(workload, 9)
    for doc in cycle:
        run.write_doc(doc)
        outcome = run.call(tangentcat.cli, doc)
        assert outcome.rc == doc.expect, (doc.cls, outcome.rc, outcome.error)
        assert run.wrong_output(doc, outcome) is None


def test_defect_probe_is_seeded_and_outside_the_workloads(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    probe = workloads.defect_probe("verify-christoffel", 9)
    assert probe == workloads.defect_probe("verify-christoffel", 9)
    assert probe and all(doc.expect == workloads.EXIT_FAIL for doc in probe)
    assert workloads.defect_probe("structural", 9) == []
    timed = {d.cls for w in workloads.WORKLOADS for d in first_cycles(w, 9)[0]}
    assert not timed & {d.cls for d in probe}
    tally = run.Tally()
    lines = run.run_probe(tangentcat.cli, probe, tally)
    assert len(lines) == len(probe) and tally.attempted == 0 and tally.wrong == []


# ------------------------------------------------------------------ tracer


def _bindings():
    """Every function object bound in a tangentcat module or traced class."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "tangentcat" or name.startswith("tangentcat."):
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj):
                    out[(name, attr)] = obj
    for short, cls_name, meth, _ in tracer.METHODS:
        cls = getattr(sys.modules["tangentcat." + short], cls_name)
        out[(cls_name, meth)] = cls.__dict__[meth]
    return out


def test_tracer_replaces_names_bound_by_from_imports():
    before = _bindings()
    original = tangentcat.polycore.compose
    t = tracer.Tracer()
    t.install(tangentcat)
    try:
        assert tangentcat.polycore.compose is not original
        assert tangentcat.dbundle.compose is tangentcat.polycore.compose
        assert tangentcat.compose is tangentcat.polycore.compose
        assert tangentcat.cli.verify_bundle is tangentcat.dbundle.verify_bundle
        assert Polynomial.__mul__ is not before[("Polynomial", "__mul__")]
    finally:
        t.uninstall()
    assert _bindings() == before


def _mixed_cycle():
    """A structural cycle plus the verify-christoffel classes below n = 3."""
    (structural,) = first_cycles("structural", 4)
    (verify,) = first_cycles("verify-christoffel", 4)
    return structural + [d for d in verify if "n3" not in d.cls]


def test_tracer_changes_no_exit_code_or_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cycle = _mixed_cycle()
    plain = run.run_plain(tangentcat.cli, iter([cycle]), 0, min_docs=0)
    before = _bindings()
    traced, metrics = run.run_traced(tangentcat, iter([cycle]), 0, str(tmp_path / "spans.bin"))
    assert _bindings() == before
    assert traced.wrong == [] and plain.wrong == []
    assert traced.attempted == plain.attempted == len(cycle)
    assert traced.failed == plain.failed
    assert traced.first_cycle_digest == plain.first_cycle_digest
    assert traced.digest.hexdigest() == plain.digest.hexdigest()
    assert metrics["polycore.compose.calls"][0] > 0
    assert 0 < metrics["polycore.compose.selection_share"][0] < 1
    assert (tmp_path / "spans.bin").stat().st_size > 0


def test_self_times_partition_the_root_spans(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (cycle,) = first_cycles("structural", 2)
    t = tracer.Tracer()
    t.install(tangentcat)
    try:
        for i, doc in enumerate(cycle):
            t.current_doc = i
            run.write_doc(doc)
            run.call(tangentcat.cli, doc)
    finally:
        t.uninstall()
    agg = t.aggregate()
    root = agg[tracer.ROOT]
    assert root["calls"] == len(cycle)
    assert abs(sum(rec["self_s"] for rec in agg.values()) - root["s"]) < 1e-6
    assert all(rec["self_s"] <= rec["s"] + 1e-9 for rec in agg.values())
    assert set(t.doc) == set(range(len(cycle)))


# ----------------------------------------------------------------- metrics


def test_metric_names_and_units_match_benchmark_json(tmp_path, monkeypatch):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    monkeypatch.chdir(tmp_path)
    (cycle,) = first_cycles("structural", 3)
    machine = run.Machine()
    plain = run.run_plain(tangentcat.cli, iter([cycle]), 0, min_docs=0, machine=machine)
    _, layers = run.run_traced(tangentcat, iter([cycle]), 0, str(tmp_path / "spans.bin"))
    ends = run.end_to_end(plain, machine)
    assert {k: u for k, (_, u) in ends.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name in list(ends) + list(layers):
        assert METRIC_NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_times_scale_with_the_nearby_calibration_loop():
    m = run.Machine()
    m.cal_at, m.cal_s = [0.0, 1.0, 10.0], [run.REF_CAL_S, run.REF_CAL_S, 2 * run.REF_CAL_S]
    assert m.scale(0.5, 0.2) == 1.0
    assert m.scale(10.2, 0.1) == 0.5


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "structural", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
