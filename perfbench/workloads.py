"""Seeded input generator for the tangentcat benchmark.

Every document is built here as plain JSON, without calling the engine, so
the inputs of a seed stay the same bytes whatever a later change does to the
engine's constructors.  Each document carries the exit code its class is
known to produce (0 pass, 2 fail).

A workload is a fixed *cycle* of input classes.  A plain run executes whole
cycles, and every cycle draws fresh coefficients from the seeded generator,
so the mix of classes in a run does not depend on the seed or on how fast
the machine is; only the coefficients do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

EXIT_PASS = 0
EXIT_FAIL = 2

@dataclass(frozen=True)
class Doc:
    """One CLI call: ``argv`` names the document file as ``{doc}``."""

    name: str
    cls: str
    argv: tuple[str, ...]
    text: Optional[str]
    expect: int
    sidecar: Optional[str] = None


# ----------------------------------------------------------------- JSON


def _poly(arity: int, terms: dict[tuple[int, ...], Fraction]) -> dict:
    return {
        "arity": arity,
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in sorted(terms.items()) if c != 0
        ],
    }


def _var(arity: int, i: int) -> dict[tuple[int, ...], Fraction]:
    e = [0] * arity
    e[i] = 1
    return {tuple(e): Fraction(1)}


def _map(dom: int, comps: list[dict]) -> dict:
    return {"dom": dom, "cod": len(comps), "components": [_poly(dom, c) for c in comps]}


def _space(blocks: list[tuple[str, int]]) -> dict:
    return {"dim": sum(k for _, k in blocks), "layout": [[n, k] for n, k in blocks]}


def linear_bundle(m: int, fibre_blocks: list[tuple[str, int]]) -> dict:
    """A base-first bundle over R^m with fibrewise addition and the linear lift.

    Trivial bundles, tangent bundles, canonical Whitney sums of those, and
    the total bundles of canonical connections all have this shape; they
    differ only in how the fibre coordinates are named.
    """
    f = sum(k for _, k in fibre_blocks)
    e = m + f
    sq = e + f
    sigma = [_var(sq, i) for i in range(m)]
    sigma += [{**_var(sq, m + i), **_var(sq, e + i)} for i in range(f)]
    zeta = [_var(m, i) for i in range(m)] + [{} for _ in range(f)]
    lift = [_var(e, i) for i in range(m)] + [{} for _ in range(f + m)]
    lift += [_var(e, m + i) for i in range(f)]
    return {
        "total": _space([("x", m)] + fibre_blocks),
        "base": _space([("x", m)]),
        "base_coords": list(range(m)),
        "sigma": _map(sq, sigma),
        "zeta": _map(m, zeta),
        "lambda": _map(e, lift),
    }


def tangent_bundle(n: int) -> dict:
    return linear_bundle(n, [("t", n)])


def dumps(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------- connections


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def random_gamma(n: int, degree: int, rng: random.Random) -> list:
    """A Christoffel table: one monomial of the given degree (0..2) in x per entry.

    The shape of the acceptance generator, except that each cycle slot fixes
    the degree and coefficients are never zero: the seed picks variables and
    coefficients, while the work per document, which the degree sets, is
    the same for every seed.
    """

    def entry() -> dict[tuple[int, ...], Fraction]:
        exps = [0] * n
        for _ in range(degree):
            exps[rng.randrange(n)] += 1
        return {tuple(exps): _coeff(rng)}

    return [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(n)]


def _pad(exps: tuple[int, ...], arity: int) -> list[int]:
    """Exponents in the base variables, extended to ``arity`` variables."""
    return list(exps) + [0] * (arity - len(exps))


def christoffel_K(n: int, gamma: list) -> list[dict]:
    """K(x, t, u, v) = (x, v + Gamma(x)(t, u)) on the coordinates of TTM."""
    dom = 4 * n
    comps = [_var(dom, i) for i in range(n)]
    for k in range(n):
        acc = dict(_var(dom, 3 * n + k))
        for i in range(n):
            for j in range(n):
                for exps, c in gamma[k][i][j].items():
                    e = _pad(exps, dom)
                    e[n + i] += 1
                    e[2 * n + j] += 1
                    acc[tuple(e)] = acc.get(tuple(e), Fraction(0)) + c
        comps.append(acc)
    return comps


def christoffel_H(n: int, gamma: list) -> list[dict]:
    """H(x, w, u) = (x, w, u, -Gamma(x)(w, u)), the horizontal map K determines."""
    hat = 3 * n
    comps = [_var(hat, i) for i in range(hat)]
    for k in range(n):
        acc: dict[tuple[int, ...], Fraction] = {}
        for i in range(n):
            for j in range(n):
                for exps, c in gamma[k][i][j].items():
                    e = _pad(exps, hat)
                    e[n + i] += 1
                    e[2 * n + j] += 1
                    acc[tuple(e)] = acc.get(tuple(e), Fraction(0)) - c
        comps.append(acc)
    return comps


def connection_doc(n: int, K: list[dict], H: Optional[list[dict]]) -> str:
    doc = {"bundle": tangent_bundle(n), "K": _map(4 * n, K)}
    if H is not None:
        doc["H"] = _map(3 * n, H)
    return dumps(doc)


def canonical_K(n: int) -> list[dict]:
    return [_var(4 * n, i) for i in range(n)] + [_var(4 * n, 3 * n + i) for i in range(n)]


def canonical_H(n: int) -> list[dict]:
    return [_var(3 * n, i) for i in range(3 * n)] + [{} for _ in range(n)]


def _monomial(arity: int, positions: list[int]) -> tuple[int, ...]:
    e = [0] * arity
    for p in positions:
        e[p] += 1
    return tuple(e)


def _add(comp: dict, exps: tuple[int, ...], c: Fraction) -> dict:
    out = dict(comp)
    out[exps] = out.get(exps, Fraction(0)) + c
    return out


def mutate_K(n: int, K: list[dict], kind: str, rng: random.Random) -> list[dict]:
    """Perturb one monomial of a fibre component of K so that an identity breaks.

    scale-v: v_k gets a coefficient other than 1, so lift-then-K is not the
    identity.  pure-x: a term in x alone survives the lift, with the same
    effect.  quad-t / quad-u / quad-v: a term quadratic in one fibre block
    makes K non-additive over the corresponding projection.
    """
    dom = 4 * n
    k = rng.randrange(n)
    comp = K[n + k]
    if kind == "scale-v":
        v = _monomial(dom, [3 * n + k])
        comp = {**comp, v: rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2), Fraction(3)))}
    elif kind == "pure-x":
        comp = _add(comp, _monomial(dom, [rng.randrange(n) for _ in range(rng.randint(0, 2))]), _coeff(rng))
    else:
        block = {"quad-t": 1, "quad-u": 2, "quad-v": 3}[kind]
        pos = [block * n + rng.randrange(n) for _ in range(2)]
        comp = _add(comp, _monomial(dom, pos), _coeff(rng))
    return K[: n + k] + [comp] + K[n + k + 1:]


def mutate_H(n: int, H: list[dict], index: int, rng: random.Random) -> list[dict]:
    """Add one monomial of degree 1..2 to component ``index`` of H."""
    hat = 3 * n
    pos = [rng.randrange(hat) for _ in range(rng.randint(1, 2))]
    return H[:index] + [_add(H[index], _monomial(hat, pos), _coeff(rng))] + H[index + 1:]


# ------------------------------------------------------------- workloads

Maker = Callable[[random.Random, str], Doc]
VERIFY = ("--format", "json", "verify", "{doc}")
VERIFY_BUNDLE = ("--format", "json", "verify", "--kind", "bundle", "{doc}")
TOTAL = ("--format", "json", "total-bundle", "{doc}")


def _christoffel(n: int, degree: int, with_h: bool, argv=VERIFY, sidecar=None) -> Maker:
    def make(rng: random.Random, name: str) -> Doc:
        gamma = random_gamma(n, degree, rng)
        H = christoffel_H(n, gamma) if with_h else None
        cls = f"christoffel-n{n}" + ("-H" if with_h else "")
        return Doc(name, cls, argv, connection_doc(n, christoffel_K(n, gamma), H), EXIT_PASS, sidecar)

    return make


def _canonical(n: int, with_h: bool) -> Maker:
    def make(rng: random.Random, name: str) -> Doc:
        H = canonical_H(n) if with_h else None
        cls = f"canonical-n{n}" + ("-H" if with_h else "")
        return Doc(name, cls, VERIFY, connection_doc(n, canonical_K(n), H), EXIT_PASS)

    return make


def _K_mutant(n: int, kind: str) -> Maker:
    def make(rng: random.Random, name: str) -> Doc:
        gamma = random_gamma(n, 1, rng)
        K = mutate_K(n, christoffel_K(n, gamma), kind, rng)
        return Doc(name, f"mutant-K-{kind}", VERIFY, connection_doc(n, K, None), EXIT_FAIL)

    return make


def _H_mutant(n: int, block: str) -> Maker:
    """block: the coordinates of the perturbed component of H, 'x', 'w', 'u' or 'v'."""

    def make(rng: random.Random, name: str) -> Doc:
        gamma = random_gamma(n, 1, rng)
        first = "xwuv".index(block) * n
        H = mutate_H(n, christoffel_H(n, gamma), rng.randrange(first, first + n), rng)
        return Doc(name, f"mutant-H-{block}", VERIFY, connection_doc(n, christoffel_K(n, gamma), H), EXIT_FAIL)

    return make


def _bundle(m: int, blocks: list[tuple[str, int]], cls: str) -> Maker:
    def make(rng: random.Random, name: str) -> Doc:
        return Doc(name, cls, VERIFY_BUNDLE, dumps(linear_bundle(m, blocks)), EXIT_PASS)

    return make


def _lambda_mutant(m: int, f: int, kind: str) -> Maker:
    """A trivial bundle whose lift has one perturbed monomial in a vertical slot.

    scale: the vertical coordinate gets a coefficient c != 1, which breaks
    axiom 5 (c w against c^2 w).  quad: a term quadratic in the fibre makes
    the lift non-additive (axiom 2).  pure-x: a term in the base alone moves
    the zero section (axiom 3).
    """

    def make(rng: random.Random, name: str) -> Doc:
        doc = linear_bundle(m, [("w", f)])
        e = m + f
        slot = rng.randrange(f)
        comps = doc["lambda"]["components"]
        comp = {tuple(t["exps"]): Fraction(t["coeff"]) for t in comps[e + m + slot]["terms"]}
        if kind == "scale":
            comp[_monomial(e, [m + slot])] = rng.choice((Fraction(2), Fraction(-1), Fraction(1, 2)))
        elif kind == "quad":
            comp = _add(comp, _monomial(e, [m + rng.randrange(f) for _ in range(2)]), _coeff(rng))
        else:
            comp = _add(comp, _monomial(e, [rng.randrange(m) for _ in range(rng.randint(1, 2))]), _coeff(rng))
        comps[e + m + slot] = _poly(e, comp)
        return Doc(name, f"mutant-lambda-{kind}", VERIFY_BUNDLE, dumps(doc), EXIT_FAIL)

    return make


def _demo(which: str) -> Maker:
    def make(rng: random.Random, name: str) -> Doc:
        return Doc(name, f"demo-{which}", ("--format", "json", "demo", which), None, EXIT_PASS)

    return make


# Why each class is in each workload:
#
# verify-christoffel: the full connection gate on connection documents.
# Dense multiplication dominates (Christoffel K of n = 1..3 with H supplied
# or derived); canonical connections are the flat, selection-only end of the
# same path; a quarter are mutants, which stop at the first refuted identity
# and so exercise the early-exit path.  check_vertical runs about three times
# and check_effective twice per document; matrix_inverse never runs, so an
# inverter change should leave this workload flat.  The mutants of a
# supplied H perturb its u or v components; those of its x and w components
# are in DEFECT_PROBE, not here.
#
# Slots are placed so that each percentile falls inside a group of documents
# of about equal cost, not in the gap between two groups: the median among
# the n = 1 documents without H, the 90th percentile in the middle of
# the six n = 3 documents, the costliest, which all have degree 1 and carry
# H so that they cost about the same.
VERIFY_CHRISTOFFEL: list[Maker] = [
    _christoffel(1, 1, True), _christoffel(1, 0, False), _christoffel(2, 0, True), _christoffel(1, 2, True),
    _K_mutant(1, "scale-v"), _christoffel(3, 1, True), _christoffel(1, 1, False), _canonical(1, False),
    _christoffel(3, 1, True), _K_mutant(2, "pure-x"), _christoffel(1, 0, False), _canonical(2, True),
    _H_mutant(1, "u"), _christoffel(3, 1, True), _christoffel(2, 1, True), _K_mutant(1, "quad-t"),
    _canonical(3, False), _christoffel(1, 2, False), _H_mutant(2, "u"), _christoffel(3, 1, True),
    _canonical(1, True), _christoffel(3, 1, True), _K_mutant(2, "quad-u"), _christoffel(1, 2, False),
    _canonical(2, False), _christoffel(2, 2, True), _H_mutant(1, "v"), _christoffel(1, 1, False),
    _canonical(3, True), _K_mutant(1, "quad-v"), _christoffel(3, 1, True), _christoffel(2, 2, False),
]


def _total(n: int, degree: int) -> Maker:
    return _christoffel(n, degree, False, TOTAL, "total")


# total-bundle: effectiveness plus verify_bundle on the three-summand sum
# over TE, and a sidecar write per document.  check_vertical runs once per
# document, so a compute-once change should leave it flat; universality and
# the largest rung (n = 4, about a third of the time) dominate.  One n = 4
# and one n = 3 document per 38 keep a run near 100 documents, so that ten
# lie beyond the 90th percentile.  The median falls among the n = 1
# documents of degree 1 and 2, the 90th percentile among the n = 2 ones of
# degree 1 and 2.
TOTAL_BUNDLE: list[Maker] = (
    [_total(4, 2)]
    + [_total(1, 0), _total(1, 1), _total(1, 2)] * 2
    + ([_total(2, 1)] + [_total(1, 0), _total(1, 1), _total(1, 2)]) * 3
    + [_total(3, 1), _total(2, 0), _total(1, 1), _total(1, 2)]
    + ([_total(2, 2)] + [_total(1, 0), _total(1, 1), _total(1, 2)]) * 3
    + [_total(2, 0), _total(1, 1), _total(1, 2)]
)

# structural: small, sparse, selection-heavy inputs.  Most compose calls take
# a coordinate selection and matrix_inverse runs on every bundle, while the
# documents are too small for dense multiplication to matter; per-call and
# per-document fixed costs dominate.  Only the lift mutants depend on the
# seed; every other document is one of a fixed family.
STRUCTURAL: list[Maker] = (
    [_demo("tangent-axioms"), _demo("canonical")]
    + [_bundle(m, [("w", f)], "trivial-bundle") for m in (1, 2, 3, 4) for f in (1, 2, 3)]
    + [_bundle(n, [("t", n)], "tangent-bundle") for n in (1, 2, 3)]
    + [_bundle(1, [("w1", 1), ("w2", 1)], "whitney-sum"), _bundle(2, [("w1", 2), ("w2", 1), ("w3", 2)], "whitney-sum")]
    + [_bundle(n, [("t", n), ("u", n), ("v", n)], "canonical-total-bundle") for n in (1, 2)]
    + [_lambda_mutant(1, 1, "scale"), _lambda_mutant(2, 2, "quad"), _lambda_mutant(3, 1, "pure-x"),
       _lambda_mutant(2, 1, "scale"), _lambda_mutant(1, 2, "quad"), _lambda_mutant(2, 2, "pure-x")]
)

WORKLOADS: dict[str, list[Maker]] = {
    "verify-christoffel": VERIFY_CHRISTOFFEL,
    "total-bundle": TOTAL_BUNDLE,
    "structural": STRUCTURAL,
}


# Documents whose known answer the engine does not give yet.  A supplied H
# with a perturbed x or w component is refuted (exit 2), but the engine
# raises "pair_into: inconsistent values" in check_pair and exits 1.  A timed
# workload holds only documents on which no operation fails, so these run
# once per run after the timed part, outside its counts, and the run prints
# how many of them still miss their known answer.
DEFECT_PROBE: dict[str, list[Maker]] = {
    "verify-christoffel": [_H_mutant(1, "x"), _H_mutant(2, "x"), _H_mutant(1, "w"), _H_mutant(2, "w")],
}


def defect_probe(workload: str, seed: int) -> list[Doc]:
    """The known-defect documents of a workload, the same for the same seed."""
    rng = random.Random(f"{workload}/{seed}/probe")
    return [make(rng, f"p{i:02d}") for i, make in enumerate(DEFECT_PROBE.get(workload, []))]


def cycles(workload: str, seed: int) -> Iterator[list[Doc]]:
    """Endless stream of cycles of documents, the same for the same seed."""
    makers = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    count = 0
    while True:
        batch = []
        for make in makers:
            batch.append(make(rng, f"d{count:05d}"))
            count += 1
        yield batch
