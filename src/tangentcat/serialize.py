"""JSON schemas for the engine's objects.

Coefficients serialize as exact fraction strings ("3", "-3/7"); any other
notation (decimals, exponents, whitespace) is rejected on input, and so are
JSON booleans where a count or an index is expected; a layout block is a
[name, positive size] pair.  A connection object has ``bundle``, ``K``, an
optional ``H`` and no other key (K encodes the Christoffel symbols, so there
is no ``gamma``); every other object's fields are all required.  All encoders
are deterministic so that identical objects always produce identical bytes.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any

from .polycore import PolyMap, Polynomial, ShapeError
from .tangent import Space
from .dbundle import DiffBundle
from .connection import Connection


class SerializationError(ValueError):
    """Raised when a document does not match the expected schema."""


_FRACTION = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _natural(v: Any) -> bool:
    """A natural number; JSON ``true``/``false`` are not numbers here."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _expect(obj: Any, key: str, where: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise SerializationError(f"{where}: missing field {key!r}")
    return obj[key]


def fraction_from_str(s: Any, where: str) -> Fraction:
    if not isinstance(s, str) or not _FRACTION.fullmatch(s):
        raise SerializationError(f"{where}: coefficients must be fraction strings")
    try:
        return Fraction(s)
    except ZeroDivisionError as exc:
        raise SerializationError(f"{where}: bad coefficient {s!r}") from exc


def poly_to_json(p: Polynomial) -> dict:
    return {
        "arity": p.arity,
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in p.terms
        ],
    }


def poly_from_json(obj: Any, where: str = "polynomial") -> Polynomial:
    arity = _expect(obj, "arity", where)
    if not _natural(arity):
        raise SerializationError(f"{where}: arity must be a natural number")
    listed = _expect(obj, "terms", where)
    if not isinstance(listed, list):
        raise SerializationError(f"{where}: terms must be a list")
    terms: dict = {}
    for i, t in enumerate(listed):
        spot = f"{where}.terms[{i}]"
        exps = _expect(t, "exps", spot)
        if (
            not isinstance(exps, list)
            or len(exps) != arity
            or any(not _natural(e) for e in exps)
        ):
            raise SerializationError(f"{spot}: exps must be {arity} natural numbers")
        coeff = fraction_from_str(_expect(t, "coeff", spot), spot)
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial.from_terms(arity, terms)


def map_to_json(m: PolyMap) -> dict:
    return {
        "dom": m.domain_dim,
        "cod": m.codomain_dim,
        "components": [poly_to_json(c) for c in m.components],
    }


def map_from_json(obj: Any, where: str = "map") -> PolyMap:
    dom = _expect(obj, "dom", where)
    cod = _expect(obj, "cod", where)
    comps = _expect(obj, "components", where)
    if not _natural(dom) or not _natural(cod):
        raise SerializationError(f"{where}: dom and cod must be natural numbers")
    if not isinstance(comps, list) or len(comps) != cod:
        raise SerializationError(f"{where}: expected {cod} components")
    polys = tuple(poly_from_json(c, f"{where}.components[{i}]") for i, c in enumerate(comps))
    try:
        return PolyMap(dom, polys)
    except ShapeError as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def space_to_json(s: Space) -> dict:
    return {"dim": s.dim, "layout": [[name, size] for name, size in s.layout]}


def space_from_json(obj: Any, where: str = "space") -> Space:
    dim = _expect(obj, "dim", where)
    layout = _expect(obj, "layout", where)
    if not _natural(dim):
        raise SerializationError(f"{where}: dim must be a natural number")
    if not isinstance(layout, list) or any(
        not isinstance(block, list)
        or len(block) != 2
        or not isinstance(block[0], str)
        or not _natural(block[1])
        or block[1] == 0
        for block in layout
    ):
        raise SerializationError(f"{where}: layout must be a list of [name, positive size] pairs")
    try:
        return Space(dim, tuple((n, k) for n, k in layout))
    except ShapeError as exc:
        raise SerializationError(f"{where}: bad layout") from exc


def bundle_to_json(b: DiffBundle) -> dict:
    return {
        "total": space_to_json(b.total),
        "base": space_to_json(b.base),
        "base_coords": list(b.base_coords),
        "sigma": map_to_json(b.sigma),
        "zeta": map_to_json(b.zeta),
        "lambda": map_to_json(b.lift),
    }


def bundle_from_json(obj: Any, where: str = "bundle") -> DiffBundle:
    coords = _expect(obj, "base_coords", where)
    if not isinstance(coords, list) or any(not _natural(i) for i in coords):
        raise SerializationError(f"{where}: base_coords must be a list of indices")
    try:
        return DiffBundle(
            total=space_from_json(_expect(obj, "total", where), f"{where}.total"),
            base=space_from_json(_expect(obj, "base", where), f"{where}.base"),
            base_coords=tuple(coords),
            sigma=map_from_json(_expect(obj, "sigma", where), f"{where}.sigma"),
            zeta=map_from_json(_expect(obj, "zeta", where), f"{where}.zeta"),
            lift=map_from_json(_expect(obj, "lambda", where), f"{where}.lambda"),
        )
    except ShapeError as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def connection_to_json(c: Connection) -> dict:
    out: dict = {"bundle": bundle_to_json(c.bundle), "K": map_to_json(c.K)}
    if c.H is not None:
        out["H"] = map_to_json(c.H)
    return out


def connection_from_json(obj: Any, where: str = "connection") -> Connection:
    for key in obj if isinstance(obj, dict) else ():
        if key not in ("bundle", "K", "H"):
            raise SerializationError(f"{where}.{key}: not a field of a connection")
    bundle = bundle_from_json(_expect(obj, "bundle", where), f"{where}.bundle")
    k = map_from_json(_expect(obj, "K", where), f"{where}.K")
    h = None if obj.get("H") is None else map_from_json(obj["H"], f"{where}.H")
    try:
        return Connection(bundle=bundle, K=k, H=h)
    except ValueError as exc:
        raise SerializationError(f"{where}: {exc}") from exc


def dumps(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, two-space indent, newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
