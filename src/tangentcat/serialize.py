"""JSON schemas for the engine's objects.

Coefficients serialize as exact fraction strings ("3", "-3/7"); any other
notation (decimals, exponents, whitespace) is rejected on input, and so are
JSON booleans where a count or an index is expected; a layout block is a
[name, positive size] pair.  A coefficient is parsed straight into the
kernel's canonical type, an ``int`` when integral and else a ``Fraction``,
so "+3", "007" and "4/2" all read as the int they denote.  A connection
object has ``bundle``, ``K``, an optional ``H`` and no other key (K encodes
the Christoffel symbols, so there is no ``gamma``); every other object's
fields are all required.  All encoders are deterministic so that identical
objects always produce identical bytes: ``dumps`` writes exactly the bytes of
``json.dumps(obj, indent=2, sort_keys=True)`` plus a newline, from the
module's own writer rather than ``json``'s pure-Python indent path.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .polycore import PolyMap, Polynomial, ShapeError, _exact
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


def fraction_from_str(s: Any, where: str) -> int | Fraction:
    """The coefficient a fraction string denotes, in the kernel's canonical type.

    That is an ``int`` when the value is integral and else a ``Fraction``
    with denominator > 1.  The regex has validated the digits, so ``int``
    reads them.  A zero denominator, or more digits than the interpreter
    converts to an ``int``, raises ``SerializationError``.
    """
    if not isinstance(s, str) or not _FRACTION.fullmatch(s):
        raise SerializationError(f"{where}: coefficients must be fraction strings")
    num, _, den = s.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError as exc:
        raise SerializationError(f"{where}: coefficient of {len(s)} characters has too many digits") from exc
    if not d:
        raise SerializationError(f"{where}: bad coefficient {s!r}")
    return n if d == 1 else _exact(Fraction(n, d))


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
        exps = _expect(t, "exps", f"{where}.terms[{i}]")
        if (
            not isinstance(exps, list)
            or len(exps) != arity
            or any(not _natural(e) for e in exps)
        ):
            raise SerializationError(f"{where}.terms[{i}]: exps must be {arity} natural numbers")
        coeff = fraction_from_str(_expect(t, "coeff", f"{where}.terms[{i}]"), f"{where}.terms[{i}]")
        key = tuple(exps)
        terms[key] = terms[key] + coeff if key in terms else coeff
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


def _write(obj: Any, indent: str, out: list) -> None:
    """Append the JSON of ``obj`` to ``out``; ``indent`` is a newline and obj's margin.

    Each dict entry is one string, a str or exact-int value joined to it; a
    list whose items are all exact ints or all str is one ``str.join``.
    """
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep, nxt = "{" + inner, "," + inner
        for key in sorted(obj):
            value = obj[key]
            kind = type(value)
            if kind is str:
                out.append(sep + _quote(key) + ": " + _quote(value))
            elif kind is int:
                out.append(sep + _quote(key) + ": " + int.__repr__(value))
            else:
                out.append(sep + _quote(key) + ": ")
                _write(value, inner, out)
            sep = nxt
        out.append(indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        kinds = {*map(type, obj)}
        if kinds == {int} or kinds == {str}:
            items = map(int.__repr__ if kinds == {int} else _quote, obj)
            out.append("[" + inner + ("," + inner).join(items) + indent + "]")
            return
        sep, nxt = "[" + inner, "," + inner
        for value in obj:
            out.append(sep)
            _write(value, inner, out)
            sep = nxt
        out.append(indent + "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, two-space indent, newline.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``
    for a value built from dict (str keys), list, tuple, str, int, bool and
    None, subclasses included.  Any other value raises ``TypeError``, a float
    too, since the schemas write exact numbers only, and so does a dict key
    that is not a str, which ``json`` would convert; a value that contains
    itself exhausts the recursion limit where ``json`` raises ``ValueError``.
    """
    out: list = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)
