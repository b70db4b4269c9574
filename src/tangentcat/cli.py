"""Batch front-end: verify documents, derive maps, and run built-in demos.

Exit codes: 0 all checks pass, 1 parse/validation error, 2 at least one check
refuted, 3 inconclusive (a certificate could not be produced).  Output is
deterministic; files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import Optional

from .polycore import Polynomial, ShapeError
from .report import Report, Status
from .tangent import Space
from .dbundle import check_tangent_axioms, verify_bundle
from .connection import (
    Connection,
    canonical_connection,
    check_effective,
    check_horizontal,
    check_pair,
    christoffel_connection,
    decompose_point,
    derive_horizontal,
    verify_connection,
)
from .whitney import verify_sum
from . import serialize
from .serialize import SerializationError

EXIT_PASS = 0
EXIT_PARSE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3

DEFAULT_MAX_DEGREE = 8


class DegreeError(ValueError):
    """An input exceeds the symbolic-expansion degree guard."""


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct; a repeated key is rejected, not overwritten."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise SerializationError(f"duplicated key {json.dumps(key)}")
        obj[key] = value
    return obj


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SerializationError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except SerializationError as exc:
        raise SerializationError(f"{path}: {exc}") from exc


def _read(args, kind: str = "connection"):
    """Read, parse and degree-guard the bundle or connection document at ``args.path``."""
    doc = _load_json(args.path)
    if kind == "bundle":
        parsed = serialize.bundle_from_json(doc)
        maps = [parsed.sigma, parsed.zeta, parsed.lift]
    else:
        parsed = serialize.connection_from_json(doc)
        b = parsed.bundle
        maps = [b.sigma, b.zeta, b.lift, parsed.K] + ([] if parsed.H is None else [parsed.H])
    worst = max(m.max_degree() for m in maps)
    if worst > args.max_degree:
        raise DegreeError(
            f"input degree {worst} exceeds the guard ({args.max_degree}); raise --max-degree to proceed"
        )
    return parsed


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tangentcat-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(report: Report, fmt: str, extra: Optional[dict] = None) -> None:
    if fmt == "json":
        payload = report.to_dict()
        if extra:
            payload.update(extra)
        sys.stdout.write(serialize.dumps(payload))
    else:
        sys.stdout.write(report.render_text())
        if extra:
            for key, value in extra.items():
                sys.stdout.write(f"{key}: {value}\n")


def _exit_code(report: Report) -> int:
    if report.verdict is Status.PASS:
        return EXIT_PASS
    if report.verdict is Status.FAIL:
        return EXIT_FAIL
    return EXIT_INCONCLUSIVE


def cmd_verify(args) -> int:
    if args.kind == "bundle":
        report = verify_bundle(_read(args, "bundle"))
    else:
        report, _ = verify_connection(_read(args))
    _emit(report, args.format)
    return _exit_code(report)


def _sidecar(path: str, tag: str) -> str:
    stem, ext = os.path.splitext(path)
    return f"{stem}.{tag}{ext or '.json'}"


def cmd_derive_h(args) -> int:
    c = _read(args)
    try:
        full = derive_horizontal(Connection(bundle=c.bundle, K=c.K))
    except ShapeError as exc:
        report = Report(subject="horizontal derivation")
        report.check("derivation", "an effective vertical map determines H", False, str(exc))
        _emit(report, args.format)
        return EXIT_FAIL
    out = _sidecar(args.path, "h")
    _atomic_write(out, serialize.dumps(serialize.map_to_json(full.H)))
    report = check_horizontal(full)
    report.extend(check_pair(full), prefix="pair: ")
    _emit(report, args.format, extra={"written": out})
    return _exit_code(report)


def cmd_total_bundle(args) -> int:
    eff, decomp = check_effective(_read(args))
    if decomp is None:
        _emit(eff, args.format)
        return _exit_code(eff)
    report = eff
    report.extend(verify_sum(decomp.biproduct), prefix="total bundle: ")
    out = _sidecar(args.path, "total")
    _atomic_write(out, serialize.dumps(serialize.bundle_to_json(decomp.biproduct.sum)))
    _emit(report, args.format, extra={"written": out})
    return _exit_code(report)


def cmd_decompose(args) -> int:
    c = _read(args)
    point = [
        serialize.fraction_from_str(tok, f"point {args.point!r}, coordinate {i + 1}")
        for i, tok in enumerate(args.point.split(","))
    ]
    if len(point) != 2 * c.bundle.total.dim:
        raise SerializationError(
            f"point has {len(point)} coordinates; expected {2 * c.bundle.total.dim}"
        )
    eff, decomp = check_effective(c)
    if decomp is None:
        _emit(eff, args.format)
        return _exit_code(eff)
    triple = decompose_point(decomp, point)
    if args.format == "json":
        sys.stdout.write(
            serialize.dumps({"components": [[str(v) for v in part] for part in triple]})
        )
    else:
        rendered = ", ".join("(" + ", ".join(str(v) for v in part) + ")" for part in triple)
        sys.stdout.write(rendered + "\n")
    return EXIT_PASS


def _demo_christoffel() -> Connection:
    x = Polynomial.variable(1, 0)
    return christoffel_connection(Space.euclidean(1), (((x,),),))


def cmd_demo(args) -> int:
    if args.name == "tangent-axioms":
        report = Report(subject="tangent axioms, dimensions 1-3")
        for n in (1, 2, 3):
            report.extend(check_tangent_axioms(Space.euclidean(n)), prefix=f"dim {n}: ")
        _emit(report, args.format)
        return _exit_code(report)
    c = canonical_connection(1) if args.name == "canonical" else _demo_christoffel()
    report, decomp = verify_connection(c)
    if decomp is not None:
        report.extend(verify_sum(decomp.biproduct), prefix="total bundle: ")
    _emit(report, args.format)
    return _exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangentcat",
        description="Exact verifier for polynomial tangent-category structures.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--max-degree",
        type=int,
        default=DEFAULT_MAX_DEGREE,
        help="reject inputs whose maps exceed this total degree (default %(default)s)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a bundle or connection document")
    p.add_argument("path")
    p.add_argument("--kind", choices=("bundle", "connection"), default="connection")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("derive-h", help="derive the horizontal map and write it beside the input")
    p.add_argument("path")
    p.set_defaults(func=cmd_derive_h)

    p = sub.add_parser("total-bundle", help="emit the Whitney-sum structure on the tangent space")
    p.add_argument("path")
    p.set_defaults(func=cmd_total_bundle)

    p = sub.add_parser("decompose", help="split a second-order point into three tangent vectors")
    p.add_argument("path")
    p.add_argument("point", help="comma-separated rational coordinates")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("demo", help="run a built-in worked example")
    p.add_argument("name", choices=("canonical", "christoffel", "tangent-axioms"))
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SerializationError, DegreeError, ShapeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
