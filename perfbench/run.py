"""tangentcat benchmark: seeded documents through ``tangentcat.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload verify-christoffel --seed 1 --seconds 35 --trace 0

The load is a closed loop with one client: documents run one after another
in this process, each as one in-process ``main(argv)`` call, and every exit
code is checked against the answer the generator knows.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it name every metric with its unit.

``--trace 0`` reports the end-to-end metrics with tracing off, every time
scaled to a reference machine speed (see ``Machine``); ``raw`` lines give the
times as measured.  ``--trace 1``
runs every document twice, plain and then traced, checks that both give the
same exit code and the same bytes, and reports the per-layer metrics from
the traced calls together with the tracing overhead.  After the timed part,
a run also calls the workload's known-defect documents (see
``workloads.DEFECT_PROBE``) once each and prints how each ended.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import workloads
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

# Enough documents that at least ten lie beyond the 90th percentile.
MIN_DOCS = 100
# Every document is written to the same file, so that output naming a path
# is the same for identical inputs.
DOC_FILE = "doc.json"
SETUP_SAMPLES = 31
# Machine-speed calibration, see ``Machine``.
CAL_POLY = {(i, j, k): Fraction(i + 1, j + 2) for i in range(4) for j in range(4) for k in range(2)}
CAL_EVERY_S = 0.25
CAL_WINDOW_S = 1.0
REF_CAL_S = 0.003
VERDICT_EXIT = {"pass": 0, "fail": 2, "cannot-certify": 3}
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import tangentcat.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot run here: the engine sources are missing."""


def load_engine():
    if not os.path.isfile(os.path.join(SRC, "tangentcat", "cli.py")):
        raise BenchError(f"no tangentcat sources under {SRC}")
    sys.path.insert(0, SRC)
    import tangentcat
    import tangentcat.cli

    if not os.path.abspath(tangentcat.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported tangentcat from {tangentcat.__file__}, not from {SRC}")
    return tangentcat


def import_seconds() -> float:
    """Import time of ``tangentcat.cli`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, SRC],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout.strip())


class Machine:
    """Set-up times and machine-speed samples, taken between documents.

    The speed of the host this benchmark was tuned on changes by up to 60% in
    steps that last 5-10 s, and a fixed pure-Python loop slows down with the
    documents (correlation 0.95-0.97 over 5 s windows).  No run length
    averages such steps away, so every end-to-end time is scaled by
    REF_CAL_S over the median time of a fixed loop within CAL_WINDOW_S of it:
    it reads as the time at the speed where the loop takes REF_CAL_S.  The
    loop squares CAL_POLY, a polynomial with rational coefficients held as a
    dict, which is the kind of work the engine does; on the same documents it
    tracked their slowdowns a little better than an integer loop did (median
    latency of 30 s runs: spread 0.08-0.09 scaled, 0.10 with the integer
    loop, 0.30 raw).  The loop does not touch the engine, so a change to the
    engine moves the scaled times as much as the raw ones.  Raw times are
    printed as well.
    """

    def __init__(self) -> None:
        self.cal_at: list[float] = []
        self.cal_s: list[float] = []
        self.setup: list[tuple[float, float]] = []  # (start, seconds) of each import

    def calibrate(self) -> None:
        start = time.perf_counter()
        square: dict[tuple[int, ...], Fraction] = {}
        for (a, b, c), x in CAL_POLY.items():
            for (d, e, f), y in CAL_POLY.items():
                key = (a + d, b + e, c + f)
                square[key] = square.get(key, 0) + x * y
        self.cal_at.append(start)
        self.cal_s.append(time.perf_counter() - start)

    def measure_setup(self) -> None:
        self.setup.append((time.perf_counter(), import_seconds()))

    def scale(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.cal_at, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.cal_at, start + seconds + CAL_WINDOW_S)
        return REF_CAL_S / statistics.median(self.cal_s[lo:hi])


class Outcome(NamedTuple):
    rc: int | None  # None when main raised
    start: float
    seconds: float
    stdout: bytes
    sidecar: bytes | None
    error: str | None


def sidecar_name(doc) -> str:
    stem = DOC_FILE.rsplit(".", 1)[0]
    return f"{stem}.{doc.sidecar}.json"


def call(cli, doc) -> Outcome:
    """One timed ``main(argv)`` call on a document already written to disk."""
    argv = [a.replace("{doc}", DOC_FILE) for a in doc.argv]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is an outcome to count
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    sidecar = None
    if doc.sidecar:
        side = sidecar_name(doc)
        if os.path.exists(side):
            with open(side, "rb") as fh:
                sidecar = fh.read()
            os.unlink(side)
    if error is None and rc == 1:
        error = err.getvalue().strip()
    return Outcome(rc, start, seconds, out.getvalue().encode("utf-8"), sidecar, error)


def wrong_output(doc, o: Outcome) -> str | None:
    """Why the bytes of a verdict-bearing call are malformed, or None."""
    try:
        payload = json.loads(o.stdout)
    except ValueError:
        return "stdout is not JSON"
    if VERDICT_EXIT.get(payload.get("verdict")) != o.rc:
        return f"verdict {payload.get('verdict')!r} disagrees with exit {o.rc}"
    if doc.sidecar and o.rc == 0:
        if o.sidecar is None:
            return "no sidecar written"
        if payload.get("written") != sidecar_name(doc):
            return "stdout does not name the sidecar"
        written = json.loads(o.sidecar)
        source = json.loads(doc.text)["bundle"]["total"]["dim"]
        if written["total"]["dim"] != 2 * source or written["base"]["dim"] != source // 2:
            return "sidecar is not a bundle on the tangent space of the total space"
    return None


class Tally:
    """Counts, digests and verdict checks over the documents of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.digest = hashlib.sha256()
        self.first_cycle_digest = ""
        self._seen: dict[str, bytes] = {}  # input key -> output digest

    def record(self, doc, o: Outcome) -> None:
        self.attempted += 1
        self.starts.append(o.start)
        self.latencies.append(o.seconds)
        out = hashlib.sha256(o.stdout + b"\0" + (o.sidecar or b"")).digest()
        self.digest.update(doc.name.encode() + b"\0" + out)
        if o.rc != doc.expect:
            self.failed += 1
            if o.rc in (0, 2, 3):
                self.wrong.append(f"{doc.name} ({doc.cls}): exit {o.rc}, known answer {doc.expect}")
            else:
                self.errors.append(f"{doc.cls}: {o.error}")
        if o.rc in (0, 2, 3):
            bad = wrong_output(doc, o)
            if bad:
                self.wrong.append(f"{doc.name} ({doc.cls}): {bad}")
        # Identical inputs must give identical bytes, whenever they run.
        key = hashlib.sha256(repr((doc.argv, doc.text)).encode()).hexdigest()
        if self._seen.setdefault(key, out) != out:
            self.wrong.append(f"{doc.name} ({doc.cls}): output differs from an identical earlier input")


def run_probe(cli, docs, tally: Tally) -> list[str]:
    """The known-defect documents, once each, outside the counts of ``tally``.

    A wrong verdict still makes the run incorrect; an exit code that only
    misses the known answer is reported, one line per document.
    """
    lines = []
    for doc in docs:
        write_doc(doc)
        o = call(cli, doc)
        if o.rc == doc.expect:
            lines.append(f"{doc.cls}: exit {o.rc}, the known answer")
        elif o.rc in (0, 2, 3):
            tally.wrong.append(f"{doc.name} ({doc.cls}): exit {o.rc}, known answer {doc.expect}")
        else:
            lines.append(f"{doc.cls}: exit {o.rc}, known answer {doc.expect}: {o.error}")
        if o.rc in (0, 2, 3):
            bad = wrong_output(doc, o)
            if bad:
                tally.wrong.append(f"{doc.name} ({doc.cls}): {bad}")
    return lines


def write_doc(doc) -> None:
    if doc.text is not None:
        with open(DOC_FILE, "w", encoding="utf-8") as fh:
            fh.write(doc.text)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_plain(cli, stream, seconds: float, min_docs: int = MIN_DOCS, machine: Machine | None = None) -> Tally:
    """Whole cycles until both the time and the document floor are reached.

    With ``machine`` given, it samples the machine speed every CAL_EVERY_S
    and takes SETUP_SAMPLES import times, spread over the run so that they
    meet the same machine load as the documents do.
    """
    tally = Tally()
    start = time.perf_counter()
    if machine:
        machine.calibrate()
    first = True
    while first or time.perf_counter() - start < seconds or tally.attempted < min_docs:
        for doc in next(stream):
            write_doc(doc)
            tally.record(doc, call(cli, doc))
            if not machine:
                continue
            if time.perf_counter() - machine.cal_at[-1] >= CAL_EVERY_S:
                machine.calibrate()
            progress = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
            if len(machine.setup) < SETUP_SAMPLES * progress:
                machine.measure_setup()
        if first:
            tally.first_cycle_digest = tally.digest.hexdigest()
            first = False
    while machine and len(machine.setup) < SETUP_SAMPLES:
        machine.measure_setup()
        machine.calibrate()
    return tally


def run_traced(tangentcat, stream, seconds: float, spans_path: str):
    """Each document plain, then traced, in whole cycles until the time is up.

    Whole cycles keep the class mix, and so every per-document figure,
    independent of how fast the machine is.
    """
    cli = tangentcat.cli
    tracer = Tracer()
    traced = Tally()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    first = True
    try:
        while first or time.perf_counter() - start < seconds:
            for doc in next(stream):
                write_doc(doc)
                a = call(cli, doc)
                tracer.current_doc = traced.attempted
                tracer.install(tangentcat)
                try:
                    b = call(cli, doc)
                finally:
                    tracer.uninstall()
                traced.record(doc, b)
                plain_s += a.seconds
                traced_s += b.seconds
                if (a.rc, a.stdout, a.sidecar) != (b.rc, b.stdout, b.sidecar):
                    traced.wrong.append(f"{doc.name} ({doc.cls}): traced call changed the exit code or bytes")
            if first:
                traced.first_cycle_digest = traced.digest.hexdigest()
                first = False
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    return traced, layer_metrics(tracer, traced.attempted, traced_s / plain_s - 1.0)


def layer_metrics(tracer, docs: int, overhead: float) -> dict[str, tuple[float, str]]:
    agg = tracer.aggregate()
    stats = tracer.stats

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def secs(name):
        return agg.get(name, {}).get("s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    modules = ("polycore", "tangent", "dbundle", "whitney", "connection", "cli")
    self_s = {m: 0.0 for m in modules}
    for name, rec in agg.items():
        mod = name.split(".", 1)[0]
        if mod in self_s:
            self_s[mod] += rec["self_s"]
    m: dict[str, tuple[float, str]] = {}
    per = 1.0 / docs
    for mod in modules:
        m[f"{mod}.self_s"] = (self_s[mod] * per, "s")
    for name in ("polycore.mul", "polycore.substitute", "polycore.compose", "polycore.invert_polymap",
                 "polycore.matrix_inverse", "tangent.T_map", "connection.check_vertical",
                 "connection.check_effective", "dbundle.tangent_of_bundle"):
        m[f"{name}.calls"] = (calls(name) * per, "count")
        m[f"{name}.s"] = (secs(name) * per, "s")
    compose = stats.get("polycore.compose", {})
    m["polycore.compose.terms_out"] = (compose.get("terms_out", 0) * per, "count")
    m["polycore.compose.selection_share"] = (ratio(compose.get("selection", 0), calls("polycore.compose")), "ratio")
    for name in ("polycore.invert_polymap", "polycore.matrix_inverse"):
        m[f"{name}.success_ratio"] = (ratio(stats.get(name, {}).get("success", 0), calls(name)), "ratio")
    m["polycore.map_equal.calls"] = (calls("polycore.map_equal") * per, "count")
    m["dbundle.tangent_bundle.calls"] = (calls("dbundle.tangent_bundle") * per, "count")
    m["report.check_equal.calls"] = (calls("report.check_equal") * per, "count")
    for name in ("tangent.check_tangent_axioms", "dbundle.verify_bundle", "dbundle.check_universality",
                 "dbundle.linear_morphism_report", "dbundle.transport_bundle", "whitney.recognize_biproduct",
                 "whitney.biproduct_laws", "whitney.partial_bundle", "connection.derive_horizontal",
                 "connection.check_horizontal", "connection.check_pair", "serialize.dumps"):
        m[f"{name}.s"] = (secs(name) * per, "s")
    m["serialize.from_json.s"] = (_outer_from_json_s(tracer) * per, "s")
    m["serialize.bytes_out"] = (stats.get("serialize.dumps", {}).get("bytes_out", 0) * per, "bytes")
    m["trace.spans"] = (tracer.span_count() * per, "count")
    m["trace.overhead_share"] = (overhead, "ratio")
    return m


def _outer_from_json_s(tracer) -> float:
    """Time in the serialize *_from_json functions, counting only outermost calls.

    They nest (connection -> bundle -> map -> poly), each called directly by
    the one above it.
    """
    is_from = [n.startswith("serialize.") and n.endswith("_from_json") for n in tracer.names]
    return sum(
        tracer.end[i] - tracer.start[i]
        for i, p in enumerate(tracer.parent)
        if is_from[tracer.name[i]] and (p < 0 or not is_from[tracer.name[p]])
    )


def end_to_end(tally: Tally, machine: Machine) -> dict[str, tuple[float, str]]:
    """End-to-end metrics, every time scaled to the reference speed (see ``Machine``)."""
    lat = [x * machine.scale(t, x) for t, x in zip(tally.starts, tally.latencies)]
    setup = [x * machine.scale(t, x) for t, x in machine.setup]
    return {
        "docs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def raw_times(tally: Tally, machine: Machine) -> dict[str, tuple[float, str]]:
    """The end-to-end times as measured, and the speed samples behind the scaling."""
    lat = tally.latencies
    return {
        "docs_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "setup_s": (statistics.median(s for _, s in machine.setup), "s"),
        "calibration_ms": (statistics.median(machine.cal_s) * 1e3, "ms"),
        "calibration_samples": (len(machine.cal_s), "count"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tangentcat = load_engine()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    stream = workloads.cycles(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}.bin")
            tally, metrics = run_traced(tangentcat, stream, args.seconds, spans)
        else:
            machine = Machine()
            tally = run_plain(tangentcat.cli, stream, args.seconds, machine=machine)
            metrics = end_to_end(tally, machine)
            for name, (value, unit) in raw_times(tally, machine).items():
                print(f"raw {name} {value!r} {unit}")
        probe = run_probe(tangentcat.cli, workloads.defect_probe(args.workload, args.seed), tally)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    beyond = tally.attempted - sum(1 for x in tally.latencies if x <= percentile(tally.latencies, 90))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  documents {tally.attempted}"
          f"  beyond p90 {beyond}")
    print(f"digest first cycle {tally.first_cycle_digest}  all {tally.digest.hexdigest()}")
    print(f"error_share {tally.failed / tally.attempted!r} share  ({tally.failed} of {tally.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    for line in probe:
        print(f"defect probe: {line}")
    for line in sorted(set(tally.errors)):
        print(f"failed: {line}")
    for line in tally.wrong[:20]:
        print(f"WRONG: {line}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
