"""Print the in-process ``verify`` time of dense Christoffel connections and the lift squares' share.

Each rung is a connection on the tangent bundle of R^n whose Christoffel
symbols Gamma^k_ij = Gamma^k_ji each have 10 monomials of degree at most 2,
sampled with coefficients in -3..3 from a generator seeded by n.  For each
rung the tool prints K's term count, the verdict, the best of ``repeats``
runs of ``verify_connection`` and, in that run, the time spent in the
"lift square" records and their share of it (timed by wrapping
``Report.check_equal``).  It prints only and checks no threshold.  Usage:

    python3 tools/ladder.py [src] [repeats] [n ...]

with defaults ``src``, 1 and n = 4, 6, 8.
"""

from __future__ import annotations

import os
import random
import sys
import time
from itertools import combinations_with_replacement

MONOMIALS_PER_ENTRY = 10


def dense_gamma(n: int):
    """A symmetric Christoffel table on R^n, seeded by n."""
    from tangentcat.polycore import Polynomial

    rng = random.Random(n)
    exps = []
    for degree in range(3):
        for combo in combinations_with_replacement(range(n), degree):
            exps.append(tuple(combo.count(i) for i in range(n)))

    def entry():
        picked = rng.sample(exps, min(MONOMIALS_PER_ENTRY, len(exps)))
        return Polynomial.from_terms(n, {e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in picked})

    table = [[[None] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(i, n):
                table[k][i][j] = table[k][j][i] = entry()
    return table


def rung(n: int, repeats: int) -> str:
    from tangentcat.connection import christoffel_connection, verify_connection
    from tangentcat.report import Report
    from tangentcat.tangent import Space

    check_equal = Report.check_equal
    lifts = [0.0]

    def timed(self, name, law, build):
        start = time.perf_counter()
        try:
            return check_equal(self, name, law, build)
        finally:
            if name == "lift square":
                lifts[0] += time.perf_counter() - start

    best = None
    Report.check_equal = timed
    try:
        for _ in range(repeats):
            c = christoffel_connection(Space.euclidean(n), dense_gamma(n))
            lifts[0] = 0.0
            start = time.perf_counter()
            report, _ = verify_connection(c)
            total = time.perf_counter() - start
            if best is None or total < best[0]:
                best = (total, lifts[0], report.verdict.value)
    finally:
        Report.check_equal = check_equal
    total, lift, verdict = best
    terms = sum(len(p.terms) for p in c.K.components)
    return (
        f"n={n:<3d} K terms {terms:>6d}  {verdict:<6s}  verify {total:8.3f} s  "
        f"lift squares {lift:8.3f} s ({100 * lift / total:4.1f} %)"
    )


def main(argv: list[str]) -> None:
    sys.path.insert(0, os.path.abspath(argv[0] if argv else "src"))
    repeats = int(argv[1]) if len(argv) > 1 else 1
    for n in [int(a) for a in argv[2:]] or [4, 6, 8]:
        print(rung(n, repeats), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
