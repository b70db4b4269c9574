"""Print the import time of ``tangentcat.cli`` and the modules that import adds.

Each sample imports the CLI in a fresh isolated interpreter (``python -I``);
the median of the samples is printed, then the added modules.  Usage:

    python3 tools/import_time.py [src] [samples]
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys

PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
start = time.perf_counter()
import tangentcat.cli
print(time.perf_counter() - start)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def sample(src: str) -> tuple[float, list[str]]:
    """Seconds to import ``tangentcat.cli`` from src, and the modules it added."""
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, src], capture_output=True, text=True, check=True)
    seconds, modules = done.stdout.splitlines()
    return float(seconds), modules.split()


def main(argv: list[str]) -> int:
    src = os.path.abspath(argv[1] if len(argv) > 1 else "src")
    runs = [sample(src) for _ in range(int(argv[2]) if len(argv) > 2 else 5)]
    print(f"median import time of tangentcat.cli over {len(runs)} fresh interpreters: "
          f"{statistics.median(s for s, _ in runs) * 1000:.1f} ms")
    print(f"modules added ({len(runs[0][1])}): {' '.join(runs[0][1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
