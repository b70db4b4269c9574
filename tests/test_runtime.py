"""The runtime imports nothing outside the standard library."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Site hooks (e.g. ``_distutils_hack``) load modules even under ``-I``, so
# only the modules that importing the package adds are inspected.
_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import tangentcat
import tangentcat.cli
for name in sorted(set(sys.modules) - before):
    top = name.partition(".")[0]
    if top not in sys.stdlib_module_names and top != "tangentcat":
        print(name)
"""


def test_runtime_imports_only_the_standard_library():
    done = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []
