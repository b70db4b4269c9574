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
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def _added_modules() -> list[str]:
    """The modules that importing ``tangentcat.cli`` adds in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_runtime_imports_only_the_standard_library():
    outside = [n for n in _added_modules() if n.partition(".")[0] not in sys.stdlib_module_names | {"tangentcat"}]
    assert outside == []


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # Each costs start-up on every CLI call: dataclasses loads inspect, ast,
    # dis and tokenize and execs the methods it generates.
    added = set(_added_modules())
    assert "tangentcat.cli" in added
    assert not added & {"dataclasses", "inspect"}
