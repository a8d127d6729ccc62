"""Every module under ``src/`` imports with the standard library alone.

The package declares no runtime dependencies, so each ``repro``
module is imported in a fresh interpreter started with ``-I -S``: no
site-packages, no environment, only ``src`` on the path.  A module
that needs an undeclared third-party package fails here (CI also
checks the same against a ``pip install .`` of the package).
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_IMPORT_ALL = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import repro
names = [module.name for module
         in pkgutil.walk_packages(repro.__path__, "repro.")
         if not module.name.endswith(".__main__")]
for name in names:
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_without_site_packages():
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", _IMPORT_ALL, str(SRC)],
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) > 100
