"""The package depends on numpy alone: importing it loads nothing else outside
the standard library."""

import os
import subprocess
import sys
from pathlib import Path

import tspkit

# modules already loaded at interpreter start-up (a site hook may load third-party
# ones) are set aside, so only what ``import tspkit`` itself loads is checked
PROBE = """
import sys
before = set(sys.modules)
import tspkit
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library_and_numpy():
    src = str(Path(tspkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    loaded = set(out.split())
    assert {"numpy", "tspkit"} <= loaded
    # "__mp_main__" is the name multiprocessing gives the __main__ module on import
    allowed = sys.stdlib_module_names | {"numpy", "tspkit", "__mp_main__"}
    assert loaded - allowed == set()
