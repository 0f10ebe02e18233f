"""The test session pins BLAS to one thread: conftest.py sets the thread
variables before numpy's first import, the only time BLAS reads them."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Records the thread variables when numpy is first looked up, then imports
# conftest.py as pytest would.
PROBE = """
import importlib.util, os, sys
seen = []

class FirstNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(v) for v in {variables!r}])
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, FirstNumpyImport())
spec = importlib.util.spec_from_file_location("conftest", {conftest!r})
spec.loader.exec_module(importlib.util.module_from_spec(spec))
print(seen)
"""


def test_conftest_pins_blas_threads_before_numpy_loads():
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    src = str(TESTS.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = PROBE.format(variables=VARIABLES, conftest=str(TESTS / "conftest.py"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == repr([["1", "1", "1"]])
