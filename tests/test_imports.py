"""Package imports run one way only: every module imports alone."""

import importlib.util
import pkgutil
import subprocess
import sys

import pytest

# Found without importing the package, so a cycle fails each test below
# rather than the collection of this file.
PACKAGE_DIR = importlib.util.find_spec("splatocc").submodule_search_locations[0]

# A stub package stands in for splatocc, so its __init__ does not run and
# only the named module and what it imports are loaded.
_IMPORT_ALONE = """
import importlib, sys, types
package = types.ModuleType("splatocc")
package.__path__ = [sys.argv[1]]
sys.modules["splatocc"] = package
importlib.import_module("splatocc." + sys.argv[2])
"""


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR])))
def test_module_imports_alone_in_a_fresh_interpreter(module):
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ALONE, PACKAGE_DIR, module],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
