"""Each benchmark workload runs once on its reduced inputs, so an edit to the
package that breaks what perfbench/ calls fails here and not only in a
benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["mono_rooms", "stream_revisit", "stream_explore"])
def test_workload_runs_once_and_passes_its_checks(workload):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, (last, result.stderr)
