"""Each benchmark workload runs once on its reduced inputs, untraced and traced,
so an edit to the package that breaks what perfbench/ calls fails here and not
only in a benchmark run. Only the traced run reaches perfbench/counts.py and
the per-layer composition; it writes its spans under perfbench/out/."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    pytest.param(workload, trace, id=workload + ("-traced" if trace == "1" else ""))
    for workload in ("mono_rooms", "stream_revisit", "stream_explore") for trace in ("0", "1")
])
def test_workload_runs_once_and_passes_its_checks(workload, trace):
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--tiny",
         "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, (last, result.stderr)
