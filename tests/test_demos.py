"""The narrative demos and the README quick start run to completion against
the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = (
    "01_camera_and_sampling.py",
    "02_splatting_basics.py",
    "03_monocular_room.py",
    "04_streaming_fusion.py",
    "05_losses.py",
    "06_spatial_index.py",
)


README = "README.md"


def readme_quick_start() -> str:
    """The first ```python block of the README."""
    text = (ROOT / README).read_text()
    return text.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("name", DEMOS + (README,))
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if name == README:
        command = [sys.executable, "-c", readme_quick_start()]
    else:
        command = [sys.executable, str(ROOT / "demos" / name)]
    result = subprocess.run(
        command,
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
