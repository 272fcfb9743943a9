"""The narrative demos, the README quick start and the README's command-line
block run to completion against the package in src/."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from splatocc.cli import main

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


def readme_commands() -> list:
    """The argument lists of the README's "Command line" block, one per command."""
    text = (ROOT / README).read_text().split("## Command line", 1)[1]
    block = text.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines() if line.strip()]


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


def test_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "poses.txt").write_text("0.24 2.48 1.44 0\n0.24 2.48 1.44 20\n")
    commands = readme_commands()
    assert len(commands) == 7
    for argv in commands:
        assert argv[0] == "splatocc"
        assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
