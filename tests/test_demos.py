"""Every demo script, and README's quick start, runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefnet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    """Run python with args in cwd, with the package importable; assert
    that it exits 0 and prints something."""
    src = str(Path(prefnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            cwd=cwd, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("```python\n", 1)[1].split("```", 1)[0]
    _run_python(["-c", quick_start], tmp_path)
