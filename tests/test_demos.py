"""Every demo script, and README's quick start, runs to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd, env):
    """Run python with args in cwd and env; assert that it exits 0 and
    prints something."""
    result = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                            cwd=cwd, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, child_env):
    _run_python([str(demo)], tmp_path, child_env)


def test_readme_quick_start_runs(tmp_path, child_env):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("```python\n", 1)[1].split("```", 1)[0]
    _run_python(["-c", quick_start], tmp_path, child_env)
