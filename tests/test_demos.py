"""Every demo script runs to completion with its default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import prefnet

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(prefnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            cwd=tmp_path, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
