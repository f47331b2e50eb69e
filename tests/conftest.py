import os
import sys
from pathlib import Path

import pytest

import prefnet


@pytest.fixture
def child_env() -> dict:
    """The environment for a child Python process that imports the
    package under test: its source directory first on PYTHONPATH."""
    src = str(Path(prefnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the end-to-end checklist even when output capture is on."""
    module = sys.modules.get("test_acceptance")
    results = getattr(module, "_RESULTS", None)
    if results:
        terminalreporter.section("acceptance checklist")
        for line in results:
            terminalreporter.write_line(line)
