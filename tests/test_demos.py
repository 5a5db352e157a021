"""Every demo script runs to completion against this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import optiloop

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    src = str(Path(optiloop.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
