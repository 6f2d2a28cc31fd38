"""Documentation smoke tests: every demo script and the README Quickstart run.

They use only public names, so a deleted or renamed export that the
documentation still relies on fails here.  Each run gets its own empty
temporary directory, which must be empty again when it ends.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from census import quickstart

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    """Run python in ``cwd`` with ``TMPDIR`` set to a fresh directory, and
    check that nothing is left in that directory."""
    tmp = Path(cwd) / "tmp"
    tmp.mkdir()
    env = dict(os.environ, TMPDIR=str(tmp))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True
    )
    assert list(tmp.iterdir()) == []
    return proc


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quickstart_runs(tmp_path):
    proc = run_python(["-c", quickstart()], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout.splitlines()[0]) - 9.0) < 1e-12
