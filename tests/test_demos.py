"""Every script under demos/, and the README's quick look, runs against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    # the script runs in cwd, so put the absolute src directory first
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(script)],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = _run(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_look_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Quick look"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    script = tmp_path / "quick_look.py"
    script.write_text(block)
    proc = _run(script, tmp_path)
    assert proc.returncode == 0, proc.stderr
