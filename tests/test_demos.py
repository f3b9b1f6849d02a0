"""Every script in demos/ runs to completion against the installed package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import disclim

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # a copy, so that the demo writes its output/ directory under tmp_path
    script = shutil.copy(demo, tmp_path)
    package_root = str(Path(disclim.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout
