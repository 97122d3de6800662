"""Every demo script runs to completion in a fresh interpreter."""
import glob
import os
import subprocess
import sys

import pytest

import openqdyn

DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                      os.pardir, "demos", "*.py")))


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(openqdyn.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.abspath(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_all_demos_found():
    assert len(DEMOS) == 5
