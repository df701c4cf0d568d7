"""tools/numpy_free.sh passes where numpy cannot be imported.

A `numpy` package first on PYTHONPATH raises ImportError, so every call
in the script runs as on a Python with no numpy installed; `python` on
PATH is this interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "numpy_free.sh"


def _without_numpy(tmp_path):
    blocker = tmp_path / "blocked" / "numpy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text(
        'raise ImportError("numpy is blocked here")\n')
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    python = bin_dir / "python"
    python.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    python.chmod(0o755)
    env = dict(os.environ)
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{blocker.parent}"
    return env


def test_every_call_runs_without_numpy(tmp_path):
    env = _without_numpy(tmp_path)
    # a call that loads numpy fails under the block, so the script's
    # errexit would fail on it
    probe = subprocess.run(
        ["python", "-m", "shorsim.cli", "dist", "--kind", "compiled",
         "--p", "3", "--q", "7"],
        env=env, capture_output=True, text=True, timeout=60)
    assert probe.returncode != 0
    assert "numpy is blocked here" in probe.stderr
    done = subprocess.run(["bash", str(SCRIPT)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("all calls ran without numpy\n")
