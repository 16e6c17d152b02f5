"""The command checks (``tests/commands.sh``): the workflow runs them only here, in tier-1.

The script runs every subcommand in a fresh ``python -m capsched`` process,
which in-process tests do not: exit codes, numpy warnings raised as errors,
and the byte-identical results of one- and two-worker sweeps.
"""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("bash") is None, reason="the script needs bash")
def test_commands_script_passes(tmp_path):
    env = {
        **os.environ,
        "PYTHON": sys.executable,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONWARNINGS": "error::RuntimeWarning",
    }
    script = ROOT / "tests" / "commands.sh"
    result = subprocess.run(
        ["bash", "-euo", "pipefail", str(script), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
