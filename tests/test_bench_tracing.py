"""The traced benchmark wraps program names by attribute; each must still exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import tracing
tracing.install(tracing.Tracer())
print("installed")
"""


def test_tracer_wraps_every_name_it_expects():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "bench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", INSTALL],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "installed"
