import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_interpolation_kernel_demo_runs():
    # The demo drives the kernel's public API end to end, so it catches drift.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / "interpolation_kernel.py")],
                            capture_output=True, text=True, timeout=120, env=env)
    assert result.returncode == 0, result.stderr
