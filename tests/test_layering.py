"""The sampling path loads no theory-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import circembed

# each loads scipy.linalg; only the theory diagnostics in `analysis` use them
THEORY_ONLY = ("scipy.integrate", "scipy.optimize", "scipy.linalg")


def test_importing_the_cli_loads_no_theory_only_module():
    src = str(Path(circembed.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, circembed.cli; "
            f"print([m for m in {THEORY_ONLY!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
