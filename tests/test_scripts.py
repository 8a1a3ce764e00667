import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_model_diagnostics_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "model_diagnostics.py"), "--n", "16", "--d", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    worst = re.findall(r"worst analytic-vs-oracle deviation: (\S+)", proc.stdout)
    assert len(worst) == 2  # linear and log modes
    assert all(float(w) < 1e-10 for w in worst)
