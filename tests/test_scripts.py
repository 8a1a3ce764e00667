import importlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def test_model_diagnostics_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "model_diagnostics.py"), "--n", "16", "--d", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    worst = re.findall(r"worst analytic-vs-oracle deviation: (\S+)", proc.stdout)
    assert len(worst) == 2  # linear and log modes
    assert all(float(w) < 1e-10 for w in worst)


def test_tracer_layers_exist(monkeypatch):
    # bench/tracer.py replaces each LAYERS function by module attribute; a
    # renamed or deleted function would leave `--trace 1` without its spans
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for mod, fns in tracer.LAYERS.items():
        module = importlib.import_module(f"eigennoise.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"eigennoise.{mod}.{fn}"
    hooked = set(tracer.TAGS) | set(tracer.EXTRAS) | tracer.MEMORY_TRACED
    assert hooked <= set(tracer.LAYER_NAMES)
