import importlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.fixture
def parity(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("parity", SCRIPTS / "parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parity_subset(parity, inputs):
    """A help, a usage error, two vocabularies, one good and one malformed
    import."""
    outputs = (["vocab.tsv"], ["small.tsv"], ["imported-glove.txt"],
               ["imported-bad-value-before-ragged-vec.txt"])
    return [argv for argv in parity.command_set(inputs)
            if argv == ["--help"] or "--max-size" in argv or argv[-1:] in outputs]


def test_parity_same_tree_has_no_difference(tmp_path, parity):
    commands = _parity_subset(parity, parity.make_inputs(tmp_path / "inputs"))
    assert len(commands) == 6
    sides = [(tmp_path / side, parity.run_tree(ROOT / "src", tmp_path / side, commands))
             for side in ("parent", "change")]
    assert parity.differences(commands, *sides) == []
    assert [code for code, _, _ in sides[0][1]] == [0, 1, 0, 0, 0, 2]
    # report bodies are compared without their timestamp line
    for (work, _), stamp in zip(sides, ("00:00", "11:11")):
        (work / "report.txt").write_text(f"# probe run at {stamp}\nbody\n")
    assert parity.differences(commands, *sides) == []


def test_parity_names_a_patched_output(tmp_path, parity):
    commands = _parity_subset(parity, parity.make_inputs(tmp_path / "inputs"))
    parent, change = [(tmp_path / side,
                       parity.run_tree(ROOT / "src", tmp_path / side, commands))
                      for side in ("parent", "change")]
    # patch a table line, delete a file and change a stderr: all three are named
    table = change[0] / "imported-glove.txt"
    lines = table.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3] = lines[3].replace(" ", " -", 1)
    table.write_text("".join(lines), encoding="utf-8")
    (change[0] / "small.tsv").unlink()
    code, stdout, stderr = change[1][-1]
    change[1][-1] = (code, stdout, stderr.replace(b"column", b"field"))
    found = parity.differences(commands, parent, change)
    assert len(found) == 3
    assert found[0].startswith(f"eigennoise {' '.join(commands[-1])}: stderr: line 1:")
    assert found[1].startswith("imported-glove.txt: line 4:\n  parent: ")
    assert found[2] == "small.tsv: missing on the change side"


def test_layers_smoke():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "layers.py"), str(ROOT), str(ROOT), "--pairs", "1",
         "--train-tokens", "1500"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    layers = report["layers"]
    assert set(layers) == {"context", "evaluate_loss.w0", "evaluate_loss.w10",
                           "predict_proba.w10", "fit.unfrozen.w0", "fit.frozen.w0"}
    assert set(layers["context"]) <= {"wall_s", "vmhwm_mb"}
    for name in ("evaluate_loss.w0", "evaluate_loss.w10", "predict_proba.w10"):
        assert layers[name]["hashes_equal"]
        assert set(layers[name]) == {"wall_s", "alloc_peak_mb", "hashes_equal"}
        assert len(layers[name]["wall_s"]["ratios"]) == 1
    for name in ("fit.unfrozen.w0", "fit.frozen.w0"):
        assert layers[name]["hashes_equal"]
        assert set(layers[name]) == {"wall_s", "backward_s", "adam_step_s", "hashes_equal"}
        assert 0 < layers[name]["adam_step_s"]["parent_median"] < layers[name]["wall_s"][
            "parent_median"]
