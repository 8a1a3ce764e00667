#!/usr/bin/env python3
"""Time the layers of a CoNLL-scale probe run in two source trees.

    python scripts/layers.py PARENT_SRC CHANGE_SRC [--pairs N] [--train-tokens T]

Each argument is a checkout of this repository, as for
``scripts/parity.py``. The task is written once, into a temporary
directory: ``bench/tokenzipf.generate`` at seed 3 with ``T`` train tokens
(204,000 by default, the size of CoNLL-2003's train split) and a quarter
of that each for dev and test. The representations are eigennoise, random
and the task's GloVe file, at seed 0 (the one-seed run of ROADMAP item 3)
and the ``probe run`` defaults otherwise. Each
layer is measured in a fresh process per tree and pair, with
``OPENBLAS_NUM_THREADS=1``; odd pairs run the parent first, even pairs
the change:

* ``context``: ``matrix.build_context`` at windows 0, 2, 5 and 10, its wall
  time and the process's peak resident size (``VmHWM`` of
  ``/proc/self/status``, where there is one) after it;
* ``evaluate_loss.w0`` and ``evaluate_loss.w10``: an untrained probe
  (``probe.init_probe`` at seed 0, float32, over the frozen eigennoise
  table) scored on every dev row, at window 0 and at window 10;
* ``predict_proba.w10``: the same probe's class probabilities for the last
  half of the train rows, the last block of the online codelength, at
  window 10;
* ``fit.unfrozen.w0`` and ``fit.frozen.w0``, in one process whose context
  holds window 0 only: the fit that ``matrix.run_cell`` trains for the
  25% stage of a seed-0 cell (the first rows of the seed-0 stream of
  ``mdl.online_codelength`` up to the 25% boundary of
  ``mdl.make_schedule``, 51,000 rows at the default size, with the dev
  split), at ``max_epochs=2``, over a trainable copy of the eigennoise
  table and over the shared table. Each records its wall time, the time
  spent in ``probe.backward`` and ``probe.adam_step`` (wrapped by module
  attribute), and the sha256 of the trained ``w1``, ``w2`` and, unfrozen,
  table rows.

A scoring layer is timed once, then run again under ``tracemalloc`` for
its allocation peak, and its output is hashed with sha256. The script
prints one JSON object: for each layer and metric, the per-side runs and
medians, the change/parent ratio of each pair and how many pairs the
change won (lower is better for every metric), and, for the scoring and
fit layers, whether every output hash was equal. Five pairs take about
three and a half minutes on 2 cores. Needs numpy only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("context", "evaluate_loss", "predict_proba", "fit")


def write_task(directory: Path, train_tokens: int) -> None:
    """Write the token-zipf task and its vectors into ``directory``."""
    spec = importlib.util.spec_from_file_location("tokenzipf",
                                                  ROOT / "bench" / "tokenzipf.py")
    tokenzipf = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache under bench/
    try:
        spec.loader.exec_module(tokenzipf)
    finally:
        sys.dont_write_bytecode = dont_write
    tokenzipf.generate(directory, seed=3, train_tokens=train_tokens)


def _peak_rss_mb() -> float | None:
    """This process's peak resident size from ``/proc/self/status``."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def child(layer: str, task_dir: Path) -> dict:
    """Measure ``layer`` in this process, from the ``eigennoise`` on its path."""
    import hashlib
    import time
    import tracemalloc
    from dataclasses import fields

    import numpy as np

    from eigennoise import cli, matrix, probe

    windows = {"context": "0,2,5,10", "fit": "0"}.get(layer, "0,10")
    args = cli.build_parser().parse_args([
        "probe", "run", "--task", "conll", "--train", str(task_dir / "zipf.train"),
        "--representations", f"eigennoise,random,import:{task_dir / 'vectors.glove.txt'}",
        "--windows", windows, "--seeds", "0", "--output-dir", str(task_dir / "unused")])
    spec = matrix.RunSpec(**{f.name: getattr(args, f.name) for f in fields(matrix.RunSpec)})
    start = time.perf_counter()
    ctx = matrix.build_context(spec)
    wall = time.perf_counter() - start
    if layer == "context":
        return {"context": {"wall_s": wall, "vmhwm_mb": _peak_rss_mb()}}

    table = ctx.tables["eigennoise", 0]
    if layer == "fit":
        return {f"fit.{'frozen' if frozen else 'unfrozen'}.w0": fit(ctx, table, frozen)
                for frozen in (False, True)}

    def untrained(window: int):
        return probe.init_probe(table.d * (2 * window + 1), ctx.train_data[window].num_classes,
                                hidden=spec.hidden, seed=0, table=table, dtype=np.float32)

    if layer == "evaluate_loss":
        calls = {f"evaluate_loss.w{w}": (probe.evaluate_loss, untrained(w), ctx.dev_data[w])
                 for w in (0, 10)}
    else:
        train = ctx.train_data[10]
        calls = {"predict_proba.w10": (probe.predict_proba, untrained(10),
                                       train.subset(slice(len(train) // 2, None)))}
    out = {}
    for name, (score, model, data) in calls.items():
        start = time.perf_counter()
        result = score(model, data)
        wall = time.perf_counter() - start
        tracemalloc.start()
        try:
            again = score(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        digest = hashlib.sha256(np.asarray(result, dtype=float).tobytes()).hexdigest()
        if hashlib.sha256(np.asarray(again, dtype=float).tobytes()).hexdigest() != digest:
            raise RuntimeError(f"{name}: two calls gave different outputs")
        out[name] = {"wall_s": wall, "alloc_peak_mb": peak / 2**20, "sha256": digest}
    return out


def fit(ctx, table, frozen: bool) -> dict:
    """Train the 25%-stage fit of a window-0 cell at seed 0, as
    ``matrix.run_cell`` would, over ``table`` (a trainable copy unless
    ``frozen``) for two epochs; its wall time, the time inside
    ``probe.backward`` and ``probe.adam_step``, and the trained weights'
    (and table's) sha256."""
    import hashlib
    import time
    from dataclasses import replace

    import numpy as np

    from eigennoise import mdl, probe

    train = ctx.train_data[0]
    prefix = mdl.make_schedule(len(train), fractions=(25.0,)).boundaries[0]
    # the stream order of mdl.online_codelength at seed 0
    order = np.random.Generator(np.random.Philox(key=0)).permutation(len(train))
    config = replace(ctx.config_base, seed=0, max_epochs=2)
    spent = {"backward": 0.0, "adam_step": 0.0}

    def timed(name, inner):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    originals = {name: getattr(probe, name) for name in spent}
    for name, inner in originals.items():
        setattr(probe, name, timed(name, inner))
    try:
        table = table if frozen else table.copy(trainable=True)
        start = time.perf_counter()
        model = probe.train_probe(train.subset(order[:prefix]), ctx.dev_data[0], config,
                                  table=table)[0]
        wall = time.perf_counter() - start
    finally:
        for name, inner in originals.items():
            setattr(probe, name, inner)
    out = {"wall_s": wall, "backward_s": spent["backward"], "adam_step_s": spent["adam_step"]}
    for name, array in (("w1", model.w1), ("w2", model.w2),
                        *(() if frozen else (("table", table.rows),))):
        out[f"{name}_sha256"] = hashlib.sha256(array.tobytes()).hexdigest()
    return out


def source_dir(tree: Path) -> Path:
    """``tree``'s ``src`` directory; exits when it holds no eigennoise package."""
    src = (tree / "src").resolve()
    if not (src / "eigennoise" / "cli.py").is_file():
        sys.exit(f"{tree}: not a checkout of eigennoise (no src/eigennoise/cli.py)")
    return src


def run_child(src: Path, layer: str, task_dir: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--child", layer, str(task_dir)],
                          env=env, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        sys.exit(f"{src}: the {layer} layer failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def summarize(runs: dict[str, list[dict]]) -> dict:
    """Per layer and metric: runs, medians, per-pair ratios and the
    change's wins; and whether the layer's output hashes were equal."""
    summary = {}
    for name in runs["parent"][0]:
        pairs = [(old[name], new[name]) for old, new in zip(runs["parent"], runs["change"])]
        entry = {}
        hashes = [metric for metric in pairs[0][0] if metric.endswith("sha256")]
        for metric, value in pairs[0][0].items():
            if metric in hashes or value is None:
                continue
            old = [a[metric] for a, _ in pairs]
            new = [b[metric] for _, b in pairs]
            entry[metric] = {
                "parent_runs": [round(v, 4) for v in old],
                "change_runs": [round(v, 4) for v in new],
                "parent_median": round(statistics.median(old), 4),
                "change_median": round(statistics.median(new), 4),
                "ratios": [round(b / a, 4) for a, b in zip(old, new)],
                "change_wins": sum(b < a for a, b in zip(old, new)),
            }
        if hashes:
            entry["hashes_equal"] = all(
                len({run[metric] for pair in pairs for run in pair}) == 1 for metric in hashes)
        summary[name] = entry
    return summary


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        print(json.dumps(child(argv[1], Path(argv[2]))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--train-tokens", type=int, default=204_000)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.train_tokens < 1:
        parser.error("--pairs and --train-tokens must be >= 1")
    sources = {"parent": source_dir(args.parent_src), "change": source_dir(args.change_src)}
    work = Path(tempfile.mkdtemp(prefix="eigennoise-layers-"))
    try:
        write_task(work, args.train_tokens)
        runs = {"parent": [{} for _ in range(args.pairs)],
                "change": [{} for _ in range(args.pairs)]}
        for layer in LAYERS:
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side][pair].update(run_child(sources[side], layer, work))
    finally:
        shutil.rmtree(work)
    print(json.dumps({"train_tokens": args.train_tokens, "pairs": args.pairs, "seed": 3,
                      "threads": {"OPENBLAS_NUM_THREADS": "1"},
                      "order": "odd pairs parent first, even pairs change first",
                      "layers": summarize(runs)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
