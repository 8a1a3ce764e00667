"""The probe-run experiment matrix.

A run scores every representation x window x frozen x seed cell of one
task by MDL online codelength (Voita & Titov, arXiv:2003.12298) and by
test accuracy. ``run`` takes a ``RunSpec``, the settled ``probe run``
options, and runs it all: ``matrix_cells`` lists the cells,
``build_context`` reads the task into what every cell shares,
``run_cell`` scores one cell, ``run_matrix`` scores them all, and
``write_run`` writes ``cells/*.mdl.txt``, ``cells.json`` and
``report.txt``, whose table is ``mdl.format_table``.

``run_matrix`` hands the cells to worker processes forked after the
context was built. The workers inherit the context through the fork, so
only the ``CellSpec`` and the ``CellResult`` are pickled; each cell then
runs on its own interpreter. Where ``fork`` is unavailable the cells are
scored in the calling process; either way ``run_cell`` scores the cell.

Every fit trains in single precision, ``PROBE_DTYPE``: the context holds
every cell's starting table, cast once when the context is built (the
eigennoise and imported tables shared by every seed, one random draw per
seed), and the probe computes in its table's dtype. A frozen mean-pooled
cell pools each split through its table once and trains on those features,
which keep the table's dtype, with no table attached. The logits and
everything after them, codelength bits included, stay float64 (see
``probe``).

Layer functions are called through their modules (``mdl.online_codelength``,
``probe_mod.train_probe``), so replacing a module attribute reaches every
cell.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import datasets, eigen, embeddings, mdl
from . import probe as probe_mod
from . import vocab as vocab_mod

# the dtype every fit trains in; tables written by ``embed`` stay float64
PROBE_DTYPE = "float32"


@dataclass(frozen=True)
class RunSpec:
    """Every setting that decides a run's bits: the ``probe run`` options
    but ``--output-dir`` and ``--workers``, settled. Lists are tuples
    without repeats, in the order first given; ``windows`` is empty for a
    task without windows; ``dev`` and ``test`` are the files read,
    siblings of a ``.train`` file included. No field has a default: the
    parser and ``defaults`` own them. The spec line of ``cells.json`` and
    ``report.txt`` is this spec plus the vocabulary size and the block
    boundaries."""

    task: str  # "synthetic", "tsv" or "conll"
    kind: str  # the synthetic task's kind, train size, classes and draw seed
    n: int
    classes: int
    data_seed: int
    train: str | None  # tsv and conll: the split files and their columns
    dev: str | None
    test: str | None
    token_column: int
    label_column: int
    representations: tuple[str, ...]  # "eigennoise", "random", or "import:<path>"
    windows: tuple[int, ...]
    frozen: tuple[bool, ...]  # the frozen settings to run
    seeds: tuple[int, ...]
    d: int  # the width of every table
    m: int  # m, mode and completion_seed: the eigennoise table
    mode: str
    completion_seed: int
    vocab_cap: int
    case_fold: str  # "auto", "on" or "off"
    hidden: int  # the probe.TrainConfig settings
    lr: float
    batch_size: int
    max_epochs: int
    patience: int
    fractions: tuple[float, ...]  # the MDL block boundaries, in percent


# --- cells ------------------------------------------------------------------


@dataclass(frozen=True)
class CellSpec:
    representation: str  # "eigennoise", "random", or "import:<path>"
    window: int | None  # token tasks only
    frozen: bool
    seed: int

    @property
    def name(self) -> str:
        rep = self.representation.replace(":", "_").replace("/", "_")
        win = "seq" if self.window is None else f"w{self.window}"
        mode = "frozen" if self.frozen else "unfrozen"
        return f"{rep}_{win}_{mode}_s{self.seed}"


@dataclass
class CellResult:
    cell: CellSpec
    report: mdl.CodelengthReport | None = None
    accuracy: float | None = None
    error: str | None = None  # "<Type>: <message>", as cells.json records it
    traceback: str | None = None  # written to cells/<cell>.error.txt only

    def to_record(self, task: str) -> dict:
        record = {
            "task": task,
            "representation": self.cell.representation,
            "window": self.cell.window,
            "frozen": self.cell.frozen,
            "seed": self.cell.seed,
            "accuracy": self.accuracy,
            "error": self.error,
        }
        for key, attr in (("total_bits", "total_bits"), ("kilobits", "kilobits"),
                          ("kilobytes", "kilobytes"),
                          ("uniform_bits", "uniform_baseline_bits"),
                          ("clamps", "clamp_count")):
            record[key] = None if self.report is None else getattr(self.report, attr)
        return record


@dataclass
class MatrixContext:
    """Everything a cell needs, shared read-only across the pool."""

    task_label: str
    vocab: vocab_mod.Vocabulary
    train_data: dict  # window (or None) -> ProbeData
    dev_data: dict
    test_data: dict
    schedule: mdl.BlockSchedule
    config_base: probe_mod.TrainConfig
    tables: dict  # (representation, seed) -> the cell's starting PROBE_DTYPE table


def _probe_table(table: embeddings.EmbeddingTable) -> embeddings.EmbeddingTable:
    return replace(table, rows=table.rows.astype(PROBE_DTYPE))


def _failed(cell: CellSpec, exc: Exception) -> CellResult:
    return CellResult(cell=cell, error=f"{type(exc).__name__}: {exc}",
                      traceback="".join(traceback.format_exception(exc)))


def _pooled(data: probe_mod.ProbeData | None,
            table: embeddings.EmbeddingTable) -> probe_mod.ProbeData | None:
    """Mean-pooled ``data`` as direct features over a table that never changes."""
    if data is None:
        return None
    return probe_mod.ProbeData(labels=data.labels, num_classes=data.num_classes,
                               features=probe_mod.gather_features(data, table))


def run_cell(cell: CellSpec, ctx: MatrixContext) -> CellResult:
    try:
        base = ctx.tables[cell.representation, cell.seed]
        config = replace(ctx.config_base, seed=cell.seed)
        train = ctx.train_data[cell.window]
        dev = ctx.dev_data.get(cell.window)
        test = ctx.test_data.get(cell.window)
        # A frozen table is a constant, so a mean-pooled example's features
        # are too: pool each split once and train on them with no table.
        # (Concat features would take (examples x window x d) floats.)
        if cell.frozen and train.lengths is not None:
            train, dev, test = (_pooled(data, base) for data in (train, dev, test))
            base = None

        def fit(fit_train, fit_dev, cfg):
            # a frozen fit only reads the shared table (or none once pooled)
            table = base if cell.frozen else base.copy(trainable=True)
            return probe_mod.train_probe(fit_train, fit_dev, cfg, table=table)[0]

        def fit_predict(prefix, stage_dev, cfg):
            model = fit(prefix, stage_dev, cfg)
            return lambda batch: probe_mod.predict_proba(model, batch)

        report = mdl.online_codelength(train, ctx.schedule, fit_predict, config, dev=dev)
        accuracy = None
        if test is not None:  # stage 0: the codelength stages hold out with stages 1..
            acc_train, acc_dev = mdl.holdout(train, dev, cell.seed, 0)
            accuracy = probe_mod.evaluate_accuracy(fit(acc_train, acc_dev, config), test)
        return CellResult(cell=cell, report=report, accuracy=accuracy)
    except Exception as exc:  # cell failures are recorded, not fatal
        return _failed(cell, exc)


# Each forked worker's context, set by its initializer; never set in the parent.
_worker_ctx: MatrixContext | None = None


def _init_worker(ctx: MatrixContext) -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _run_worker_cell(cell: CellSpec) -> CellResult:
    return run_cell(cell, _worker_ctx)


def run_matrix(ctx: MatrixContext, cells: list[CellSpec], workers: int) -> list[CellResult]:
    """Score ``cells`` on ``min(workers, len(cells))`` forked processes.

    ``fork``, not ``spawn``: a worker starts with the context already
    built, which it receives through the initializer's arguments and so
    never pickles, and it inherits the caller's one-thread BLAS. A fork
    pool forks every worker on the first submit, before it starts its
    manager thread, and this starts no thread itself, so no worker
    inherits a lock another thread held. A dead worker breaks the pool:
    every cell it left unscored fails. The workers are joined before this
    returns, so the process's resource usage counts theirs. Where
    ``fork`` is unavailable, cells are scored in the calling process.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # unfrozen cells take about twice as long as frozen ones (an n=500 desk
    # cell, 2 cores: 0.7-0.9 s against 0.3-0.5 s): start them first
    cells = sorted(cells, key=lambda c: c.frozen)
    if "fork" not in multiprocessing.get_all_start_methods():
        return [run_cell(cell, ctx) for cell in cells]
    with ProcessPoolExecutor(min(workers, len(cells)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=(ctx,)) as pool:
        futures = [pool.submit(_run_worker_cell, cell) for cell in cells]
    return [future.result() if future.exception() is None
            else _failed(cell, future.exception()) for cell, future in zip(cells, futures)]


def build_context(spec: RunSpec) -> MatrixContext:
    """Read the task's splits, rank the vocabulary, featurize every split
    once and build every cell's starting table, keyed by (representation,
    seed). A conll task needs ``spec.windows``; each split is featurized at
    the widest, and every window shares its labels and reads a column slice
    of its indices."""
    if spec.task == "synthetic":
        eval_n = max(spec.classes * 10, spec.n // 5)
        splits = {
            split: datasets.synth_task(spec.kind, n, k=spec.classes,
                                       seed=spec.data_seed, split=split)
            for split, n in (("train", spec.n), ("dev", eval_n), ("test", eval_n))
        }
        task_label = f"synthetic-{spec.kind}"
    else:
        train = datasets.read_split(spec.task, spec.train, spec.token_column,
                                    spec.label_column)
        splits = {"train": train}
        for name, path in (("dev", spec.dev), ("test", spec.test)):
            if path is not None:
                ds = datasets.read_split(spec.task, path, spec.token_column,
                                         spec.label_column)
                try:
                    splits[name] = replace(ds, label_set=train.label_set)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
        task_label = Path(spec.train).stem
    voc = vocab_mod.build_vocab(chain.from_iterable(splits["train"].tokens),
                                case_fold=datasets.resolve_case_fold(spec.case_fold,
                                                                     spec.task),
                                max_size=spec.vocab_cap)
    if spec.d > voc.size:
        raise ValueError(
            f"embedding dimension {spec.d} exceeds vocabulary size {voc.size}"
        )

    def featurize(ds) -> dict:
        if spec.task == "conll":
            widest = max(spec.windows)
            wide = probe_mod.token_window_data(ds, voc, widest)
            return {w: replace(wide, indices=wide.indices[:, widest - w:widest + w + 1])
                    for w in spec.windows}
        return {None: probe_mod.sequence_data(ds, voc)}

    data = {name: featurize(ds) for name, ds in splits.items()}

    tables = {}
    for rep in spec.representations:
        if rep == "eigennoise":
            table = _probe_table(eigen.to_embedding(eigen.eigennoise_analytic(
                voc.size, spec.d, m=spec.m, mode=spec.mode,
                completion_seed=spec.completion_seed)))
        elif rep.startswith("import:"):
            table = _probe_table(embeddings.import_text(rep.split(":", 1)[1], voc,
                                                        expected_d=spec.d)[0])
        for seed in spec.seeds:  # a random table is drawn per seed; the others are shared
            tables[rep, seed] = (table if rep != "random" else _probe_table(
                embeddings.random_table(voc.size, spec.d, seed)))

    n_train = len(next(iter(data["train"].values())))
    config = probe_mod.TrainConfig(
        lr=spec.lr, patience=spec.patience, batch_size=spec.batch_size,
        max_epochs=spec.max_epochs, hidden=spec.hidden)
    return MatrixContext(
        task_label=task_label,
        vocab=voc,
        train_data=data["train"],
        dev_data=data.get("dev", {}),
        test_data=data.get("test", {}),
        schedule=mdl.make_schedule(n_train, fractions=spec.fractions),
        config_base=config,
        tables=tables,
    )


def matrix_cells(spec: RunSpec) -> list[CellSpec]:
    """Only token (conll) tasks have windows; other tasks get window None.
    Two representations whose cells would share a file name are refused."""
    cells = [
        CellSpec(representation=rep, window=w, frozen=fr, seed=seed)
        for rep in spec.representations
        for w in spec.windows or (None,)
        for fr in spec.frozen
        for seed in spec.seeds
    ]
    owners = {}
    for cell in cells:
        owner = owners.setdefault(cell.name, cell.representation)
        if owner != cell.representation:
            raise ValueError(f"representations {owner!r} and {cell.representation!r} "
                             f"would write the same cell files ({cell.name}.*)")
    return cells


def run(spec: RunSpec, out_dir, workers: int) -> list[dict]:
    """Run the matrix that ``spec`` describes on ``workers`` processes:
    list the cells, read the task, make ``out_dir``/cells, score every
    cell and write the run. A faulty spec or task raises before anything
    is written, and an unusable output directory before any cell is
    scored. Returns the cell records in cell-name order."""
    cells = matrix_cells(spec)
    ctx = build_context(spec)
    out_dir = Path(out_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
    return write_run(out_dir, spec, ctx, run_matrix(ctx, cells, workers))


# --- reports ----------------------------------------------------------------


def write_run(out_dir: Path, spec: RunSpec, ctx: MatrixContext,
              results: list[CellResult]) -> list[dict]:
    """Write ``cells/<cell>.mdl.txt`` per scored cell,
    ``cells/<cell>.error.txt`` (its traceback) per failed cell,
    ``cells.json`` and ``report.txt`` under ``out_dir``, whose ``cells``
    directory exists. Returns the cell records in cell-name order."""
    results = sorted(results, key=lambda r: r.cell.name)
    for res in results:
        # a file an earlier run into this directory wrote for the cell is stale
        mdl_path = out_dir / "cells" / f"{res.cell.name}.mdl.txt"
        if res.report is not None:
            mdl.write_report(res.report, mdl_path)
        else:
            mdl_path.unlink(missing_ok=True)
        error_path = out_dir / "cells" / f"{res.cell.name}.error.txt"
        if res.traceback is not None:
            error_path.write_text(res.traceback, encoding="utf-8")
        else:
            error_path.unlink(missing_ok=True)
    records = [res.to_record(ctx.task_label) for res in results]

    line = asdict(spec) | {"vocab_size": ctx.vocab.size,
                           "boundaries": ctx.schedule.boundaries}
    (out_dir / "cells.json").write_text(
        json.dumps({"spec": line, "cells": records}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")

    body_lines = ["spec: " + json.dumps(line, sort_keys=True), "",
                  mdl.format_table(records), "cells:"]
    for rec in records:
        status = rec["error"] if rec["error"] else (
            f"bits={rec['total_bits']:.3f} uniform={rec['uniform_bits']:.3f}"
            + (f" acc={rec['accuracy']:.4f}" if rec["accuracy"] is not None else "")
            + f" clamps={rec['clamps']}")
        win = "-" if rec["window"] is None else rec["window"]
        frozen = "frozen" if rec["frozen"] else "unfrozen"
        body_lines.append(
            f"  {rec['representation']} window={win} {frozen} seed={rec['seed']}: {status}")
    body = "\n".join(body_lines) + "\n"
    header = f"# probe run at {datetime.now(timezone.utc).isoformat()}\n"
    (out_dir / "report.txt").write_text(header + body, encoding="utf-8")
    return records
