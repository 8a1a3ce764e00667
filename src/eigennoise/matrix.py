"""The probe-run experiment matrix.

A run scores every representation x window x frozen x seed cell of one
task by MDL online codelength (Voita & Titov, arXiv:2003.12298) and by
test accuracy. The parsed ``probe run`` options are the input:
``build_context`` reads the task into what every cell shares,
``matrix_cells`` lists the cells, ``run_cell`` scores one, ``run_matrix``
scores them all, and ``write_run`` writes ``cells/*.mdl.txt``,
``cells.json`` and ``report.txt``, whose table is ``mdl.format_table``.

``run_matrix`` hands the cells to worker processes forked after the
context was built. The workers inherit the context through the fork, so
only the ``CellSpec`` and the ``CellResult`` are pickled; each cell then
runs on its own interpreter. Where ``fork`` is unavailable the cells are
scored in the calling process; either way ``run_cell`` scores the cell.

Every fit trains in single precision, ``PROBE_DTYPE``: ``_probe_table``
casts each cell's starting table once (the shared eigennoise and imported
tables when the context is built, a random table when a cell draws it),
and the probe computes in its table's dtype. A frozen mean-pooled cell
pools each split through its table once and trains on those features,
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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import datasets, eigen, embeddings, mdl
from . import probe as probe_mod
from . import vocab as vocab_mod

# the dtype every fit trains in; tables written by ``embed`` stay float64
PROBE_DTYPE = "float32"

# options copied as parsed into the spec line of cells.json and report.txt
SPEC_OPTIONS = ("representations", "frozen", "seeds", "d", "m", "mode", "vocab_cap",
                "lr", "hidden", "batch_size", "max_epochs", "patience")


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
    tables: dict  # representation -> PROBE_DTYPE EmbeddingTable; random is drawn per seed
    d: int


def _probe_table(table: embeddings.EmbeddingTable) -> embeddings.EmbeddingTable:
    return replace(table, rows=table.rows.astype(PROBE_DTYPE))


def _cell_table(cell: CellSpec, ctx: MatrixContext) -> embeddings.EmbeddingTable:
    """The cell's starting table, in ``PROBE_DTYPE``. Shared tables are
    returned as they are: only an unfrozen fit trains a copy."""
    if cell.representation == "random":
        return _probe_table(embeddings.random_table(ctx.vocab.size, ctx.d, cell.seed))
    return ctx.tables[cell.representation]


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
        base = _cell_table(cell, ctx)
        config = replace(ctx.config_base, seed=cell.seed)
        train = ctx.train_data[cell.window]
        dev = ctx.dev_data.get(cell.window)
        test = ctx.test_data.get(cell.window)
        # A frozen table is a constant, so a mean-pooled example's features
        # are too: pool each split once and train on them with no table.
        # (Concat features would take (examples x window x d) floats.)
        pool_once = cell.frozen and train.lengths is not None
        if pool_once:
            train, dev, test = (_pooled(data, base) for data in (train, dev, test))

        def fit(fit_train, fit_dev, cfg):
            if cell.frozen:  # only read: the shared table, or none once pooled
                table = None if pool_once else base
            else:
                table = base.copy(trainable=True)
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


def _discover_missing_splits(args) -> None:
    """Fill --dev/--test from sibling files when --train ends in .train."""
    train = str(args.train)
    if not train.endswith(".train"):
        return
    prefix = train[: -len(".train")]
    for split in ("dev", "test"):
        sibling = Path(f"{prefix}.{split}")
        if getattr(args, split) is None and sibling.exists():
            setattr(args, split, str(sibling))


def build_context(args) -> MatrixContext:
    """Read the task's splits, rank the vocabulary, featurize every split
    once and build the shared tables. A conll task needs ``args.windows``;
    each split is featurized at the widest, and every window shares its
    labels and reads a column slice of its indices."""
    if args.task == "synthetic":
        eval_n = max(args.classes * 10, args.n // 5)
        splits = {
            split: datasets.synth_task(args.kind, n, k=args.classes,
                                       seed=args.data_seed, split=split)
            for split, n in (("train", args.n), ("dev", eval_n), ("test", eval_n))
        }
        task_label = f"synthetic-{args.kind}"
    else:
        _discover_missing_splits(args)
        train = datasets.read_split(args.task, args.train, args.token_column,
                                    args.label_column)
        splits = {"train": train}
        for name, path in (("dev", args.dev), ("test", args.test)):
            if path is not None:
                ds = datasets.read_split(args.task, path, args.token_column,
                                         args.label_column)
                try:
                    splits[name] = replace(ds, label_set=train.label_set)
                except ValueError as exc:
                    raise ValueError(f"{path}: {exc}") from None
        task_label = Path(args.train).stem
    voc = vocab_mod.build_vocab(datasets.dataset_tokens(splits["train"]),
                                case_fold=datasets.resolve_case_fold(args.case_fold,
                                                                     args.task),
                                max_size=args.vocab_cap)
    if args.d > voc.size:
        raise ValueError(
            f"embedding dimension {args.d} exceeds vocabulary size {voc.size}"
        )

    def featurize(ds) -> dict:
        if args.task == "conll":
            widest = max(args.windows)
            wide = probe_mod.token_window_data(ds, voc, widest)
            return {w: replace(wide, indices=wide.indices[:, widest - w:widest + w + 1])
                    for w in args.windows}
        return {None: probe_mod.sequence_data(ds, voc)}

    data = {name: featurize(ds) for name, ds in splits.items()}

    tables = {}
    for rep in args.representations:
        if rep == "eigennoise":
            tables[rep] = _probe_table(eigen.to_embedding(eigen.eigennoise_analytic(
                voc.size, args.d, m=args.m, mode=args.mode,
                completion_seed=args.completion_seed)))
        elif rep.startswith("import:"):
            table, _ = embeddings.import_text(rep.split(":", 1)[1], voc,
                                              expected_d=args.d)
            tables[rep] = _probe_table(table)

    n_train = len(next(iter(data["train"].values())))
    config = probe_mod.TrainConfig(
        lr=args.lr, patience=args.patience, batch_size=args.batch_size,
        max_epochs=args.max_epochs, hidden=args.hidden)
    return MatrixContext(
        task_label=task_label,
        vocab=voc,
        train_data=data["train"],
        dev_data=data.get("dev", {}),
        test_data=data.get("test", {}),
        schedule=mdl.make_schedule(n_train, fractions=args.fractions),
        config_base=config,
        tables=tables,
        d=args.d,
    )


def matrix_cells(args) -> list[CellSpec]:
    """Only token (conll) tasks have windows; other tasks get window None."""
    if args.frozen == "both":
        frozen_options = (True, False)
    else:
        frozen_options = (args.frozen == "true",)
    return [
        CellSpec(representation=rep, window=w, frozen=fr, seed=seed)
        for rep in args.representations
        for w in args.windows or (None,)
        for fr in frozen_options
        for seed in args.seeds
    ]


# --- reports ----------------------------------------------------------------


def write_run(args, ctx: MatrixContext, results: list[CellResult]) -> list[dict]:
    """Write ``cells/<cell>.mdl.txt`` per scored cell,
    ``cells/<cell>.error.txt`` (its traceback) per failed cell,
    ``cells.json`` and ``report.txt`` under ``--output-dir``. Returns the
    cell records in cell-name order."""
    out_dir = Path(args.output_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
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

    spec = {name: getattr(args, name) for name in SPEC_OPTIONS}
    spec.update(task=ctx.task_label, windows=args.windows or None,
                vocab_size=ctx.vocab.size, boundaries=ctx.schedule.boundaries)
    (out_dir / "cells.json").write_text(
        json.dumps({"spec": spec, "cells": records}, sort_keys=True, indent=2) + "\n",
        encoding="utf-8")

    body_lines = ["spec: " + json.dumps(spec, sort_keys=True), "",
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
