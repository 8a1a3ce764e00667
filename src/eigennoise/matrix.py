"""The probe-run experiment matrix.

A run scores every representation x window x frozen x seed cell of one
task by MDL online codelength (Voita & Titov, arXiv:2003.12298) and by
test accuracy. The parsed ``probe run`` options are the input:
``build_context`` reads the task into what every cell shares,
``matrix_cells`` lists the cells, ``run_cell`` scores one, and
``write_run`` writes ``cells/*.mdl.txt``, ``cells.json`` and
``report.txt``. ``probe run`` and ``report aggregate`` print the same
``format_table``.

Inside ``forked_workers(ctx, n, init)``, ``run_cell(cell, ctx)`` hands
the cell to one of ``n`` worker processes forked after the context was
built and waits for its result. The workers inherit the context through the fork,
so only the ``CellSpec`` and the ``CellResult`` are pickled; each cell
then runs on its own interpreter instead of sharing one lock with the
other cells. Outside it (or where ``fork`` is unavailable) ``run_cell``
scores in the calling process; either way one function scores the cell.

Layer functions are called through their modules (``mdl.online_codelength``,
``probe_mod.train_probe``), so replacing a module attribute reaches every
cell.
"""

from __future__ import annotations

import json
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import datasets, eigen, embeddings, mdl
from . import probe as probe_mod
from . import vocab as vocab_mod

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
    tables: dict  # representation -> EmbeddingTable; random is drawn per seed
    d: int


def _cell_table(cell: CellSpec, ctx: MatrixContext) -> embeddings.EmbeddingTable:
    """The cell's starting table. Shared tables are returned as they are:
    every fit trains its own copy."""
    if cell.representation == "random":
        return embeddings.random_table(ctx.vocab.size, ctx.d, cell.seed)
    return ctx.tables[cell.representation]


def _failed(cell: CellSpec, exc: Exception) -> CellResult:
    return CellResult(cell=cell, error=f"{type(exc).__name__}: {exc}",
                      traceback="".join(traceback.format_exception(exc)))


def _score(cell: CellSpec, ctx: MatrixContext) -> CellResult:
    try:
        base = _cell_table(cell, ctx)
        config = replace(ctx.config_base, seed=cell.seed)
        train = ctx.train_data[cell.window]
        dev = ctx.dev_data.get(cell.window)

        def fit(fit_train, fit_dev, cfg):
            table = base.copy(trainable=not cell.frozen)
            return probe_mod.train_probe(fit_train, fit_dev, cfg, table=table)[0]

        def fit_predict(prefix, stage_dev, cfg):
            model = fit(prefix, stage_dev, cfg)
            return lambda batch: probe_mod.predict_proba(model, batch)

        report = mdl.online_codelength(train, ctx.schedule, fit_predict, config, dev=dev)
        accuracy = None
        test = ctx.test_data.get(cell.window)
        if test is not None:
            if dev is not None:
                acc_train, acc_dev = train, dev
            else:  # stage 0: the codelength stages hold out with stages 1..
                acc_train, acc_dev = mdl.holdout(train, cell.seed, 0)
            accuracy = probe_mod.evaluate_accuracy(fit(acc_train, acc_dev, config), test)
        return CellResult(cell=cell, report=report, accuracy=accuracy)
    except Exception as exc:  # cell failures are recorded, not fatal
        return _failed(cell, exc)


# Set while forked_workers runs: the pool, and the context its workers
# inherited through the fork (so the context is never pickled).
_pool = None
_pool_ctx: MatrixContext | None = None


def _score_forked(cell: CellSpec) -> CellResult:
    """Worker side of run_cell: score against the inherited context."""
    return _score(cell, _pool_ctx)


def run_cell(cell: CellSpec, ctx: MatrixContext) -> CellResult:
    if _pool is None or ctx is not _pool_ctx:
        return _score(cell, ctx)
    try:
        return _pool.submit(_score_forked, cell).result()
    except Exception as exc:  # a dead worker breaks the pool: its cells fail
        return _failed(cell, exc)


@contextmanager
def forked_workers(ctx: MatrixContext, workers: int, initializer):
    """Score ``run_cell(cell, ctx)`` calls on ``workers`` forked processes.

    ``fork``, not ``spawn``: a forked worker starts with the context
    already built and pays no interpreter start-up. Every worker is
    forked on entry, before the caller starts a thread: ``fork`` copies
    only the calling thread, so a lock another thread held would stay
    held in the child. ``initializer`` runs once in each
    worker. The workers are joined on exit, so the process's resource
    usage counts theirs. Where ``fork`` is unavailable, cells are scored
    in the calling process. Not reentrant.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, wait

    global _pool, _pool_ctx
    if "fork" not in multiprocessing.get_all_start_methods():
        yield
        return
    _pool_ctx = ctx
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=initializer) as pool:
            # a fork pool forks all its workers on the first submit; a
            # broken pool fails each cell later, so the result is not read
            wait([pool.submit(int)])
            _pool = pool
            yield
    finally:
        _pool = _pool_ctx = None


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
    and build the shared tables. A conll task needs ``args.windows``."""
    if args.task == "synthetic":
        eval_n = max(args.classes * 10, args.n // 5)
        splits = {
            split: datasets.synth_task(args.kind, n, args.d, k=args.classes,
                                       seed=args.data_seed, split=split)
            for split, n in (("train", args.n), ("dev", eval_n), ("test", eval_n))
        }
        task_label = f"synthetic-{args.kind}"
    else:
        _discover_missing_splits(args)
        train = datasets.read_split(args.task, args.train, "train", args.token_column,
                                    args.label_column)
        splits = {"train": train}
        for name, path in (("dev", args.dev), ("test", args.test)):
            if path is not None:
                ds = datasets.read_split(args.task, path, name, args.token_column,
                                         args.label_column)
                splits[name] = datasets.apply_label_set(ds, train.label_set)
        task_label = Path(args.train).stem
    voc = vocab_mod.build_vocab(datasets.dataset_tokens(splits["train"]),
                                case_fold=datasets.resolve_case_fold(args.case_fold,
                                                                     args.task),
                                max_size=args.vocab_cap)

    def featurize(ds) -> dict:
        if args.task == "conll":
            return {w: probe_mod.token_window_data(ds, voc, w) for w in args.windows}
        if args.task == "tsv":
            return {None: probe_mod.sequence_data(ds, voc)}
        return {None: probe_mod.synthetic_token_data(ds, voc)}

    data = {name: featurize(ds) for name, ds in splits.items()}

    if args.d > voc.size:
        raise ValueError(
            f"embedding dimension {args.d} exceeds vocabulary size {voc.size}"
        )
    tables = {}
    for rep in args.representations:
        if rep == "eigennoise":
            fact = eigen.eigennoise_analytic(
                voc.size, args.d, m=args.m, mode=args.mode,
                completion_seed=args.completion_seed)
            tables[rep] = eigen.to_embedding(fact)
        elif rep.startswith("import:"):
            tables[rep], _ = embeddings.import_text(rep.split(":", 1)[1], voc,
                                                    expected_d=args.d)

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


def _format_mean_std(values: list[float], scale: float = 1.0) -> str:
    if not values:
        return "-"
    mean, std = mdl.aggregate(values)
    return f"{mean * scale:.3f} ± {std * scale:.3f}"


def format_table(records: list[dict]) -> str:
    """One row per (task, representation, window) over the scored cell
    records: frozen/unfrozen codelength and accuracy as mean ± std over
    seeds, and the uniform baseline."""
    groups: dict[tuple, dict] = {}
    for rec in records:
        if rec["error"] is not None or rec["total_bits"] is None:
            continue
        key = (rec["task"], rec["representation"], rec["window"])
        g = groups.setdefault(key, {"frozen": [], "unfrozen": [],
                                    "frozen_acc": [], "unfrozen_acc": [],
                                    "uniform": rec["uniform_bits"]})
        side = "frozen" if rec["frozen"] else "unfrozen"
        g[side].append(rec["total_bits"])
        if rec["accuracy"] is not None:
            g[side + "_acc"].append(rec["accuracy"])
    header = ["task", "representation", "window",
              "frozen_kbits", "unfrozen_kbits", "uniform_kbits",
              "frozen_acc", "unfrozen_acc"]
    body = []
    for (task, rep, window), g in sorted(groups.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1],
                                                         -1 if kv[0][2] is None else kv[0][2])):
        body.append([
            task,
            rep,
            "-" if window is None else str(window),
            _format_mean_std(g["frozen"], scale=1e-3),
            _format_mean_std(g["unfrozen"], scale=1e-3),
            f"{g['uniform'] / 1000.0:.3f}",
            _format_mean_std(g["frozen_acc"]),
            _format_mean_std(g["unfrozen_acc"]),
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


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
                  format_table(records), "cells:"]
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


def read_records(input_dir) -> list[dict]:
    """The cell records of every ``cells.json`` under ``input_dir``."""
    paths = sorted(Path(input_dir).rglob("cells.json"))
    if not paths:
        raise ValueError(f"no cells.json found under {input_dir}")
    return [rec for path in paths
            for rec in json.loads(path.read_text(encoding="utf-8"))["cells"]]
