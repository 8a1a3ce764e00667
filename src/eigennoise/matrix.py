"""The probe-run experiment matrix.

A run scores every representation x window x frozen x seed cell of one
task by MDL online codelength (Voita & Titov, arXiv:2003.12298) and by
test accuracy. ``run`` takes a ``RunSpec``, the settled ``probe run``
options, and runs it all: ``matrix_cells`` lists the cells,
``build_context`` reads the task into what every cell shares,
``run_cell`` scores one cell, ``run_matrix`` yields each cell's result as
it finishes, and ``write_run`` writes ``cells.json`` and ``report.txt``,
whose table is ``mdl.format_table``.

``run_matrix`` scores each cell in a child process of its own, forked
after the context was built, so only the ``CellResult`` is pickled; a
child that dies fails its own cell only. Where ``fork`` is unavailable the
calling process scores the cells; either way ``run_cell`` scores the cell.

Every fit trains in single precision, ``PROBE_DTYPE``: the context holds
every cell's starting table, cast once when the context is built (the
eigennoise and imported tables shared by every seed, one random draw per
seed), and the probe computes in its table's dtype. The logits and
everything after them, codelength bits included, stay float64 (see
``probe``).

Layer functions are called through their modules (``mdl.online_codelength``,
``probe_mod.train_probe``), so replacing a module attribute reaches every
cell.
"""

from __future__ import annotations

import ctypes
import json
import os
import signal
import traceback
from collections.abc import Iterator
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

from . import datasets, defaults, eigen, embeddings, mdl
from . import probe as probe_mod
from . import vocab as vocab_mod

# the dtype every fit trains in; tables written by ``embed`` stay float64
PROBE_DTYPE = "float32"


@dataclass(frozen=True)
class RunSpec:
    """Every setting that decides a run's bits: the ``probe run`` options
    but ``--output-dir`` and ``--workers``, settled. ``windows`` is empty
    for a task without windows; ``dev`` and ``test`` are the files read,
    siblings of a ``.train`` file included. No field has a default: the
    parser and ``defaults`` own them. The spec line of ``cells.json`` and
    ``report.txt`` is this spec plus the vocabulary size and the block
    boundaries. A new spec keeps the first of each repeated list value and
    raises ``ValueError``, with the CLI's usage text, at the first rule that
    it breaks: every field is checked, first by ``defaults.option_fault``
    as the parser checks its options, then by the rules of a run."""

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

    def __post_init__(self):
        for name in ("representations", "windows", "frozen", "seeds"):
            object.__setattr__(self, name, tuple(dict.fromkeys(getattr(self, name))))
        if fault := defaults.option_fault(asdict(self)):
            raise ValueError(fault)
        if self.task in ("tsv", "conll") and self.train is None:
            raise ValueError(f"--train is required for --task {self.task}")
        files = [f"--{f}" for f in ("train", "dev", "test") if getattr(self, f) is not None]
        if self.task == "synthetic" and files:
            raise ValueError(f"--task synthetic reads no task files; drop {', '.join(files)}")
        for rep in self.representations:
            if rep not in ("eigennoise", "random") and not rep.startswith("import:"):
                raise ValueError(f"unknown representation {rep!r} "
                                 "(expected eigennoise, random, or import:<path>)")
        for name, what in (("representations", "representation"), ("seeds", "seed"),
                           ("frozen", "frozen setting")):
            if not getattr(self, name):
                raise ValueError(f"need at least one {what}")
        if not 0 < self.lr < float("inf"):
            raise ValueError(f"--lr must be > 0 and finite, got {self.lr}")
        if not (all(0 < f <= 100 for f in self.fractions)
                and any(f < 100 for f in self.fractions)):
            raise ValueError("--fractions must be in (0, 100] with at least one below 100, "
                             f"got {','.join(f'{f:g}' for f in self.fractions)}")
        if self.task == "conll" and not self.windows:
            raise ValueError("token tasks need at least one window")
        if self.task != "conll" and self.windows:
            raise ValueError("--windows applies only to token (conll) tasks")
        if bad := [w for w in self.windows if w not in defaults.ALLOWED_WINDOWS]:
            raise ValueError(f"windows {bad} outside supported set {defaults.ALLOWED_WINDOWS}")


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
    """Everything a cell needs, shared read-only by every cell."""

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


def run_cell(cell: CellSpec, ctx: MatrixContext) -> CellResult:
    try:
        base = ctx.tables[cell.representation, cell.seed]
        config = replace(ctx.config_base, seed=cell.seed)
        train = ctx.train_data[cell.window]
        dev = ctx.dev_data.get(cell.window)
        test = ctx.test_data.get(cell.window)

        def fit(fit_train, fit_dev, cfg):
            # a frozen fit only reads the shared table
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


def _score_in_child(cell: CellSpec, ctx: MatrixContext, parent: int, conn) -> None:
    """A forked child's entry: score ``cell`` and send its result on ``conn``.
    The child ignores SIGINT: a Ctrl-C stops the parent, and the child dies
    with it, so it prints no traceback of its own. Where libc has ``prctl``
    (Linux), first ask the kernel to kill this child when the thread that
    forked it exits, so no child outlives a stopped run; a child whose
    parent ``parent`` died before that request exits."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1 is PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)
    conn.send(run_cell(cell, ctx))


def run_matrix(ctx: MatrixContext, cells: list[CellSpec],
               workers: int) -> Iterator[CellResult]:
    """Yield ``cells``' results as forked children score them, one child per
    cell and at most ``workers`` alive at once.

    ``fork``, not ``spawn``: a child inherits the built context, unpickled,
    and the caller's one-thread BLAS; no thread is started, so no child
    inherits a held lock. Each child sends its ``CellResult`` on a pipe of
    its own, read once ready, and is joined before its result is yielded. A
    child that dies before sending fails its own cell only, with its exit
    code or signal. Children are daemonic, so a caller that exits mid-run
    ends them. Without ``fork``, the calling process scores the cells.
    """
    import multiprocessing.connection

    # unfrozen cells take about twice as long as frozen ones (an n=500 desk
    # cell, 2 cores: 0.7-0.9 s against 0.3-0.5 s): start them first
    cells = sorted(cells, key=lambda c: c.frozen)
    if "fork" not in multiprocessing.get_all_start_methods():
        yield from (run_cell(cell, ctx) for cell in cells)
        return
    fork, pending, running = multiprocessing.get_context("fork"), cells[::-1], {}
    while pending or running:
        while pending and len(running) < workers:
            cell, (reader, writer) = pending.pop(), fork.Pipe(duplex=False)
            child = fork.Process(target=_score_in_child, daemon=True,
                                 args=(cell, ctx, os.getpid(), writer))
            child.start()
            writer.close()
            running[reader] = cell, child
        for reader in multiprocessing.connection.wait(running):
            cell, child = running.pop(reader)
            result = None
            with reader, suppress(EOFError):  # EOF: the child died before sending
                result = reader.recv()
            child.join()
            yield result or _failed(cell, ChildProcessError(
                f"the cell's process exited with code {child.exitcode}" if child.exitcode >= 0
                else f"the cell's process was killed by signal {-child.exitcode}"))


def build_context(spec: RunSpec) -> MatrixContext:
    """Read the task's splits, rank the vocabulary, featurize every split
    once and build every cell's starting table, keyed by (representation,
    seed). A conll split is featurized once, at the widest window; every
    window shares its labels and reads a column slice of its indices."""
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
    """Run the matrix that ``spec`` describes on ``workers`` processes: list
    the cells, read the task, delete ``out_dir``'s old outputs, write each
    cell's file as it finishes, then the run's. ``workers`` below 1, a clash
    of cell files or a faulty task raises before any file is touched.
    Returns the records in cell-name order."""
    if fault := defaults.option_fault({"workers": workers}):
        raise ValueError(fault)
    cells = matrix_cells(spec)
    ctx = build_context(spec)
    out_dir = Path(out_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
    for path in [*out_dir.glob("cells/*.mdl.txt"), *out_dir.glob("cells/*.error.txt"),
                 out_dir / "cells.json", out_dir / "report.txt"]:
        path.unlink(missing_ok=True)
    results = []
    for res in run_matrix(ctx, cells, workers):
        stem = out_dir / "cells" / res.cell.name
        if res.report is not None:
            mdl.write_report(res.report, f"{stem}.mdl.txt")
        else:
            Path(f"{stem}.error.txt").write_text(res.traceback, encoding="utf-8")
        results.append(res)
    return write_run(out_dir, spec, ctx, results)


# --- reports ----------------------------------------------------------------


def write_run(out_dir: Path, spec: RunSpec, ctx: MatrixContext,
              results: list[CellResult]) -> list[dict]:
    """Write ``cells.json`` and ``report.txt`` under ``out_dir``. Returns
    the cell records in cell-name order."""
    results = sorted(results, key=lambda r: r.cell.name)
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
