"""Command-line entry points.

Subcommands: ``vocab build``, ``embed eigennoise|random|import``,
``probe run`` (the full representation x frozen x seed matrix with MDL
codelengths and accuracy), ``report aggregate``. Long option names only.

Exit codes: 0 success, 1 usage error, 2 data error, 3 one or more matrix
cells failed (the rest still ran).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import datasets, eigen, embeddings, harmonic, mdl
from . import probe as probe_mod
from . import vocab as vocab_mod

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CELL_FAILURES = 3

ALLOWED_WINDOWS = probe_mod.DEFAULT_WINDOWS
DEFAULT_SEEDS = (0, 1234, 322111)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise UsageError(message)


# --- vocab build ------------------------------------------------------------


def _resolve_case_fold(choice: str, task_format: str) -> bool:
    if choice == "on":
        return True
    if choice == "off":
        return False
    # auto: fold tweet-like text, keep case for token-column tasks
    return task_format != "conll"


def cmd_vocab_build(args) -> int:
    case_fold = _resolve_case_fold(args.case_fold, args.format)
    if args.format == "text":
        tokens = list(vocab_mod.token_stream(args.input))
    elif args.format == "tsv":
        ds = datasets.parse_tsv(args.input)
        tokens = [t for text in ds.texts for t in vocab_mod.tokenize(text)]
    else:
        ds = datasets.parse_conll(args.input, token_column=args.token_column,
                                  label_column=args.token_column)
        tokens = [t for sent in ds.sentences for t in sent]
    voc = vocab_mod.build_vocab(tokens, case_fold=case_fold, max_size=args.max_size)
    vocab_mod.write_vocab(voc, args.output)
    print(f"wrote {voc.size} ranks to {args.output}")
    return EXIT_OK


# --- embed ------------------------------------------------------------------


def _load_or_size_vocab(args) -> tuple[vocab_mod.Vocabulary | None, int]:
    if args.vocab is not None and args.n is not None:
        raise UsageError("--vocab and --n are mutually exclusive")
    if args.vocab is not None:
        voc = vocab_mod.read_vocab(args.vocab)
        return voc, voc.size
    if args.n is None:
        raise UsageError("one of --vocab or --n is required")
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    return None, args.n


def _write_embedding(table, voc, path, meta: dict) -> None:
    embeddings.export_text(table, path, vocab=voc)
    sidecar = Path(str(path) + ".meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def _check_min(args, minimum: int, *dests: str) -> None:
    """Raise a usage error naming the first option with a value below
    ``minimum``; an option may hold one int or a tuple of them."""
    for dest in dests:
        value = getattr(args, dest)
        for v in value if isinstance(value, tuple) else (value,):
            if v < minimum:
                raise UsageError(
                    f"--{dest.replace('_', '-')} must be >= {minimum}, got {v}")


def cmd_embed_eigennoise(args) -> int:
    _check_min(args, 1, "d", "m")
    _check_min(args, 0, "completion_seed")
    voc, n = _load_or_size_vocab(args)
    if args.d > n:
        raise DataError(f"--d {args.d} exceeds vocabulary size {n}")
    fact = eigen.eigennoise_analytic(
        n, args.d, m=args.m, mode=args.mode,
        completion_seed=args.completion_seed, ordering_rule=args.ordering,
    )
    table = eigen.to_embedding(fact)
    meta = {
        "source": "eigennoise", "n": n, "d": args.d, "m": args.m,
        "mode": args.mode, "ordering": args.ordering,
        "completion_seed": args.completion_seed,
    }
    _write_embedding(table, voc, args.output, meta)
    print(f"wrote {table.rows.shape[0]}x{args.d} eigennoise table to {args.output}")
    return EXIT_OK


def cmd_embed_random(args) -> int:
    _check_min(args, 1, "d")
    _check_min(args, 0, "seed")
    voc, n = _load_or_size_vocab(args)
    table = embeddings.random_table(n, args.d, args.seed)
    meta = {"source": "random", "n": n, "d": args.d, "seed": args.seed}
    _write_embedding(table, voc, args.output, meta)
    print(f"wrote {table.rows.shape[0]}x{args.d} random table to {args.output}")
    return EXIT_OK


def cmd_embed_import(args) -> int:
    voc = vocab_mod.read_vocab(args.vocab)
    table, report = embeddings.import_text(args.source, voc,
                                           expected_d=args.expected_d)
    meta = {
        "source": "imported", "origin": str(args.source), "n": voc.size,
        "d": table.d, "matched": report.matched, "unmatched": report.unmatched,
        "oov_rate": report.oov_rate,
    }
    _write_embedding(table, voc, args.output, meta)
    sys.stdout.write(report.to_text())
    return EXIT_OK


# --- probe run --------------------------------------------------------------


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
    total_bits: float | None = None
    uniform_bits: float | None = None
    accuracy: float | None = None
    clamps: int | None = None
    error: str | None = None
    report: "mdl.CodelengthReport | None" = None

    def to_record(self, task: str) -> dict:
        return {
            "task": task,
            "representation": self.cell.representation,
            "window": self.cell.window,
            "frozen": self.cell.frozen,
            "seed": self.cell.seed,
            "total_bits": self.total_bits,
            "kilobits": None if self.total_bits is None else self.total_bits / 1000.0,
            "kilobytes": None if self.total_bits is None else self.total_bits / 8000.0,
            "uniform_bits": self.uniform_bits,
            "accuracy": self.accuracy,
            "clamps": self.clamps,
            "error": self.error,
        }


@dataclass
class MatrixContext:
    """Everything a cell needs, shared read-only across the pool."""

    task_label: str
    kind: str  # "token" | "sequence" | "synthetic"
    vocab: vocab_mod.Vocabulary
    train_data: dict  # window (or None) -> ProbeData
    dev_data: dict
    test_data: dict
    schedule: mdl.BlockSchedule
    config_base: probe_mod.TrainConfig
    eigennoise_base: embeddings.EmbeddingTable | None
    imported: dict  # path -> EmbeddingTable
    d: int


def _cell_table(cell: CellSpec, ctx: MatrixContext) -> embeddings.EmbeddingTable:
    if cell.representation == "eigennoise":
        return ctx.eigennoise_base.copy(trainable=not cell.frozen)
    if cell.representation == "random":
        table = embeddings.random_table(ctx.vocab.size, ctx.d, cell.seed)
        table.trainable = not cell.frozen
        return table
    path = cell.representation.split(":", 1)[1]
    return ctx.imported[path].copy(trainable=not cell.frozen)


def run_cell(cell: CellSpec, ctx: MatrixContext) -> CellResult:
    try:
        base = _cell_table(cell, ctx)
        config = replace(ctx.config_base, seed=cell.seed)
        train = ctx.train_data[cell.window]
        dev = ctx.dev_data.get(cell.window)

        def fit_predict(prefix, stage_dev, cfg):
            model, _ = probe_mod.train_probe(prefix, stage_dev, cfg, table=base.copy())
            return lambda batch: probe_mod.predict_proba(model, batch)

        report = mdl.online_codelength(train, ctx.schedule, fit_predict, config, dev=dev)
        accuracy = None
        test = ctx.test_data.get(cell.window)
        if test is not None:
            acc_table = base.copy()
            if dev is not None:
                acc_train, acc_dev = train, dev
            else:  # stage 0: the codelength stages hold out with stages 1..
                acc_train, acc_dev = mdl.holdout(train, cell.seed, 0)
            model, _ = probe_mod.train_probe(acc_train, acc_dev, config, table=acc_table)
            accuracy = probe_mod.evaluate_accuracy(model, test)
        return CellResult(
            cell=cell,
            total_bits=report.total_bits,
            uniform_bits=report.uniform_baseline_bits,
            accuracy=accuracy,
            clamps=report.clamp_count,
            report=report,
        )
    except Exception as exc:  # cell failures are recorded, not fatal
        return CellResult(cell=cell, error=f"{type(exc).__name__}: {exc}")


def _discover_missing_splits(args) -> None:
    """Fill --dev/--test from sibling files when --train ends in .train."""
    train = str(args.train)
    if not train.endswith(".train"):
        return
    prefix = train[: -len(".train")]
    found = datasets.discover_splits(prefix)
    if args.dev is None and "dev" in found:
        args.dev = str(found["dev"])
    if args.test is None and "test" in found:
        args.test = str(found["test"])


def _build_context(args) -> MatrixContext:
    case_fold = _resolve_case_fold(args.case_fold, args.task)
    if args.task == "synthetic":
        splits = {
            split: datasets.synth_task(args.kind, n, args.d, k=args.classes,
                                       seed=args.data_seed, split=split)
            for split, n in (("train", args.n),
                             ("dev", max(args.classes * 10, args.n // 5)),
                             ("test", max(args.classes * 10, args.n // 5)))
        }
        tokens = [t for toks in splits["train"].tokens for t in toks]
        voc = vocab_mod.build_vocab(tokens, case_fold=case_fold,
                                    max_size=args.vocab_cap)
        data = {
            name: {None: probe_mod.synthetic_token_data(ds, voc)}
            for name, ds in splits.items()
        }
        kind = "synthetic"
        task_label = f"synthetic-{args.kind}"
    elif args.task == "tsv":
        _discover_missing_splits(args)
        train = datasets.parse_tsv(args.train, split="train")
        tokens = [t for text in train.texts for t in vocab_mod.tokenize(text)]
        voc = vocab_mod.build_vocab(tokens, case_fold=case_fold,
                                    max_size=args.vocab_cap)
        data = {"train": {None: probe_mod.sequence_data(train, voc)}}
        for name, path in (("dev", args.dev), ("test", args.test)):
            if path is not None:
                ds = datasets.apply_label_set(
                    datasets.parse_tsv(path, split=name), train.label_set)
                data[name] = {None: probe_mod.sequence_data(ds, voc)}
        kind = "sequence"
        task_label = Path(args.train).stem
    else:  # conll
        _discover_missing_splits(args)
        train = datasets.parse_conll(args.train, token_column=args.token_column,
                                     label_column=args.label_column, split="train")
        tokens = [t for sent in train.sentences for t in sent]
        voc = vocab_mod.build_vocab(tokens, case_fold=case_fold,
                                    max_size=args.vocab_cap)
        windows = args.windows
        data = {"train": {
            w: probe_mod.token_window_data(train, voc, w) for w in windows
        }}
        for name, path in (("dev", args.dev), ("test", args.test)):
            if path is not None:
                ds = datasets.apply_label_set(
                    datasets.parse_conll(path, token_column=args.token_column,
                                         label_column=args.label_column,
                                         split=name),
                    train.label_set)
                data[name] = {
                    w: probe_mod.token_window_data(ds, voc, w, label_set=train.label_set)
                    for w in windows
                }
        kind = "token"
        task_label = Path(args.train).stem

    if args.d > voc.size:
        raise DataError(
            f"embedding dimension {args.d} exceeds vocabulary size {voc.size}"
        )
    eigennoise_base = None
    imported = {}
    for rep in args.representations:
        if rep == "eigennoise" and eigennoise_base is None:
            fact = eigen.eigennoise_analytic(
                voc.size, args.d, m=args.m, mode=args.mode,
                completion_seed=args.completion_seed, ordering_rule=args.ordering)
            eigennoise_base = eigen.to_embedding(fact)
        elif rep.startswith("import:"):
            path = rep.split(":", 1)[1]
            table, _ = embeddings.import_text(path, voc, expected_d=args.d)
            imported[path] = table

    n_train = len(next(iter(data["train"].values())))
    schedule = mdl.make_schedule(n_train, fractions=args.fractions)
    config = probe_mod.TrainConfig(
        lr=args.lr, patience=args.patience, batch_size=args.batch_size,
        max_epochs=args.max_epochs, hidden=args.hidden)
    return MatrixContext(
        task_label=task_label,
        kind=kind,
        vocab=voc,
        train_data=data["train"],
        dev_data=data.get("dev", {}),
        test_data=data.get("test", {}),
        schedule=schedule,
        config_base=config,
        eigennoise_base=eigennoise_base,
        imported=imported,
        d=args.d,
    )


def _matrix_cells(args, kind: str) -> list[CellSpec]:
    windows = args.windows if kind == "token" else [None]
    if args.frozen == "both":
        frozen_options = (True, False)
    else:
        frozen_options = (args.frozen == "true",)
    return [
        CellSpec(representation=rep, window=w, frozen=fr, seed=seed)
        for rep in args.representations
        for w in windows
        for fr in frozen_options
        for seed in args.seeds
    ]


def _aggregate_rows(records: list[dict]) -> list[dict]:
    """Group per-cell records into (task, representation, window) rows with
    frozen/unfrozen mean +- std columns."""
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
    rows = []
    for (task, rep, window), g in sorted(groups.items(),
                                         key=lambda kv: (kv[0][0], kv[0][1],
                                                         -1 if kv[0][2] is None else kv[0][2])):
        row = {"task": task, "representation": rep, "window": window,
               "uniform_bits": g["uniform"]}
        for side in ("frozen", "unfrozen"):
            if g[side]:
                mean, std = mdl.aggregate(g[side])
                row[f"{side}_bits"] = (mean, std)
            else:
                row[f"{side}_bits"] = None
            if g[side + "_acc"]:
                mean, std = mdl.aggregate(g[side + "_acc"])
                row[f"{side}_acc"] = (mean, std)
            else:
                row[f"{side}_acc"] = None
        rows.append(row)
    return rows


def _format_pair(pair, scale=1.0, digits=3) -> str:
    if pair is None:
        return "-"
    mean, std = pair
    return f"{mean * scale:.{digits}f} ± {std * scale:.{digits}f}"


def _format_table(rows: list[dict]) -> str:
    header = ["task", "representation", "window",
              "frozen_kbits", "unfrozen_kbits", "uniform_kbits",
              "frozen_acc", "unfrozen_acc"]
    body = []
    for row in rows:
        body.append([
            row["task"],
            row["representation"],
            "-" if row["window"] is None else str(row["window"]),
            _format_pair(row["frozen_bits"], scale=1e-3),
            _format_pair(row["unfrozen_bits"], scale=1e-3),
            f"{row['uniform_bits'] / 1000.0:.3f}",
            _format_pair(row["frozen_acc"]),
            _format_pair(row["unfrozen_acc"]),
        ])
    widths = [max(len(header[i]), *(len(r[i]) for r in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_probe_run(args) -> int:
    if args.windows is None:
        args.windows = ALLOWED_WINDOWS if args.task == "conll" else ()
    elif args.task != "conll":
        raise UsageError("--windows applies only to token (conll) tasks")
    if args.task in ("tsv", "conll") and args.train is None:
        raise UsageError(f"--train is required for --task {args.task}")
    # duplicates would run (and write) the same cell twice
    args.representations = tuple(dict.fromkeys(args.representations))
    args.seeds = tuple(dict.fromkeys(args.seeds))
    args.windows = tuple(dict.fromkeys(args.windows))
    for rep in args.representations:
        if rep not in ("eigennoise", "random") and not rep.startswith("import:"):
            raise UsageError(
                f"unknown representation {rep!r} "
                "(expected eigennoise, random, or import:<path>)"
            )
    if not args.seeds:
        raise UsageError("need at least one seed")
    _check_min(args, 1, "d", "m", "classes", "hidden", "batch_size", "max_epochs",
               "patience", "workers")
    _check_min(args, 0, "seeds", "data_seed", "completion_seed")
    if args.task == "conll" and not args.windows:
        raise UsageError("token tasks need at least one window")
    bad = [w for w in args.windows if w not in ALLOWED_WINDOWS]
    if bad:
        raise UsageError(f"windows {bad} outside supported set {ALLOWED_WINDOWS}")

    ctx = _build_context(args)
    cells = _matrix_cells(args, ctx.kind)

    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        results = list(pool.map(lambda c: run_cell(c, ctx), cells))

    out_dir = Path(args.output_dir)
    (out_dir / "cells").mkdir(parents=True, exist_ok=True)
    records = []
    failures = 0
    for res in sorted(results, key=lambda r: r.cell.name):
        records.append(res.to_record(ctx.task_label))
        if res.error is not None:
            failures += 1
        elif res.report is not None:
            mdl.write_report(res.report, out_dir / "cells" / f"{res.cell.name}.mdl.txt")

    spec_record = {
        "task": ctx.task_label,
        "representations": list(args.representations),
        "windows": list(args.windows) if ctx.kind == "token" else None,
        "frozen": args.frozen,
        "seeds": list(args.seeds),
        "d": args.d,
        "m": args.m,
        "mode": args.mode,
        "ordering": args.ordering,
        "vocab_cap": args.vocab_cap,
        "vocab_size": ctx.vocab.size,
        "boundaries": list(ctx.schedule.boundaries),
        "lr": args.lr,
        "hidden": args.hidden,
        "batch_size": args.batch_size,
        "max_epochs": args.max_epochs,
        "patience": args.patience,
    }
    (out_dir / "cells.json").write_text(
        json.dumps({"spec": spec_record, "cells": records},
                   sort_keys=True, indent=2) + "\n",
        encoding="utf-8")

    rows = _aggregate_rows(records)
    body_lines = ["spec: " + json.dumps(spec_record, sort_keys=True), ""]
    body_lines.append(_format_table(rows))
    body_lines.append("cells:")
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

    sys.stdout.write(_format_table(rows))
    if failures:
        print(f"{failures} of {len(cells)} cells failed", file=sys.stderr)
        return EXIT_CELL_FAILURES
    return EXIT_OK


def cmd_report_aggregate(args) -> int:
    records = []
    paths = sorted(Path(args.input_dir).rglob("cells.json"))
    if not paths:
        raise DataError(f"no cells.json found under {args.input_dir}")
    for path in paths:
        payload = json.loads(path.read_text(encoding="utf-8"))
        records.extend(payload["cells"])
    table = _format_table(_aggregate_rows(records))
    if args.output:
        Path(args.output).write_text(table, encoding="utf-8")
    else:
        sys.stdout.write(table)
    return EXIT_OK


# --- BLAS threads -----------------------------------------------------------


def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (Linux or macOS wheel), or None."""
    pkg = Path(np.__file__).parent
    for path in (*sorted((pkg.parent / "numpy.libs").glob("libscipy_openblas*.so*")),
                 *sorted((pkg / ".dylibs").glob("libscipy_openblas*.dylib"))):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        if (hasattr(lib, "scipy_openblas_get_num_threads64_")
                and hasattr(lib, "scipy_openblas_set_num_threads64_")):
            return lib
    return None


@contextmanager
def _one_blas_thread():
    """Run numpy's OpenBLAS on one thread, then restore the old count.

    The probe GEMMs and the thin QR of the analytic build are too small to
    gain from a second BLAS thread, and parallelism comes from the cell
    pool (``--workers``). One thread also makes tables independent of the
    core count. Without a bundled OpenBLAS this does nothing.
    """
    lib = _bundled_openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


# --- parser -----------------------------------------------------------------


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x != "")
    except ValueError:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> _Parser:
    parser = _Parser(prog="eigennoise", description=__doc__)
    top = parser.add_subparsers(dest="command", required=True)

    p_vocab = top.add_parser("vocab", help="vocabulary tools")
    vocab_sub = p_vocab.add_subparsers(dest="subcommand", required=True)
    p_build = vocab_sub.add_parser("build", help="count and rank training tokens")
    p_build.add_argument("--input", required=True)
    p_build.add_argument("--format", choices=("text", "tsv", "conll"), default="text")
    p_build.add_argument("--token-column", type=int, default=0)
    p_build.add_argument("--case-fold", choices=("auto", "on", "off"), default="auto")
    p_build.add_argument("--max-size", type=int, default=vocab_mod.DEFAULT_MAX_SIZE)
    p_build.add_argument("--output", required=True)
    p_build.set_defaults(func=cmd_vocab_build)

    p_embed = top.add_parser("embed", help="embedding table construction")
    embed_sub = p_embed.add_subparsers(dest="subcommand", required=True)

    p_en = embed_sub.add_parser("eigennoise", help="closed-form rank embeddings")
    p_en.add_argument("--vocab")
    p_en.add_argument("--n", type=int)
    p_en.add_argument("--d", type=int, required=True)
    p_en.add_argument("--m", type=int, default=harmonic.DEFAULT_WINDOW)
    p_en.add_argument("--mode", choices=("linear", "log"), default="linear")
    p_en.add_argument("--ordering", choices=eigen.ORDERING_RULES, default="by_magnitude")
    p_en.add_argument("--completion-seed", type=int, default=0)
    p_en.add_argument("--output", required=True)
    p_en.set_defaults(func=cmd_embed_eigennoise)

    p_rand = embed_sub.add_parser("random", help="standard-normal baseline")
    p_rand.add_argument("--vocab")
    p_rand.add_argument("--n", type=int)
    p_rand.add_argument("--d", type=int, required=True)
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("--output", required=True)
    p_rand.set_defaults(func=cmd_embed_random)

    p_imp = embed_sub.add_parser("import",
                                 help="align GloVe or word2vec/fastText .vec vectors")
    p_imp.add_argument("--source", required=True)
    p_imp.add_argument("--vocab", required=True)
    p_imp.add_argument("--expected-d", type=int, default=None)
    p_imp.add_argument("--output", required=True)
    p_imp.set_defaults(func=cmd_embed_import)

    p_probe = top.add_parser("probe", help="MDL probing experiments")
    probe_sub = p_probe.add_subparsers(dest="subcommand", required=True)
    p_run = probe_sub.add_parser("run", help="run the experiment matrix")
    p_run.add_argument("--task", choices=("synthetic", "tsv", "conll"), required=True)
    p_run.add_argument("--kind", choices=datasets.SYNTH_KINDS, default="separable")
    p_run.add_argument("--n", type=int, default=2000, help="synthetic train size")
    p_run.add_argument("--classes", type=int, default=2)
    p_run.add_argument("--data-seed", type=int, default=7,
                       help="generation seed for synthetic data")
    p_run.add_argument("--train")
    p_run.add_argument("--dev")
    p_run.add_argument("--test")
    p_run.add_argument("--token-column", type=int, default=0)
    p_run.add_argument("--label-column", type=int, default=3)
    p_run.add_argument("--representations", type=lambda s: tuple(s.split(",")),
                       default=("eigennoise", "random"))
    p_run.add_argument("--windows", type=_csv_ints, default=None)
    p_run.add_argument("--frozen", choices=("both", "true", "false"), default="both")
    p_run.add_argument("--seeds", type=_csv_ints, default=DEFAULT_SEEDS)
    p_run.add_argument("--d", type=int, default=50)
    p_run.add_argument("--m", type=int, default=harmonic.DEFAULT_WINDOW)
    p_run.add_argument("--mode", choices=("linear", "log"), default="linear")
    p_run.add_argument("--ordering", choices=eigen.ORDERING_RULES, default="by_magnitude")
    p_run.add_argument("--completion-seed", type=int, default=0)
    p_run.add_argument("--vocab-cap", type=int, default=vocab_mod.DEFAULT_MAX_SIZE)
    p_run.add_argument("--case-fold", choices=("auto", "on", "off"), default="auto")
    train_defaults = probe_mod.TrainConfig()
    p_run.add_argument("--hidden", type=int, default=train_defaults.hidden)
    p_run.add_argument("--lr", type=float, default=train_defaults.lr)
    p_run.add_argument("--batch-size", type=int, default=train_defaults.batch_size)
    p_run.add_argument("--max-epochs", type=int, default=train_defaults.max_epochs)
    p_run.add_argument("--patience", type=int, default=train_defaults.patience)
    p_run.add_argument("--fractions", type=_csv_floats, default=mdl.DEFAULT_FRACTIONS)
    p_run.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_run.add_argument("--output-dir", required=True)
    p_run.set_defaults(func=cmd_probe_run)

    p_report = top.add_parser("report", help="aggregate saved runs")
    report_sub = p_report.add_subparsers(dest="subcommand", required=True)
    p_agg = report_sub.add_parser("aggregate", help="merge cells.json files")
    p_agg.add_argument("--input-dir", required=True)
    p_agg.add_argument("--output", default=None)
    p_agg.set_defaults(func=cmd_report_aggregate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _one_blas_thread():
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
