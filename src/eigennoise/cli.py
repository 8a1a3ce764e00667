"""Command-line entry points: argument parsing and exit codes.

Subcommands: ``vocab build``, ``embed eigennoise|random|import``,
``probe run`` (the full representation x frozen x seed matrix with MDL
codelengths and accuracy, run by :mod:`eigennoise.matrix`), ``report
aggregate``. Long option names only.

Exit codes: 0 success, 1 usage error, 2 data error, 3 one or more matrix
cells failed (the rest still ran).
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING

# Every other module is imported inside the commands that use it: --help
# and usage errors load only argparse and defaults, vocab build no numpy,
# and only probe run the experiment runner (matrix, with probe and
# multiprocessing).
from . import defaults

if TYPE_CHECKING:  # _bundled_openblas imports it when it runs
    import ctypes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CELL_FAILURES = 3

ALLOWED_WINDOWS = (0, 2, 5, 10)
DEFAULT_SEEDS = (0, 1234, 322111)
SEED_LIMIT = 2**128  # numpy's Philox takes keys in [0, 2**128)


#: The least value of each integer option, for every command that has it,
#: in the order they are checked.
MINIMUM = {
    "d": 1, "m": 1, "classes": 1, "hidden": 1, "batch_size": 1, "max_epochs": 1,
    "patience": 1, "workers": 1, "vocab_cap": 1, "max_size": 1, "expected_d": 1,
    "data_seed": 0, "token_column": 0, "label_column": 0, "seed": 0, "seeds": 0,
    "completion_seed": 0, "n": 1,
}
#: The options that key numpy's Philox, so must also be below SEED_LIMIT.
PHILOX_KEYS = ("seed", "seeds", "completion_seed")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1."""

    def error(self, message):
        raise UsageError(message)

    def parse_args(self, args=None, namespace=None):
        """Parse, check every integer option against MINIMUM, then run the
        command's own checks: every usage error is raised here, before any
        command loads numpy."""
        parsed = super().parse_args(args, namespace)
        for dest, least in MINIMUM.items():
            value = getattr(parsed, dest, None)
            if value is None:  # unset, or not an option of this command
                continue
            option = f"--{dest.replace('_', '-')}"
            values = value if isinstance(value, tuple) else (value,)
            for v in values:
                if v < least:
                    raise UsageError(f"{option} must be >= {least}, got {v}")
            for v in values if dest in PHILOX_KEYS else ():
                if v >= SEED_LIMIT:
                    raise UsageError(f"{option} must be < 2**128, got {v}")
        check = getattr(parsed, "check", None)
        if check is not None:
            check(parsed)
        return parsed


# --- vocab build ------------------------------------------------------------


def cmd_vocab_build(args) -> int:
    from . import datasets
    from . import vocab as vocab_mod

    if args.format == "text":
        tokens = list(vocab_mod.token_stream(args.input))
    else:  # labels are not read: point the label column at the tokens
        tokens = chain.from_iterable(datasets.read_split(
            args.format, args.input, args.token_column, args.token_column).tokens)
    voc = vocab_mod.build_vocab(
        tokens, case_fold=datasets.resolve_case_fold(args.case_fold, args.format),
        max_size=args.max_size)
    vocab_mod.write_vocab(voc, args.output)
    print(f"wrote {voc.size} ranks to {args.output}")
    return EXIT_OK


# --- embed ------------------------------------------------------------------


def _load_or_size_vocab(args):
    """The ``--vocab`` vocabulary (or None) and the table's size."""
    from .vocab import read_vocab

    if args.vocab is not None:
        voc = read_vocab(args.vocab)
        return voc, voc.size
    return None, args.n


def _write_embedding(table, voc, path, meta: dict) -> None:
    import json

    from . import embeddings

    embeddings.export_text(table, path, vocab=voc)
    sidecar = Path(str(path) + ".meta.json")
    sidecar.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n",
                       encoding="utf-8")


def cmd_embed_eigennoise(args) -> int:
    from . import eigen

    voc, n = _load_or_size_vocab(args)
    if args.d > n:
        raise ValueError(f"--d {args.d} exceeds vocabulary size {n}")
    table = eigen.to_embedding(eigen.eigennoise_analytic(
        n, args.d, m=args.m, mode=args.mode, completion_seed=args.completion_seed))
    meta = {
        "source": "eigennoise", "n": n, "d": args.d, "m": args.m,
        "mode": args.mode, "completion_seed": args.completion_seed,
    }
    _write_embedding(table, voc, args.output, meta)
    print(f"wrote {table.rows.shape[0]}x{args.d} eigennoise table to {args.output}")
    return EXIT_OK


def cmd_embed_random(args) -> int:
    from . import embeddings

    voc, n = _load_or_size_vocab(args)
    table = embeddings.random_table(n, args.d, args.seed)
    meta = {"source": "random", "n": n, "d": args.d, "seed": args.seed}
    _write_embedding(table, voc, args.output, meta)
    print(f"wrote {table.rows.shape[0]}x{args.d} random table to {args.output}")
    return EXIT_OK


def cmd_embed_import(args) -> int:
    from . import embeddings
    from .vocab import read_vocab

    voc = read_vocab(args.vocab)
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


def run_cell(cell, ctx):
    """Score one cell in this process. ``probe run`` does not call it: it
    stays only because ``bench/tracer.py`` names it as a traced layer."""
    from .matrix import run_cell as score

    return score(cell, ctx)


def _check_probe_run(args) -> None:
    """Check what MINIMUM does not (the options that depend on each
    other, the floats and the windows) and settle what ``matrix.RunSpec``
    records: the windows, the lists without repeats, the frozen settings
    and the splits read."""
    if args.windows is None:
        args.windows = ALLOWED_WINDOWS if args.task == "conll" else ()
    elif args.task != "conll":
        raise UsageError("--windows applies only to token (conll) tasks")
    if args.task in ("tsv", "conll") and args.train is None:
        raise UsageError(f"--train is required for --task {args.task}")
    files = [f"--{name}" for name in ("train", "dev", "test")
             if getattr(args, name) is not None]
    if args.task == "synthetic" and files:
        raise UsageError(f"--task synthetic reads no task files; drop {', '.join(files)}")
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
    for name in ("representations", "seeds"):
        if not getattr(args, name):
            raise UsageError(f"need at least one {name[:-1]}")
    if not 0 < args.lr < float("inf"):
        raise UsageError(f"--lr must be > 0 and finite, got {args.lr}")
    if not (all(0 < f <= 100 for f in args.fractions)
            and any(f < 100 for f in args.fractions)):
        raise UsageError("--fractions must be in (0, 100] with at least one below 100, "
                         f"got {','.join(f'{f:g}' for f in args.fractions)}")
    if args.task == "conll" and not args.windows:
        raise UsageError("token tasks need at least one window")
    bad = [w for w in args.windows if w not in ALLOWED_WINDOWS]
    if bad:
        raise UsageError(f"windows {bad} outside supported set {ALLOWED_WINDOWS}")
    args.frozen = {"both": (True, False), "true": (True,), "false": (False,)}[args.frozen]
    # an unset --dev or --test is the sibling file of a --train ending in .train
    prefix = str(args.train).removesuffix(".train")
    for split in ("dev", "test") if prefix != str(args.train) else ():
        sibling = Path(f"{prefix}.{split}")
        if getattr(args, split) is None and sibling.exists():
            setattr(args, split, str(sibling))


def cmd_probe_run(args) -> int:
    from dataclasses import fields

    from . import matrix, mdl

    spec = matrix.RunSpec(**{f.name: getattr(args, f.name) for f in fields(matrix.RunSpec)})
    records = matrix.run(spec, args.output_dir, args.workers)
    sys.stdout.write(mdl.format_table(records))
    failures = sum(rec["error"] is not None for rec in records)
    if failures:
        print(f"{failures} of {len(records)} cells failed", file=sys.stderr)
        return EXIT_CELL_FAILURES
    return EXIT_OK


def cmd_report_aggregate(args) -> int:
    from . import mdl

    table = mdl.format_table(mdl.read_records(args.input_dir))
    if args.output:
        Path(args.output).write_text(table, encoding="utf-8")
    else:
        sys.stdout.write(table)
    return EXIT_OK


# --- BLAS threads -----------------------------------------------------------


def _load_numpy():
    """Import numpy: the one place the CLI does.

    OpenBLAS starts its thread pool when numpy loads it, and every command
    runs on one BLAS thread (_one_blas_thread): unless the user set
    ``OPENBLAS_NUM_THREADS``, numpy is loaded with it set to 1, so no pool
    starts, and the environment is then given back as it was.
    """
    pin = "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ
    if pin:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if pin:
            del os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS (Linux or macOS wheel), or None. Loads
    numpy first, so that numpy, not this lookup, starts OpenBLAS."""
    import ctypes

    pkg = Path(_load_numpy().__file__).parent
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

    The probe GEMMs and the blocked Gram-Schmidt GEMMs of the analytic
    build are too small to gain from a second BLAS thread, and
    parallelism comes from the ``probe run`` cell processes
    (``--workers``), which are forked inside this and inherit its count.
    One thread also makes tables independent of the core count.
    Entering this loads numpy (``_load_numpy``), which already starts
    OpenBLAS on one thread unless ``OPENBLAS_NUM_THREADS`` is set; this
    pins the count for a user-set value and for library callers that
    loaded numpy first. Without a bundled OpenBLAS this does nothing.
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


def _csv(kind, what: str):
    """A parser of comma-separated ``kind`` values, named ``what`` in its
    usage error."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(x) for x in text.split(",") if x != "")
        except ValueError:
            raise UsageError(f"expected comma-separated {what}, got {text!r}") from None
    return parse


_csv_ints = _csv(int, "integers")
_csv_floats = _csv(float, "numbers")


def _add_size_source(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--vocab")
    source.add_argument("--n", type=int)


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
    p_build.add_argument("--max-size", type=int, default=defaults.DEFAULT_MAX_SIZE)
    p_build.add_argument("--output", required=True)
    p_build.set_defaults(func=cmd_vocab_build)

    p_embed = top.add_parser("embed", help="embedding table construction")
    embed_sub = p_embed.add_subparsers(dest="subcommand", required=True)

    p_en = embed_sub.add_parser("eigennoise", help="closed-form rank embeddings")
    _add_size_source(p_en)
    p_en.add_argument("--d", type=int, required=True)
    p_en.add_argument("--m", type=int, default=defaults.DEFAULT_WINDOW)
    p_en.add_argument("--mode", choices=("linear", "log"), default="linear")
    p_en.add_argument("--completion-seed", type=int, default=0)
    p_en.add_argument("--output", required=True)
    p_en.set_defaults(func=cmd_embed_eigennoise)

    p_rand = embed_sub.add_parser("random", help="standard-normal baseline")
    _add_size_source(p_rand)
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
    p_run.add_argument("--kind", choices=defaults.SYNTH_KINDS, default="separable")
    p_run.add_argument("--n", type=int, default=2000, help="synthetic train size")
    p_run.add_argument("--classes", type=int, default=2)
    p_run.add_argument("--data-seed", type=int, default=7,
                       help="generation seed for synthetic data")
    p_run.add_argument("--train")
    p_run.add_argument("--dev")
    p_run.add_argument("--test")
    p_run.add_argument("--token-column", type=int, default=0)
    p_run.add_argument("--label-column", type=int, default=3)
    p_run.add_argument("--representations", type=_csv(str, "representations"),
                       default=("eigennoise", "random"))
    p_run.add_argument("--windows", type=_csv_ints, default=None)
    p_run.add_argument("--frozen", choices=("both", "true", "false"), default="both")
    p_run.add_argument("--seeds", type=_csv_ints, default=DEFAULT_SEEDS)
    p_run.add_argument("--d", type=int, default=50)
    p_run.add_argument("--m", type=int, default=defaults.DEFAULT_WINDOW)
    p_run.add_argument("--mode", choices=("linear", "log"), default="linear")
    p_run.add_argument("--completion-seed", type=int, default=0)
    p_run.add_argument("--vocab-cap", type=int, default=defaults.DEFAULT_MAX_SIZE)
    p_run.add_argument("--case-fold", choices=("auto", "on", "off"), default="auto")
    p_run.add_argument("--hidden", type=int, default=defaults.DEFAULT_HIDDEN)
    p_run.add_argument("--lr", type=float, default=defaults.DEFAULT_LR)
    p_run.add_argument("--batch-size", type=int, default=defaults.DEFAULT_BATCH_SIZE)
    p_run.add_argument("--max-epochs", type=int, default=defaults.DEFAULT_MAX_EPOCHS)
    p_run.add_argument("--patience", type=int, default=defaults.DEFAULT_PATIENCE)
    p_run.add_argument("--fractions", type=_csv_floats, default=defaults.DEFAULT_FRACTIONS)
    p_run.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_run.add_argument("--output-dir", required=True)
    p_run.set_defaults(func=cmd_probe_run, check=_check_probe_run)

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
        if args.command == "vocab":  # pure Python: loads no numpy
            return args.func(args)
        with _one_blas_thread():
            return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, MemoryError, OverflowError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
