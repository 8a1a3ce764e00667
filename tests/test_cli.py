import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import MISSING, FrozenInstanceError, fields
from pathlib import Path

import pytest

from eigennoise import cli, defaults, eigen, embeddings, matrix, mdl, probe
from eigennoise.vocab import read_vocab

FIXTURES = Path(__file__).parent / "fixtures"
PHILOX_LIMIT = str(2**128)
OPENBLAS = cli._bundled_openblas()
needs_openblas = pytest.mark.skipif(OPENBLAS is None,
                                    reason="numpy bundles no OpenBLAS")
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="no fork start method")


def _run(*argv):
    return cli.main(list(argv))


def test_vocab_build_from_text(tmp_path, capsys):
    src = tmp_path / "corpus.txt"
    src.write_text("the cat sat. The cat!\n", encoding="utf-8")
    out = tmp_path / "vocab.tsv"
    assert _run("vocab", "build", "--input", str(src), "--output", str(out)) == 0
    voc = read_vocab(out)
    assert voc.entries[0] == ("the", 2)
    assert voc.entries[1] == ("cat", 2)
    capsys.readouterr()
    assert _run("vocab", "build", "--input", str(src), "--max-size", "0",
                "--output", str(tmp_path / "none.tsv")) == cli.EXIT_USAGE
    assert "usage error: --max-size must be" in capsys.readouterr().err
    assert _run("vocab", "build", "--input", str(FIXTURES / "tiny.conll.train"),
                "--format", "conll", "--token-column", "-1",
                "--output", str(tmp_path / "none.tsv")) == cli.EXIT_USAGE
    assert "usage error: --token-column must be" in capsys.readouterr().err
    assert not (tmp_path / "none.tsv").exists()


def test_vocab_build_conll_keeps_case(tmp_path):
    out = tmp_path / "vocab.tsv"
    rc = _run("vocab", "build", "--input", str(FIXTURES / "tiny.conll.train"),
              "--format", "conll", "--output", str(out))
    assert rc == 0
    tokens = [line.split("\t")[0] for line in out.read_text().splitlines()]
    assert "EU" in tokens and "eu" not in tokens


def test_embed_eigennoise_writes_table_and_sidecar(tmp_path):
    out = tmp_path / "emb.txt"
    rc = _run("embed", "eigennoise", "--n", "100", "--d", "8",
              "--mode", "linear", "--output", str(out))
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 102  # 100 ranks + OOV + PAD
    assert all(len(line.split()) == 9 for line in lines)
    meta = json.loads((tmp_path / "emb.txt.meta.json").read_text())
    assert meta["mode"] == "linear" and meta["d"] == 8 and meta["m"] == 5


def test_embed_random_is_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        rc = _run("embed", "random", "--n", "20", "--d", "4",
                  "--seed", "0", "--output", str(out))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_embed_vocab_and_n_conflict(tmp_path):
    rc = _run("embed", "random", "--vocab", "v.tsv", "--n", "5", "--d", "2",
              "--output", str(tmp_path / "x.txt"))
    assert rc == cli.EXIT_USAGE


def test_embed_requires_size_source(tmp_path, capsys):
    rc = _run("embed", "eigennoise", "--d", "2", "--output", str(tmp_path / "x.txt"))
    assert rc == cli.EXIT_USAGE
    for kind, option, value in (("eigennoise", "--d", "0"), ("random", "--d", "0"),
                                ("eigennoise", "--m", "0"),
                                ("eigennoise", "--completion-seed", "-1"),
                                ("eigennoise", "--completion-seed", PHILOX_LIMIT),
                                ("random", "--seed", "-1"), ("random", "--seed", PHILOX_LIMIT)):
        capsys.readouterr()
        rc = _run("embed", kind, "--n", "5", "--d", "2", option, value,
                  "--output", str(tmp_path / "x.txt"))
        assert rc == cli.EXIT_USAGE
        assert f"usage error: {option} must be" in capsys.readouterr().err
    for value in ("0", "-3"):
        capsys.readouterr()
        rc = _run("embed", "import", "--source", str(FIXTURES / "tiny.glove.txt"),
                  "--vocab", str(tmp_path / "vocab.tsv"), f"--expected-d={value}",
                  "--output", str(tmp_path / "x.txt"))
        assert rc == cli.EXIT_USAGE
        assert "usage error: --expected-d must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_embed_random_rejects_vocab_listing_a_token_twice(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.tsv"
    vocab_path.write_text("the\t3\t1\ncat\t2\t2\nthe\t1\t3\n", encoding="utf-8")
    out = tmp_path / "x.txt"
    rc = _run("embed", "random", "--vocab", str(vocab_path), "--d", "2",
              "--output", str(out))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {vocab_path}: token 'the' is listed at ranks 1 and 3\n")
    assert not out.exists()


@pytest.mark.parametrize("lines, entry", [
    (("the\t3\t1", "cat\t2\t3"), "ranks must be exactly 1..N in order: "
     "token 'cat' has rank 3 where 2 belongs"),
    (("the\t3\t1", "cat\t5\t2"), "counts must be non-increasing with rank: "
     "token 'cat' at rank 2 has count 5, above 3 at rank 1"),
    (("the\t0\t1",), "counts must be positive: token 'the' at rank 1 has count 0"),
    (("a b\t3\t1",), "tokens must be non-empty and hold no space, tab, CR or LF: "
     "token 'a b' at rank 1"),
], ids=["rank-gap", "count-rises", "count-zero", "token-holds-space"])
def test_embed_random_names_the_faulty_vocab_entry(tmp_path, capsys, lines, entry):
    vocab_path = tmp_path / "vocab.tsv"
    vocab_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "x.txt"
    rc = _run("embed", "random", "--vocab", str(vocab_path), "--d", "1",
              "--output", str(out))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {vocab_path}: vocabulary {entry}\n"
    assert not out.exists()


def test_embed_d_larger_than_vocab(tmp_path):
    rc = _run("embed", "eigennoise", "--n", "4", "--d", "9",
              "--output", str(tmp_path / "x.txt"))
    assert rc == cli.EXIT_DATA


def test_embed_import_aligns_and_reports(tmp_path, capsys):
    vocab_path = tmp_path / "vocab.tsv"
    rc = _run("vocab", "build", "--input", str(FIXTURES / "tiny.conll.train"),
              "--format", "conll", "--case-fold", "on", "--output", str(vocab_path))
    assert rc == 0
    out = tmp_path / "aligned.txt"
    rc = _run("embed", "import", "--source", str(FIXTURES / "tiny.glove.txt"),
              "--vocab", str(vocab_path), "--output", str(out))
    assert rc == 0
    captured = capsys.readouterr().out
    assert "matched\t4" in captured
    meta = json.loads((tmp_path / "aligned.txt.meta.json").read_text())
    assert meta["matched"] == 4
    assert meta["d"] == 4


def test_embed_import_ragged_leaves_no_output(tmp_path):
    vocab_path = tmp_path / "vocab.tsv"
    _run("vocab", "build", "--input", str(FIXTURES / "tiny.conll.train"),
         "--format", "conll", "--output", str(vocab_path))
    bad = tmp_path / "bad.txt"
    bad.write_text("the 0.1 0.2\ncat 0.3\n", encoding="utf-8")
    out = tmp_path / "aligned.txt"
    rc = _run("embed", "import", "--source", str(bad),
              "--vocab", str(vocab_path), "--output", str(out))
    assert rc == cli.EXIT_DATA
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n \n\n", "2 4\n"],
                         ids=["empty", "blank-lines", "header-only"])
@pytest.mark.parametrize("expected_d", [None, "4"])
def test_embed_import_without_vectors_is_data_error(tmp_path, capsys, text, expected_d):
    vocab_path = tmp_path / "vocab.tsv"
    _run("vocab", "build", "--input", str(FIXTURES / "tiny.conll.train"),
         "--format", "conll", "--output", str(vocab_path))
    src = tmp_path / "emb.vec"
    src.write_text(text, encoding="utf-8")
    out = tmp_path / "aligned.txt"
    capsys.readouterr()
    rc = _run("embed", "import", "--source", str(src), "--vocab", str(vocab_path),
              *(() if expected_d is None else ("--expected-d", expected_d)),
              "--output", str(out))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {src}: empty embedding file\n"
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n \n\n", "2 8\n"],
                         ids=["empty", "blank-lines", "header-only"])
def test_probe_run_import_without_vectors_fails_before_any_cell(tmp_path, capsys,
                                                                monkeypatch, text):
    src = tmp_path / "emb.vec"
    src.write_text(text, encoding="utf-8")
    scored = []
    monkeypatch.setattr(matrix, "run_matrix", lambda *args: scored.append(args) or [])
    out_dir = tmp_path / "run"
    capsys.readouterr()
    rc = cli.main(_tiny_synthetic_args(out_dir, extra=("--representations",
                                                       f"eigennoise,import:{src}")))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {src}: empty embedding file\n"
    assert not scored and not out_dir.exists()


def test_probe_run_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "runs")
    assert _run("probe", "run", "--task", "synthetic", "--representations",
                "glove", "--output-dir", out) == cli.EXIT_USAGE
    assert _run("probe", "run", "--task", "synthetic", "--windows", "0,2",
                "--output-dir", out) == cli.EXIT_USAGE
    assert _run("probe", "run", "--task", "synthetic", "--seeds", "",
                "--output-dir", out) == cli.EXIT_USAGE
    # --representations is a comma list like --seeds: empty items drop out,
    # and a list left empty is refused
    parsed = cli.build_parser().parse_args(
        ["probe", "run", "--task", "synthetic", "--representations", "random,,",
         "--output-dir", out])
    assert parsed.representations == ("random",)
    capsys.readouterr()
    assert _run("probe", "run", "--task", "synthetic", "--representations", ",",
                "--output-dir", out) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "usage error: need at least one representation\n"
    assert _run("probe", "run", "--task", "conll", "--output-dir", out) == cli.EXIT_USAGE
    assert _run("probe", "run", "--task", "conll", "--train", "x.conll",
                "--windows", "0,3", "--output-dir", out) == cli.EXIT_USAGE
    assert _run("probe", "run", "--task", "synthetic", "--d", "0",
                "--output-dir", out) == cli.EXIT_USAGE
    assert _run("probe", "run", "--task", "conll", "--train", "x.conll",
                "--d", "0", "--output-dir", out) == cli.EXIT_USAGE
    for option, value in (("--classes", "0"), ("--hidden", "0"), ("--batch-size", "0"),
                          ("--max-epochs", "0"), ("--patience", "0"), ("--m", "0"),
                          ("--workers", "0"), ("--seeds", "-1"), ("--seeds", "0,-1"),
                          ("--data-seed", "-1"), ("--completion-seed", "-1"),
                          ("--seeds", PHILOX_LIMIT), ("--seeds", f"0,{PHILOX_LIMIT}"),
                          ("--completion-seed", PHILOX_LIMIT), ("--lr", "0"),
                          ("--lr", "-0.1"), ("--lr", "nan"), ("--lr", "inf"),
                          ("--vocab-cap", "0"), ("--fractions", "0"), ("--fractions", "150"),
                          ("--fractions", "-5,50"), ("--fractions", "100"),
                          ("--token-column", "-1"), ("--label-column", "-1"),
                          ("--n", "0")):
        capsys.readouterr()
        # option=value: argparse would read "-5,50" as an option of its own
        assert _run("probe", "run", "--task", "synthetic", "--n", "60", f"{option}={value}",
                    "--output-dir", out) == cli.EXIT_USAGE
        assert f"usage error: {option} must be" in capsys.readouterr().err
    for files in (["--train", "x.tsv"], ["--train", "nonexistent", "--dev", "nope"],
                  ["--test", "t.tsv"]):
        capsys.readouterr()
        assert _run("probe", "run", "--task", "synthetic", "--n", "40", *files,
                    "--output-dir", out) == cli.EXIT_USAGE
        named = ", ".join(files[::2])
        assert capsys.readouterr().err == (
            f"usage error: --task synthetic reads no task files; drop {named}\n")
    assert not (tmp_path / "runs").exists()


def test_probe_run_into_a_file_fails_before_any_cell(tmp_path, capsys, monkeypatch):
    # cells are scored in forked workers, so the spy leaves its trace on disk
    calls = tmp_path / "train_probe.calls"

    def spy(*args, **kwargs):
        with calls.open("a", encoding="utf-8") as fh:
            fh.write("call\n")

    monkeypatch.setattr(probe, "train_probe", spy)
    out_file = tmp_path / "taken"
    out_file.write_text("not a directory\n", encoding="utf-8")
    capsys.readouterr()
    rc = cli.main(_tiny_synthetic_args(out_file))
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: [Errno 20] Not a directory: '{out_file / 'cells'}'\n")
    assert not calls.exists()


def test_probe_run_refuses_representations_that_share_cell_files(tmp_path, capsys,
                                                                  monkeypatch):
    calls = tmp_path / "train_probe.calls"  # cells are scored in forked workers

    def spy(*args, **kwargs):
        with calls.open("a", encoding="utf-8") as fh:
            fh.write("call\n")

    monkeypatch.setattr(probe, "train_probe", spy)
    out_dir = tmp_path / "run"
    capsys.readouterr()
    rc = _run("probe", "run", "--task", "conll",
              "--train", str(FIXTURES / "tiny.conll.train"), "--windows", "0",
              "--representations", "import:a/b.txt,import:a_b.txt", "--seeds", "0",
              "--d", "2", "--output-dir", str(out_dir))
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ")
    assert "'import:a/b.txt'" in err and "'import:a_b.txt'" in err
    assert not out_dir.exists() and not calls.exists()


@pytest.mark.parametrize("command", [
    ["embed", "eigennoise", "--n", "5", "--d", "2"],
    ["probe", "run", "--task", "synthetic", "--n", "40", "--d", "2", "--seeds", "0"]],
    ids=["embed", "probe-run"])
def test_an_overflowing_size_is_a_data_error(tmp_path, capsys, command):
    out = tmp_path / "out"
    target = ["--output" if command[0] == "embed" else "--output-dir", str(out)]
    capsys.readouterr()
    assert _run(*command, "--m", str(10**400), *target) == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: int too large to convert to float\n"
    assert not out.exists()


def test_an_allocation_failure_is_a_data_error(tmp_path, capsys, monkeypatch):
    def refuse(n, d, seed):
        raise MemoryError(f"Unable to allocate {n * d * 8} bytes")

    monkeypatch.setattr(embeddings, "random_table", refuse)
    out = tmp_path / "random.txt"
    capsys.readouterr()
    assert _run("embed", "random", "--n", "100000", "--d", "5000",
                "--output", str(out)) == cli.EXIT_DATA
    assert capsys.readouterr().err == "data error: Unable to allocate 4000000000 bytes\n"
    assert not out.exists()


def _tiny_synthetic_args(out_dir, seeds="0", extra=()):
    return ["probe", "run", "--task", "synthetic", "--kind", "separable",
            "--n", "80", "--d", "8", "--hidden", "16", "--max-epochs", "8",
            "--seeds", seeds, "--output-dir", str(out_dir), *extra]


def _tiny_synthetic_spec():
    """The run spec of ``_tiny_synthetic_args``, built without the parser."""
    return matrix.RunSpec(
        task="synthetic", kind="separable", n=80, classes=2, data_seed=7, train=None,
        dev=None, test=None, token_column=0, label_column=3,
        representations=("eigennoise", "random"), windows=(), frozen=(True, False),
        seeds=(0,), d=8, m=defaults.DEFAULT_WINDOW, mode="linear", completion_seed=0,
        vocab_cap=defaults.DEFAULT_MAX_SIZE, case_fold="auto", hidden=16,
        lr=defaults.DEFAULT_LR, batch_size=defaults.DEFAULT_BATCH_SIZE, max_epochs=8,
        patience=defaults.DEFAULT_PATIENCE, fractions=defaults.DEFAULT_FRACTIONS)


def test_probe_run_synthetic_end_to_end(tmp_path):
    out_dir = tmp_path / "run"
    rc = cli.main(_tiny_synthetic_args(out_dir))
    assert rc == 0
    report = (out_dir / "report.txt").read_text(encoding="utf-8")
    assert report.startswith("# probe run at ")
    assert "uniform_kbits" in report
    payload = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))
    cells = payload["cells"]
    assert len(cells) == 4  # 2 representations x frozen/unfrozen x 1 seed
    for cell in cells:
        assert cell["error"] is None
        assert cell["total_bits"] < cell["uniform_bits"]
        assert cell["accuracy"] is not None
    names = {(c["representation"], c["frozen"]) for c in cells}
    assert names == {("eigennoise", True), ("eigennoise", False),
                     ("random", True), ("random", False)}
    mdl_files = list((out_dir / "cells").glob("*.mdl.txt"))
    assert len(mdl_files) == 4


def test_probe_run_report_body_reproducible(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(_tiny_synthetic_args(out_a)) == 0
    assert cli.main(_tiny_synthetic_args(out_b)) == 0
    body_a = (out_a / "report.txt").read_text().split("\n", 1)[1]
    body_b = (out_b / "report.txt").read_text().split("\n", 1)[1]
    assert body_a == body_b
    assert (out_a / "cells.json").read_bytes() == (out_b / "cells.json").read_bytes()


def test_probe_run_duplicate_seeds_run_once(tmp_path):
    once, twice = tmp_path / "once", tmp_path / "twice"
    assert cli.main(_tiny_synthetic_args(once, seeds="0")) == 0
    assert cli.main(_tiny_synthetic_args(twice, seeds="0,0")) == 0
    body_once = (once / "report.txt").read_text().split("\n", 1)[1]
    body_twice = (twice / "report.txt").read_text().split("\n", 1)[1]
    assert body_once == body_twice
    assert (once / "cells.json").read_bytes() == (twice / "cells.json").read_bytes()


def test_probe_run_conll_token_task(tmp_path):
    out_dir = tmp_path / "run"
    rc = _run("probe", "run", "--task", "conll",
              "--train", str(FIXTURES / "tiny.conll.train"),
              "--test", str(FIXTURES / "tiny.conll.test"),
              "--label-column", "3", "--windows", "0,2",
              "--representations", "eigennoise", "--frozen", "true",
              "--seeds", "0", "--d", "2", "--hidden", "8",
              "--max-epochs", "4", "--fractions", "25,50,100",
              "--output-dir", str(out_dir))
    assert rc == 0
    payload = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))
    assert {c["window"] for c in payload["cells"]} == {0, 2}
    assert all(c["accuracy"] is not None for c in payload["cells"])


def _tiny_task_args(out_dir):
    return ["--d", "2", "--hidden", "8", "--max-epochs", "1", "--seeds", "0",
            "--representations", "eigennoise", "--frozen", "true",
            "--fractions", "50,100", "--output-dir", str(out_dir)]


def test_probe_run_tsv_tokenizes_each_text_once(tmp_path, monkeypatch):
    from eigennoise import datasets, probe

    records = {"train": ["pos\tgreat game today", "neg\tawful ref!", "pos\tso good",
                         "neg\tbad loss today"],
               "dev": ["pos\tgreat day", "neg\tawful"], "test": ["neg\tloss", "pos\tgood"]}
    for split, lines in records.items():
        (tmp_path / f"t.{split}").write_text("".join(line + "\n" for line in lines),
                                             encoding="utf-8")
    calls = []
    for module in (datasets, probe):
        tokenize = getattr(module, "tokenize", None)
        if tokenize is not None:
            monkeypatch.setattr(module, "tokenize",
                                lambda text, tokenize=tokenize: calls.append(text)
                                or tokenize(text))
    # t.dev and t.test are read as the siblings of t.train
    assert _run("probe", "run", "--task", "tsv", "--train", str(tmp_path / "t.train"),
                *_tiny_task_args(tmp_path / "run")) == 0
    assert sorted(calls) == sorted(line.split("\t")[1]
                                   for lines in records.values() for line in lines)


@pytest.mark.parametrize("task", ["tsv", "conll"])
@pytest.mark.parametrize("split", ["dev", "test"])
def test_probe_run_unknown_label_names_its_file(tmp_path, capsys, task, split):
    if task == "tsv":
        train, other = "pos\tgood day\nneg\tbad day\n", "pos\tgood\nXX\tbad\n"
        columns = []
    else:
        train, other = "EU NNP\nrejects VBZ\n\nGerman JJ\n", "EU NNP\ncall XX\n"
        columns = ["--label-column", "1", "--windows", "0"]
    (tmp_path / "c.train").write_text(train, encoding="utf-8")
    path = tmp_path / f"c.{split}"
    path.write_text(other, encoding="utf-8")
    assert _run("probe", "run", "--task", task, "--train", str(tmp_path / "c.train"),
                f"--{split}", str(path), *columns,
                *_tiny_task_args(tmp_path / "run")) == cli.EXIT_DATA == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: label 'XX' is unknown to the training label set\n")
    assert not (tmp_path / "run").exists()


def test_probe_run_text_without_tokens_names_its_line(tmp_path, capsys):
    train = tmp_path / "t.train"
    train.write_text("pos\tgood day\nneg\t!!\n", encoding="utf-8")
    assert _run("probe", "run", "--task", "tsv", "--train", str(train),
                *_tiny_task_args(tmp_path / "run")) == cli.EXIT_DATA == 2
    assert capsys.readouterr().err == (
        f"data error: {train}:2: text tokenizes to nothing\n")
    assert not (tmp_path / "run").exists()


def test_probe_run_synthetic_at_d_1(tmp_path):
    """The synthetic task draws no d-sized data, so any --d runs."""
    assert _run("probe", "run", "--task", "synthetic", "--n", "40", "--d", "1",
                "--seeds", "0", "--output-dir", str(tmp_path / "run")) == 0
    cells = json.loads((tmp_path / "run" / "cells.json").read_text())["cells"]
    assert len(cells) == 4 and all(cell["error"] is None for cell in cells)


def test_probe_run_conll_cells_json_reproducible(tmp_path):
    def run(out_dir):
        assert _run("probe", "run", "--task", "conll",
                    "--train", str(FIXTURES / "tiny.conll.train"),
                    "--test", str(FIXTURES / "tiny.conll.test"),
                    "--label-column", "3", "--windows", "0,2",
                    "--representations", f"eigennoise,random,import:{FIXTURES / 'tiny.glove.txt'}",
                    "--seeds", "0", "--d", "4", "--hidden", "8", "--max-epochs", "4",
                    "--fractions", "25,50,100", "--output-dir", str(out_dir)) == 0
        return (out_dir / "cells.json").read_bytes()

    first = run(tmp_path / "a")
    assert first == run(tmp_path / "b")
    cells = json.loads(first)["cells"]
    assert len(cells) == 12 and all(c["error"] is None for c in cells)


def test_probe_run_leaves_the_shared_tables_unmodified():
    spec = _tiny_synthetic_spec()
    with cli._one_blas_thread():
        ctx = matrix.build_context(spec)
        before = {key: table.rows.copy() for key, table in ctx.tables.items()}
        results = [matrix.run_cell(cell, ctx) for cell in matrix.matrix_cells(spec)]
    assert {res.cell.frozen for res in results if res.error is None} == {True, False}
    assert set(before) == {("eigennoise", 0), ("random", 0)}
    # every cell starts from a PROBE_DTYPE table, the random one included
    for key, rows in before.items():
        assert ctx.tables[key].rows.dtype == matrix.PROBE_DTYPE
        assert ctx.tables[key].rows.tobytes() == rows.tobytes()


def test_discover_missing_splits(tmp_path, monkeypatch):
    monkeypatch.setattr(matrix, "run_matrix", lambda ctx, cells, workers: [])
    text = (FIXTURES / "tiny.conll.train").read_text(encoding="utf-8")
    for name in ("task.train", "task.dev", "task.test", "other.dev"):
        (tmp_path / name).write_text(text, encoding="utf-8")
    train = str(tmp_path / "task.train")

    def settled(*argv):
        """The dev and test files that the run's spec line records."""
        out = tmp_path / "run"
        assert _run("probe", "run", "--task", "conll", *argv, "--windows", "0",
                    "--d", "2", "--fractions", "25,50,100", "--output-dir", str(out)) == 0
        spec = json.loads((out / "cells.json").read_text(encoding="utf-8"))["spec"]
        return spec["dev"], spec["test"]

    assert settled("--train", train) == (str(tmp_path / "task.dev"),
                                         str(tmp_path / "task.test"))
    explicit = str(tmp_path / "other.dev")
    assert settled("--train", train, "--dev", explicit) == (explicit,
                                                            str(tmp_path / "task.test"))
    # without the .train suffix there is no prefix to look beside
    assert settled("--train", str(tmp_path / "task.dev")) == (None, None)


def test_probe_run_discovers_sibling_splits(tmp_path):
    out_dir = tmp_path / "run"
    rc = _run("probe", "run", "--task", "conll",
              "--train", str(FIXTURES / "tiny.conll.train"),
              "--label-column", "3", "--windows", "0",
              "--representations", "random", "--frozen", "true",
              "--seeds", "0", "--d", "2", "--hidden", "8",
              "--max-epochs", "4", "--fractions", "25,50,100",
              "--output-dir", str(out_dir))
    assert rc == 0
    payload = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))
    # tiny.conll.test was picked up by suffix discovery: accuracy exists
    assert all(c["accuracy"] is not None for c in payload["cells"])


def test_probe_run_cell_failures_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(mdl, "online_codelength", boom)
    out_dir = tmp_path / "run"
    rc = cli.main(_tiny_synthetic_args(out_dir))
    assert rc == cli.EXIT_CELL_FAILURES
    payload = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))
    assert all("synthetic failure" in c["error"] for c in payload["cells"])


def test_probe_run_cell_failure_writes_traceback(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(mdl, "online_codelength", boom)
    out_dir = tmp_path / "run"
    assert cli.main(_tiny_synthetic_args(out_dir)) == cli.EXIT_CELL_FAILURES
    payload = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))
    assert [c["error"] for c in payload["cells"]] == ["RuntimeError: synthetic failure"] * 4
    assert "Traceback" not in (out_dir / "report.txt").read_text(encoding="utf-8")
    errors = sorted((out_dir / "cells").glob("*.error.txt"))
    assert [path.name for path in errors] == [
        f"{rep}_seq_{mode}_s0.error.txt"
        for rep in ("eigennoise", "random") for mode in ("frozen", "unfrozen")]
    for path in errors:
        text = path.read_text(encoding="utf-8")
        assert text.startswith("Traceback")
        assert ", in boom\n" in text
        assert text.endswith("RuntimeError: synthetic failure\n")
    monkeypatch.undo()  # the cells now score: their old tracebacks go
    assert cli.main(_tiny_synthetic_args(out_dir)) == 0
    assert not list((out_dir / "cells").glob("*.error.txt"))
    assert len(list((out_dir / "cells").glob("*.mdl.txt"))) == 4
    monkeypatch.setattr(mdl, "online_codelength", boom)  # failed cells keep no report
    assert cli.main(_tiny_synthetic_args(out_dir)) == cli.EXIT_CELL_FAILURES
    assert not list((out_dir / "cells").glob("*.mdl.txt"))
    assert len(list((out_dir / "cells").glob("*.error.txt"))) == 4


def test_probe_run_replaces_the_outputs_of_an_earlier_run(tmp_path):
    out_dir = tmp_path / "run"
    assert cli.main(_tiny_synthetic_args(out_dir, seeds="0,1")) == 0
    outputs = {path: path.read_bytes() for path in out_dir.rglob("*") if path.is_file()}
    assert len(outputs) == 10
    # a run that fails on its task leaves the earlier outputs as they were
    assert cli.main(_tiny_synthetic_args(out_dir, extra=("--d", "100000"))) == cli.EXIT_DATA
    assert {path: path.read_bytes() for path in out_dir.rglob("*")
            if path.is_file()} == outputs
    # a run with fewer seeds leaves exactly the cell files its cells.json names
    assert cli.main(_tiny_synthetic_args(out_dir, seeds="0")) == 0
    records = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))["cells"]
    names = {matrix.CellSpec(rec["representation"], rec["window"], rec["frozen"],
                             rec["seed"]).name + ".mdl.txt" for rec in records}
    assert len(names) == 4
    assert {path.name for path in (out_dir / "cells").iterdir()} == names


def _gone(pid: int) -> bool:
    """Whether process ``pid`` has exited: no longer listed, or a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text(encoding="utf-8")
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def _wait_for(condition, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


@needs_fork
@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc; prctl is Linux-only")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["TERM", "KILL"])
def test_a_stopped_probe_run_keeps_its_finished_cells_and_no_worker(tmp_path, signum):
    # seed 0's cell scores; seed 1's sleeps until the run is stopped
    out_dir, pids = tmp_path / "run", tmp_path / "children.txt"
    argv = _tiny_synthetic_args(out_dir, seeds="0,1", extra=(
        "--representations", "random", "--frozen", "true", "--workers", "2"))
    script = (
        "import os, sys, time\n"
        "from eigennoise import cli, matrix\n"
        "entry, score = matrix._score_in_child, matrix.run_cell\n"
        "def record_pid(*args):\n"
        f"    with open({str(pids)!r}, 'a', encoding='utf-8') as fh:\n"
        "        fh.write(f'{os.getpid()}\\n')\n"
        "    entry(*args)\n"
        "def hang_after_seed_0(cell, ctx):\n"
        "    if cell.seed:\n"
        "        time.sleep(600)\n"
        "    return score(cell, ctx)\n"
        "matrix._score_in_child, matrix.run_cell = record_pid, hang_after_seed_0\n"
        f"sys.exit(cli.main({argv!r}))\n"
    )
    finished = out_dir / "cells" / "random_seq_frozen_s0.mdl.txt"
    proc = subprocess.Popen([sys.executable, "-c", script], env=_cli_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        assert _wait_for(lambda: finished.is_file() and finished.stat().st_size, 120)
        proc.send_signal(signum)
        proc.wait(timeout=30)
        children = [int(pid) for pid in pids.read_text(encoding="utf-8").split()]
        assert len(children) == 2
        assert _wait_for(lambda: all(_gone(pid) for pid in children), 30)
    finally:  # whatever failed, stop the run and every child it left
        proc.kill()
        proc.wait(timeout=30)
        for pid in pids.read_text(encoding="utf-8").split() if pids.exists() else ():
            if not _gone(int(pid)):
                os.kill(int(pid), signal.SIGKILL)
    assert "total_bits\t" in finished.read_text(encoding="utf-8")
    assert [path.name for path in (out_dir / "cells").iterdir()] == [finished.name]
    assert not (out_dir / "cells.json").exists() and not (out_dir / "report.txt").exists()


@needs_fork
def test_worker_exits_when_its_parent_is_gone():
    # the child's entry, forked as run_matrix forks it: a child whose
    # recorded parent is not its parent exits at once, sending nothing; the
    # other sends its cell's result (a failure, as there is no context)
    fork, cell = multiprocessing.get_context("fork"), matrix.CellSpec("random", None, True, 0)
    for parent, code in ((os.getpid(), 0), (os.getpid() + 1, 1)):
        reader, writer = fork.Pipe(duplex=False)
        child = fork.Process(target=matrix._score_in_child, args=(cell, None, parent, writer))
        child.start()
        writer.close()
        assert reader.poll(30)
        if code == 0:
            assert reader.recv().cell == cell
        else:
            with pytest.raises(EOFError):
                reader.recv()
        child.join(timeout=30)
        assert child.exitcode == code


@needs_fork
def test_probe_run_survives_a_dead_worker(tmp_path):
    # the forked workers inherit the patch; a hang fails on the timeout
    script = (
        "import os, sys\n"
        "from eigennoise import cli, mdl\n"
        "mdl.online_codelength = lambda *a, **k: os._exit(1)\n"
        f"sys.exit(cli.main({_tiny_synthetic_args(tmp_path / 'run', extra=('--workers', '2'))!r}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == cli.EXIT_CELL_FAILURES, proc.stderr
    assert "4 of 4 cells failed" in proc.stderr
    payload = json.loads((tmp_path / "run" / "cells.json").read_text(encoding="utf-8"))
    assert len(payload["cells"]) == 4
    assert [c["error"] for c in payload["cells"]] == [
        "ChildProcessError: the cell's process exited with code 1"] * 4
    assert (tmp_path / "run" / "report.txt").exists()
    assert len(list((tmp_path / "run" / "cells").glob("*.error.txt"))) == 4


def _record_scoring_pids(monkeypatch, path):
    """Make every codelength call append its process id to ``path``, in
    whichever process it runs (forked workers inherit the patch); returns
    a reader of the ids written so far."""
    codelength = mdl.online_codelength

    def record(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return codelength(*args, **kwargs)

    monkeypatch.setattr(mdl, "online_codelength", record)
    return lambda: [int(pid) for pid in path.read_text(encoding="utf-8").split()]


@needs_fork
def test_probe_run_forks_no_more_workers_than_cells(tmp_path, monkeypatch):
    # one child per cell, and never more than --workers alive at once
    alive = []
    start = multiprocessing.context.ForkProcess.start

    def record(process):
        start(process)
        alive.append(len(multiprocessing.active_children()))

    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", record)
    for workers in (1, 2, 8):
        alive.clear()
        assert cli.main(_tiny_synthetic_args(tmp_path / "run", extra=(
            "--workers", str(workers)))) == 0
        assert len(alive) == 4
        assert max(alive) <= min(workers, 4)


@needs_fork
def test_probe_run_scores_every_cell_in_a_joined_worker(tmp_path, monkeypatch):
    pids = _record_scoring_pids(monkeypatch, tmp_path / "pids.txt")
    assert cli.main(_tiny_synthetic_args(tmp_path / "run", extra=("--workers", "2"))) == 0
    scored = pids()
    assert len(scored) == 4 and os.getpid() not in scored
    assert len(set(scored)) == 4  # one child per cell
    assert multiprocessing.active_children() == []


@needs_fork
@pytest.mark.parametrize("death, error", [
    (lambda: os._exit(7), "exited with code 7"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"was killed by signal {int(signal.SIGKILL)}"),
], ids=["exit", "kill"])
def test_probe_run_fails_only_the_cell_whose_process_died(tmp_path, monkeypatch, death,
                                                          error):
    dead, score = "random_seq_unfrozen_s0", matrix.run_cell

    def die_in_one_cell(cell, ctx):
        if cell.name == dead:
            death()
        return score(cell, ctx)

    monkeypatch.setattr(matrix, "run_cell", die_in_one_cell)
    out_dir = tmp_path / "run"
    assert cli.main(_tiny_synthetic_args(out_dir, extra=("--workers", "2"))) == (
        cli.EXIT_CELL_FAILURES)
    records = json.loads((out_dir / "cells.json").read_text(encoding="utf-8"))["cells"]
    errors = {matrix.CellSpec(rec["representation"], rec["window"], rec["frozen"],
                              rec["seed"]).name: rec["error"] for rec in records}
    assert errors == {f"{rep}_seq_{mode}_s0": None for rep in ("eigennoise", "random")
                      for mode in ("frozen", "unfrozen")} | {
        dead: f"ChildProcessError: the cell's process {error}"}
    assert sorted(path.name for path in (out_dir / "cells").iterdir()) == sorted(
        f"{name}.error.txt" if name == dead else f"{name}.mdl.txt" for name in errors)
    assert (out_dir / "report.txt").exists()


@needs_fork
def test_probe_run_without_fork_scores_in_process(tmp_path, monkeypatch):
    forked, in_process = tmp_path / "forked", tmp_path / "in_process"
    pids = _record_scoring_pids(monkeypatch, tmp_path / "pids.txt")
    assert cli.main(_tiny_synthetic_args(forked)) == 0
    assert len(pids()) == 4 and os.getpid() not in pids()
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert cli.main(_tiny_synthetic_args(in_process)) == 0
    assert pids()[4:] == [os.getpid()] * 4
    assert (forked / "cells.json").read_bytes() == (in_process / "cells.json").read_bytes()


@needs_fork
@needs_openblas
@pytest.mark.parametrize("ambient", [None, "2"])
def test_probe_run_workers_run_on_one_blas_thread(tmp_path, ambient):
    # a forked worker inherits the CLI's one-thread OpenBLAS count, also
    # when the user set OPENBLAS_NUM_THREADS
    counts = tmp_path / "threads.txt"
    script = (
        "import os, sys\n"
        "from eigennoise import cli\n"
        "cli._load_numpy()\n"  # numpy loads as in the CLI, before mdl needs it
        "from eigennoise import mdl\n"
        "print(os.getpid())\n"
        "codelength = mdl.online_codelength\n"
        "def record(*args, **kwargs):\n"
        "    threads = cli._bundled_openblas().scipy_openblas_get_num_threads64_()\n"
        f"    with open({str(counts)!r}, 'a', encoding='utf-8') as fh:\n"
        "        fh.write(f'{os.getpid()} {threads}\\n')\n"
        "    return codelength(*args, **kwargs)\n"
        "mdl.online_codelength = record\n"
        f"sys.exit(cli.main({_tiny_synthetic_args(tmp_path / 'run', extra=('--workers', '2'))!r}))\n"
    )
    env = _cli_env() if ambient is None else _cli_env(OPENBLAS_NUM_THREADS=ambient)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    parent = proc.stdout.split()[0]
    seen = [line.split() for line in counts.read_text(encoding="utf-8").splitlines()]
    assert len(seen) == 4
    assert all(pid != parent and threads == "1" for pid, threads in seen)


def test_report_aggregate_merges_runs(tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert cli.main(_tiny_synthetic_args(out_dir)) == 0
    run_table = capsys.readouterr().out
    rc = _run("report", "aggregate", "--input-dir", str(tmp_path))
    assert rc == 0
    table = capsys.readouterr().out
    assert table == run_table  # one run: the same table probe run printed
    assert "eigennoise" in table and "uniform_kbits" in table
    out_file = tmp_path / "table.txt"
    rc = _run("report", "aggregate", "--input-dir", str(tmp_path),
              "--output", str(out_file))
    assert rc == 0
    assert out_file.read_text() == table


def test_report_aggregate_keeps_runs_of_different_sizes_apart(tmp_path, capsys):
    run_rows = []
    for n in ("200", "500"):
        assert _run("probe", "run", "--task", "synthetic", "--seeds", "0",
                    "--max-epochs", "3", "--hidden", "16", "--d", "8", "--n", n,
                    "--output-dir", str(tmp_path / f"n{n}")) == 0
        run_rows += [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    # eigennoise and random at each size, each row as its own run printed it
    assert len(rows) == len(run_rows) == 4
    assert sorted(rows) == sorted(run_rows)


def test_matrix_runs_from_a_run_spec(tmp_path):
    assert cli.main(_tiny_synthetic_args(tmp_path / "cli")) == 0
    spec = _tiny_synthetic_spec()
    with cli._one_blas_thread():
        records = matrix.run(spec, tmp_path / "direct", 2)
    assert len(records) == 4 and all(rec["error"] is None for rec in records)
    assert ((tmp_path / "direct" / "cells.json").read_bytes()
            == (tmp_path / "cli" / "cells.json").read_bytes())
    # every field must be given, and a spec is never settled again
    assert all(f.default is f.default_factory is MISSING for f in fields(matrix.RunSpec))
    with pytest.raises(TypeError):
        matrix.RunSpec(task="synthetic")
    with pytest.raises(FrozenInstanceError):
        spec.seeds = (0, 1)


def test_the_spec_line_holds_every_setting(tmp_path):
    def spec_line(name, *extra):
        out = tmp_path / name
        assert cli.main(_tiny_synthetic_args(out, extra=extra)) == 0
        spec = json.loads((out / "cells.json").read_text(encoding="utf-8"))["spec"]
        body = (out / "report.txt").read_text(encoding="utf-8").splitlines()[1]
        assert body == "spec: " + json.dumps(spec, sort_keys=True)
        return spec

    base = spec_line("base")
    assert set(base) == {f.name for f in fields(matrix.RunSpec)} | {"vocab_size",
                                                                    "boundaries"}
    assert (base["frozen"], base["windows"], base["seeds"]) == ([True, False], [], [0])
    for option, key in (("--completion-seed", "completion_seed"), ("--data-seed", "data_seed")):
        changed = spec_line(key, option, "11")
        assert changed != base and changed == {**base, key: 11}


# every default of probe run --task synthetic, written out as options
PROBE_RUN_DEFAULTS = (
    "--kind", "separable", "--n", "2000", "--classes", "2", "--data-seed", "7",
    "--token-column", "0", "--label-column", "3", "--representations", "eigennoise,random",
    "--frozen", "both", "--seeds", "0,1234,322111", "--d", "50", "--m", "5",
    "--mode", "linear", "--completion-seed", "0", "--vocab-cap", "20000",
    "--case-fold", "auto", "--hidden", "512", "--lr", "0.001", "--batch-size", "64",
    "--max-epochs", "50", "--patience", "4",
    "--fractions", "0.1,0.2,0.4,0.8,1.6,3.2,6.25,12.5,25,50,100",
    "--workers", str(os.cpu_count() or 1))


def test_defaults_written_out_change_no_output(tmp_path, monkeypatch):
    # what a run would score is recorded, not scored: the spec depends on
    # the options and the task only
    plans = []
    monkeypatch.setattr(matrix, "run_matrix", lambda ctx, cells, workers: plans.append(
        (ctx.config_base, ctx.schedule, cells, workers)) or [])
    outputs = []
    for probe_options, embed_options in (
            ((), ()),
            (PROBE_RUN_DEFAULTS, ("--m", "5", "--mode", "linear", "--completion-seed", "0"))):
        out = tmp_path / str(len(outputs))
        assert _run("probe", "run", "--task", "synthetic", *probe_options,
                    "--output-dir", str(out / "run")) == cli.EXIT_OK
        assert _run("embed", "eigennoise", "--n", "100", "--d", "8", *embed_options,
                    "--output", str(out / "emb.txt")) == cli.EXIT_OK
        outputs.append([(out / name).read_bytes()
                        for name in ("run/cells.json", "emb.txt.meta.json", "emb.txt")])
    assert outputs[0] == outputs[1]
    assert plans[0] == plans[1]


def test_report_aggregate_empty_dir(tmp_path):
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == cli.EXIT_DATA


_RECORD = {"task": "t", "representation": "random", "window": 0, "frozen": True,
           "seed": 0, "accuracy": 0.5, "error": None, "total_bits": 12.0,
           "uniform_bits": 20.0}
_WRONG_TYPES = [("task", 3, "str"), ("representation", None, "str"),
                ("window", "2", "int or null"), ("window", True, "int or null"),
                ("frozen", 1, "bool"), ("accuracy", "0.5", "int or float or null"),
                ("error", 0, "str or null"), ("total_bits", "12", "int or float or null"),
                ("uniform_bits", False, "int or float or null")]


@pytest.mark.parametrize("text, cause", [
    ("{not json", "not valid JSON: "),
    ('{"spec": {}}', 'expected an object with a "cells" list'),
    (json.dumps({"spec": 5, "cells": [_RECORD]}), 'expected "spec" to be an object\n'),
    ('{"cells": [{"task": "t", "representation": "random", "window": null, '
     '"frozen": true, "accuracy": null, "error": null, "uniform_bits": 2.0}]}',
     "cell 0 has no 'total_bits'"),
    *[(json.dumps({"cells": [_RECORD, {**_RECORD, key: value}]}),
       f"cell 1: {key!r} is {json.dumps(value)}, expected {expected}\n")
      for key, value, expected in _WRONG_TYPES],
    (json.dumps({"cells": [_RECORD, {**_RECORD, "uniform_bits": None}]}),
     "cell 1: 'uniform_bits' is null, but 'total_bits' is 12.0\n"),
], ids=["invalid-json", "no-cells-list", "spec-not-an-object", "record-missing-key",
        *[f"{key}-{type(value).__name__}" for key, value, _ in _WRONG_TYPES],
        "scored-without-uniform-bits"])
def test_report_aggregate_names_a_malformed_cells_json(tmp_path, capsys, text, cause):
    path = tmp_path / "run" / "cells.json"
    path.parent.mkdir()
    path.write_text(text, encoding="utf-8")
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(f"data error: {path}: {cause}")


def test_report_aggregate_refuses_a_repeated_cell(tmp_path, capsys):
    assert cli.main(_tiny_synthetic_args(tmp_path / "run")) == 0
    shutil.copytree(tmp_path / "run", tmp_path / "run-copy")
    capsys.readouterr()
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 'run-copy' / 'cells.json'}: cell 0 "
        "(representation=eigennoise, window=None, frozen=True, seed=0) repeats a cell "
        f"of {tmp_path / 'run' / 'cells.json'} with the same setting\n")
    # a file without a spec has the spec {}; another seed is another cell
    runs = tmp_path / "hand"
    runs.mkdir()
    (runs / "cells.json").write_text(json.dumps(
        {"cells": [_RECORD, {**_RECORD, "seed": 1}, {**_RECORD, "task": "u"}]}),
        encoding="utf-8")
    assert _run("report", "aggregate", "--input-dir", str(runs)) == cli.EXIT_OK
    (runs / "copy").mkdir()
    (runs / "copy" / "cells.json").write_text(json.dumps({"spec": {}, "cells": [_RECORD]}),
                                              encoding="utf-8")
    capsys.readouterr()
    assert _run("report", "aggregate", "--input-dir", str(runs)) == cli.EXIT_DATA
    assert capsys.readouterr().err.startswith(
        f"data error: {runs / 'copy' / 'cells.json'}: cell 0 (representation=random, "
        f"window=0, frozen=True, seed=0) repeats a cell of {runs / 'cells.json'} ")


def test_report_aggregate_refuses_a_seed_that_two_runs_of_one_setting_scored(tmp_path,
                                                                           capsys):
    # the runs' specs differ only in the seeds they list
    one_cell = ("--representations", "random", "--frozen", "true")
    for name, seeds in (("s01", "0,1"), ("s1", "1"), ("other/s1", "1")):
        extra = one_cell + (("--d", "4") if name.startswith("other") else ())
        assert cli.main(_tiny_synthetic_args(tmp_path / name, seeds, extra)) == 0
    capsys.readouterr()
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {tmp_path / 's1' / 'cells.json'}: cell 0 "
        "(representation=random, window=None, frozen=True, seed=1) repeats a cell "
        f"of {tmp_path / 's01' / 'cells.json'} with the same setting\n")
    # another setting's seed 1 is another cell
    shutil.rmtree(tmp_path / "s1")
    assert _run("report", "aggregate", "--input-dir", str(tmp_path)) == cli.EXIT_OK


def test_missing_train_file_is_data_error(tmp_path):
    rc = _run("probe", "run", "--task", "tsv", "--train",
              str(tmp_path / "nope.tsv"), "--output-dir", str(tmp_path / "r"))
    assert rc == cli.EXIT_DATA


def test_probe_run_worker_count_does_not_change_outputs(tmp_path):
    one, two = tmp_path / "one", tmp_path / "two"
    assert cli.main(_tiny_synthetic_args(one, extra=("--workers", "1"))) == 0
    assert cli.main(_tiny_synthetic_args(two, extra=("--workers", "2"))) == 0
    body_one = (one / "report.txt").read_text().split("\n", 1)[1]
    body_two = (two / "report.txt").read_text().split("\n", 1)[1]
    assert body_one == body_two
    assert (one / "cells.json").read_bytes() == (two / "cells.json").read_bytes()


# --- BLAS threads -------------------------------------------------------------


def _blas_threads():
    return OPENBLAS.scipy_openblas_get_num_threads64_()


def _set_blas_threads(n):
    OPENBLAS.scipy_openblas_set_num_threads64_(n)


@needs_openblas
def test_main_runs_commands_on_one_blas_thread(tmp_path, monkeypatch):
    seen = []

    def record(args):
        seen.append(_blas_threads())
        return cli.EXIT_OK

    monkeypatch.setattr(cli, "cmd_embed_random", record)
    before = _blas_threads()
    _set_blas_threads(2)
    try:
        rc = _run("embed", "random", "--n", "5", "--d", "2",
                  "--output", str(tmp_path / "x.txt"))
        after = _blas_threads()
    finally:
        _set_blas_threads(before)
    assert rc == 0
    assert seen == [1]
    assert after == 2


def test_main_without_openblas_still_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_bundled_openblas", lambda: None)
    out = tmp_path / "emb.txt"
    assert _run("embed", "random", "--n", "5", "--d", "2",
                "--output", str(out)) == 0
    assert out.exists()


@needs_openblas
def test_embed_eigennoise_independent_of_ambient_blas_threads(tmp_path, monkeypatch):
    # The text file keeps 8 significant digits, which hides ulp-level
    # differences, so the in-memory table (the one probe runs train on) is
    # compared too: at N=20000 its bytes follow the BLAS thread count.
    tables = []
    to_embedding = eigen.to_embedding

    def record(*args, **kwargs):
        table = to_embedding(*args, **kwargs)
        tables.append(table.rows.tobytes())
        return table

    monkeypatch.setattr(eigen, "to_embedding", record)
    outputs = []
    before = _blas_threads()
    try:
        for threads in (2, 1):
            _set_blas_threads(threads)
            out = tmp_path / f"emb_{threads}.txt"
            assert _run("embed", "eigennoise", "--n", "20000", "--d", "50",
                        "--output", str(out)) == 0
            outputs.append(out.read_bytes())
    finally:
        _set_blas_threads(before)
    assert outputs[0] == outputs[1]
    assert len(tables) == 2 and tables[0] == tables[1]


# --- start-up -----------------------------------------------------------------


def _cli_env(**overrides):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(overrides)
    return env


def test_commands_other_than_probe_run_load_no_probe_stack(tmp_path):
    # `-X importtime` lists every module a command imports
    probe_stack = {"eigennoise.matrix", "eigennoise.probe", "eigennoise.mdl",
                   "concurrent.futures", "multiprocessing"}
    numeric = {"numpy", "eigennoise.embeddings", "eigennoise.eigen", "eigennoise.harmonic"}
    # --help and usage errors need only argparse and the defaults
    parsing_only = numeric | probe_stack | {"eigennoise.datasets", "eigennoise.vocab"}
    datasets = {"eigennoise.datasets"}
    vocab = tmp_path / "vocab.tsv"
    runs = tmp_path / "runs"
    runs.mkdir()
    record = {"task": "t", "representation": "random", "window": None, "frozen": True,
              "seed": 0, "accuracy": 0.5, "error": None, "total_bits": 10.0,
              "uniform_bits": 20.0}
    (runs / "cells.json").write_text(json.dumps({"spec": {}, "cells": [record]}),
                                     encoding="utf-8")
    # argv, exit code, modules it loads, modules it must not load
    commands = (
        (["--help"], cli.EXIT_OK, {"eigennoise.defaults"}, parsing_only),
        (["embed", "random", "--n", "0", "--d", "2", "--output", str(tmp_path / "r.txt")],
         cli.EXIT_USAGE, {"eigennoise.defaults"}, parsing_only),
        (["vocab", "build", "--format", "conll", "--input",
          str(FIXTURES / "tiny.conll.train"), "--output", str(vocab)],
         cli.EXIT_OK, datasets, numeric | probe_stack),
        (["embed", "import", "--source", str(FIXTURES / "tiny.glove.txt"),
          "--vocab", str(vocab), "--output", str(tmp_path / "imported.txt")],
         cli.EXIT_OK, {"numpy", "eigennoise.embeddings"},
         {"eigennoise.eigen", "eigennoise.harmonic"} | probe_stack | datasets),
        (["embed", "random", "--n", "5", "--d", "2", "--output", str(tmp_path / "random.txt")],
         cli.EXIT_OK, {"numpy", "eigennoise.embeddings"}, probe_stack | datasets),
        (["report", "aggregate", "--input-dir", str(runs)],
         cli.EXIT_OK, {"numpy", "eigennoise.mdl"},
         probe_stack - {"eigennoise.mdl"} | datasets),
    )
    for argv, code, loads, skips in commands:
        proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "eigennoise.cli",
                               *argv], env=_cli_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == code, proc.stderr
        loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                  if line.startswith("import time:")}
        assert loads <= loaded, argv
        assert not loaded & skips, argv


@needs_openblas
@pytest.mark.parametrize("ambient, at_load", [(None, 1), ("2", 2)])
def test_cli_loads_numpy_without_a_blas_pool(tmp_path, ambient, at_load):
    # OpenBLAS sizes its thread pool when numpy loads: unless the user set
    # OPENBLAS_NUM_THREADS, the CLI loads it with one thread, and it puts
    # the environment back either way. The count is read right after the
    # CLI's first load of numpy, which importing the CLI does not do.
    script = (
        "import os, sys\n"
        "before = dict(os.environ)\n"
        "from eigennoise import cli\n"
        "assert 'numpy' not in sys.modules\n"
        "load, at_load, seen = cli._load_numpy, [], []\n"
        "def threads():\n"
        "    return cli._bundled_openblas().scipy_openblas_get_num_threads64_()\n"
        "def load_and_count():\n"
        "    first = 'numpy' not in sys.modules\n"
        "    numpy = load()\n"
        "    if first:\n"
        "        at_load.append(threads())\n"
        "    return numpy\n"
        "cli._load_numpy = load_and_count\n"
        "cli.cmd_embed_random = lambda args: seen.append(threads()) or cli.EXIT_OK\n"
        f"rc = cli.main(['embed', 'random', '--n', '5', '--d', '2', '--output', "
        f"{str(tmp_path / 'x.txt')!r}])\n"
        "print(at_load, seen, rc, os.environ == before)\n"
    )
    env = _cli_env() if ambient is None else _cli_env(OPENBLAS_NUM_THREADS=ambient)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"[{at_load}]", "[1]", "0", "True"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB and carried across exec on Linux")
def test_embed_eigennoise_peak_rss_grows_by_about_one_table(tmp_path):
    # Linux carries ru_maxrss across exec, so each command runs as the
    # grandchild of a small parent rather than as a child of pytest,
    # whose RSS it would start from
    n, d = 20000, 50
    script = (
        "import os, sys\n"
        "for size in sys.argv[1:]:\n"
        "    pid = os.fork()\n"
        "    if pid == 0:\n"
        "        try:\n"
        "            os.execv(sys.executable, [sys.executable, '-m', 'eigennoise.cli',\n"
        "                     'embed', 'eigennoise', '--n', size, '--d', '50',\n"
        "                     '--output', 'table-' + size + '.txt'])\n"
        "        finally:\n"
        "            os._exit(127)\n"
        "    _, status, usage = os.wait4(pid, 0)\n"
        "    print('maxrss', os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, str(n), "1000"], cwd=tmp_path,
                          env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    (rc_big, kib_big), (rc_small, kib_small) = (
        map(int, line.split()[1:]) for line in proc.stdout.splitlines()
        if line.startswith("maxrss "))
    assert rc_big == rc_small == 0
    # the factor is the table (N d 8 bytes), and the completion's one
    # GS_BLOCK x N buffer adds 0.32 of that at d=50; a second table-sized
    # array would exceed the bound
    assert (kib_big - kib_small) * 1024 < 1.5 * n * d * 8


def test_embed_export_failure_leaves_no_output(tmp_path, monkeypatch, capsys):
    # the second of four chunks fails as a full disk would: the file, with
    # the first chunk in it, is removed
    format_rows, calls = embeddings._format_rows, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise OSError(28, "No space left on device")
        return format_rows(*args)

    monkeypatch.setattr(embeddings, "_format_rows", failing)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "x.txt"
    assert _run("embed", "random", "--n", "2000", "--d", "4",
                "--output", str(out)) == cli.EXIT_DATA
    assert len(calls) == 2
    assert capsys.readouterr().err == f"data error: {out}: [Errno 28] No space left on device\n"
    assert list(out_dir.iterdir()) == []
