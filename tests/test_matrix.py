import numpy as np

from eigennoise import cli, matrix


def _parse(*argv):
    return cli.build_parser().parse_args(["probe", "run", *argv])


def test_discover_missing_splits(tmp_path):
    for name in ("task.train", "task.dev", "task.test", "other.dev"):
        (tmp_path / name).write_text("x O\n", encoding="utf-8")
    train = str(tmp_path / "task.train")

    args = _parse("--task", "conll", "--train", train, "--output-dir", "out")
    matrix._discover_missing_splits(args)
    assert (args.dev, args.test) == (str(tmp_path / "task.dev"), str(tmp_path / "task.test"))

    explicit = str(tmp_path / "other.dev")
    args = _parse("--task", "conll", "--train", train, "--dev", explicit,
                  "--output-dir", "out")
    matrix._discover_missing_splits(args)
    assert (args.dev, args.test) == (explicit, str(tmp_path / "task.test"))

    # without the .train suffix there is no prefix to look beside
    args = _parse("--task", "conll", "--train", str(tmp_path / "task.dev"),
                  "--output-dir", "out")
    matrix._discover_missing_splits(args)
    assert (args.dev, args.test) == (None, None)


def test_cells_never_write_to_shared_table(tmp_path):
    args = _parse("--task", "synthetic", "--n", "80", "--d", "8", "--hidden", "16",
                  "--max-epochs", "4", "--seeds", "0", "--representations", "eigennoise",
                  "--output-dir", str(tmp_path))
    with cli._one_blas_thread():
        ctx = matrix.build_context(args)
        shared = ctx.tables["eigennoise"]
        before = shared.rows.copy()
        results = [matrix.run_cell(cell, ctx) for cell in matrix.matrix_cells(args)]
    assert sorted(res.cell.frozen for res in results) == [False, True]
    assert all(res.error is None for res in results)
    assert np.array_equal(shared.rows, before)
    assert not shared.trainable
