import numpy as np
import pytest

from eigennoise import cli, datasets, matrix, probe, vocab


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


def test_build_context_slices_each_window_from_one_featurization(tmp_path, monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=4))
    for split, n in (("train", 60), ("dev", 20), ("test", 20)):
        lengths = rng.integers(1, 14, n)
        ds = datasets.TokenDataset(
            sentences=tuple(tuple(f"t{i}" for i in rng.zipf(1.5, k) % 90) for k in lengths),
            labels=tuple(tuple(rng.choice(["A", "B", "C"], k)) for k in lengths),
            label_set=("A", "B", "C"), split=split)
        datasets.write_conll(ds, tmp_path / f"task.{split}")
    args = _parse("--task", "conll", "--train", str(tmp_path / "task.train"),
                  "--label-column", "1", "--windows", "0,2,5,10",
                  "--representations", "random", "--d", "4",
                  "--output-dir", str(tmp_path / "out"))
    featurized = []
    window_data = probe.token_window_data

    def spy(ds, voc, m):
        featurized.append((ds.split, m))
        return window_data(ds, voc, m)

    monkeypatch.setattr(probe, "token_window_data", spy)
    with cli._one_blas_thread():
        ctx = matrix.build_context(args)
    assert featurized == [("train", 10), ("dev", 10), ("test", 10)]
    label_set = datasets.parse_conll(tmp_path / "task.train", 0, 1).label_set
    for split, data in (("train", ctx.train_data), ("dev", ctx.dev_data),
                        ("test", ctx.test_data)):
        ds = datasets.apply_label_set(
            datasets.parse_conll(tmp_path / f"task.{split}", 0, 1, split), label_set)
        assert sorted(data) == [0, 2, 5, 10]
        for w in (0, 2, 5, 10):
            direct = window_data(ds, ctx.vocab, w)
            np.testing.assert_array_equal(data[w].indices, direct.indices)
            np.testing.assert_array_equal(data[w].labels, direct.labels)
            assert (data[w].pooling, data[w].num_classes) == ("concat", 3)
        assert all(data[w].labels is data[10].labels for w in data)


@pytest.mark.parametrize("task", ["synthetic", "tsv", "conll"])
def test_dimension_above_vocabulary_fails_before_featurizing(tmp_path, monkeypatch,
                                                             capsys, task):
    calls = []
    for name in ("token_window_data", "sequence_data", "synthetic_token_data"):
        monkeypatch.setattr(probe, name, lambda *a, name=name: calls.append(name))
    train = tmp_path / "task.train"
    if task == "tsv":
        train.write_text("pos\tgood day\nneg\tbad day\n", encoding="utf-8")
    else:
        train.write_text("EU NNP\nrejects VBZ\n\nGerman JJ\nEU NNP\n", encoding="utf-8")
    task_args = {"synthetic": ["--n", "40"], "tsv": ["--train", str(train)],
                 "conll": ["--train", str(train), "--label-column", "1"]}[task]
    if task == "synthetic":  # the training split that probe run draws
        args = _parse("--task", "synthetic", "--n", "40", "--output-dir", "out")
        train_ds = datasets.synth_task(args.kind, 40, 500, k=args.classes,
                                       seed=args.data_seed)
        n = vocab.build_vocab(datasets.dataset_tokens(train_ds)).size
    else:
        n = 3  # EU, rejects, German; or good, day, bad
    code = cli.main(["probe", "run", "--task", task, *task_args, "--d", "500",
                     "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA == 2
    assert capsys.readouterr().err == (
        f"data error: embedding dimension 500 exceeds vocabulary size {n}\n")
    assert calls == []
