from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigennoise import cli, datasets, matrix, mdl, probe, vocab

FIXTURES = Path(__file__).parent / "fixtures"


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


def test_frozen_fits_share_the_table_and_unfrozen_fits_copy_it(tmp_path, monkeypatch):
    glove = FIXTURES / "tiny.glove.txt"
    args = _parse("--task", "conll", "--train", str(FIXTURES / "tiny.conll.train"),
                  "--windows", "0,2", "--d", "4", "--hidden", "8", "--max-epochs", "2",
                  "--seeds", "0", "--representations", f"eigennoise,import:{glove}",
                  "--output-dir", str(tmp_path))
    fits = []
    train_probe = probe.train_probe

    def spy_train(train, dev, config, table=None):
        fits.append((train, table))
        return train_probe(train, dev, config, table=table)

    monkeypatch.setattr(probe, "train_probe", spy_train)
    with cli._one_blas_thread():
        ctx = matrix.build_context(args)
        before = {rep: table.rows.copy() for rep, table in ctx.tables.items()}
        for cell in matrix.matrix_cells(args):
            start = len(fits)
            assert matrix.run_cell(cell, ctx).error is None
            shared = ctx.tables[cell.representation]
            for train, table in fits[start:]:
                assert train.indices is not None and train.lengths is None  # concat
                if cell.frozen:
                    assert table is shared
                else:
                    assert table.trainable and not np.shares_memory(table.rows, shared.rows)
    unfrozen = [table for _, table in fits if table.trainable]
    assert len(fits) > len(unfrozen) > 0
    assert len({id(table.rows) for table in unfrozen}) == len(unfrozen)
    for rep, table in ctx.tables.items():
        assert not table.trainable
        assert np.array_equal(table.rows, before[rep])


def _frozen_desk(tmp_path):
    """A small frozen synthetic (mean-pooled) task and its context."""
    args = _parse("--task", "synthetic", "--n", "300", "--d", "8", "--hidden", "16",
                  "--max-epochs", "3", "--seeds", "0", "--frozen", "true",
                  "--output-dir", str(tmp_path))
    with cli._one_blas_thread():
        return matrix.build_context(args)


@pytest.mark.parametrize("rep", ["eigennoise", "random"])
def test_pooled_features_match_the_per_batch_gather(tmp_path, rep):
    ctx = _frozen_desk(tmp_path)
    cell = matrix.CellSpec(representation=rep, window=None, frozen=True, seed=0)
    base = matrix._cell_table(cell, ctx)
    size = ctx.config_base.batch_size
    for split in (ctx.train_data, ctx.dev_data, ctx.test_data):
        data = split[None]
        pooled = matrix._pooled(data, base)
        assert pooled.indices is None
        assert pooled.features.dtype == np.float32
        assert np.array_equal(pooled.labels, data.labels)
        # the batches of a seeded training epoch
        perm = np.random.Generator(np.random.Philox(key=cell.seed)).permutation(len(data))
        for start in range(0, len(perm), size):
            sel = perm[start:start + size]
            assert np.array_equal(pooled.features[sel],
                                  probe.gather_features(data.subset(sel), base))
        assert np.array_equal(pooled.features, probe.gather_features(data, base))


def test_frozen_mean_cell_pools_each_split_once(tmp_path, monkeypatch):
    ctx = _frozen_desk(tmp_path)
    cell = matrix.CellSpec(representation="eigennoise", window=None, frozen=True, seed=0)
    gathered, fits = [], []
    gather, train_probe = probe.gather_features, probe.train_probe

    def spy_gather(data, table):
        if data.indices is not None:
            gathered.append(data)
        return gather(data, table)

    def spy_train(train, dev, config, table=None):
        model, trace = train_probe(train, dev, config, table=table)
        fits.append((train, dev, table, model))
        return model, trace

    monkeypatch.setattr(probe, "gather_features", spy_gather)
    monkeypatch.setattr(probe, "train_probe", spy_train)
    result = matrix.run_cell(cell, ctx)
    assert result.error is None
    splits = (ctx.train_data[None], ctx.dev_data[None], ctx.test_data[None])
    assert [id(data) for data in gathered] == [id(data) for data in splits]
    # one fit per codelength stage after the first, and the accuracy fit
    assert len(fits) == len(ctx.schedule.boundaries)
    for train, dev, table, model in fits:
        assert table is None
        assert train.indices is dev.indices is None
        assert train.features.dtype == dev.features.dtype == np.float32
        assert model.w1.dtype == model.w2.dtype == np.float32


def test_frozen_mean_cell_scores_as_if_trained_on_the_table(tmp_path):
    ctx = _frozen_desk(tmp_path)
    cell = matrix.CellSpec(representation="random", window=None, frozen=True, seed=0)
    with cli._one_blas_thread():
        result = matrix.run_cell(cell, ctx)
        base = matrix._cell_table(cell, ctx)
        config = replace(ctx.config_base, seed=cell.seed)
        train, dev, test = ctx.train_data[None], ctx.dev_data[None], ctx.test_data[None]

        def fit(fit_train, fit_dev, cfg):
            table = base.copy(trainable=False)
            return probe.train_probe(fit_train, fit_dev, cfg, table=table)[0]

        def fit_predict(prefix, stage_dev, cfg):
            model = fit(prefix, stage_dev, cfg)
            return lambda batch: probe.predict_proba(model, batch)

        report = mdl.online_codelength(train, ctx.schedule, fit_predict, config, dev=dev)
        accuracy = probe.evaluate_accuracy(fit(train, dev, config), test)
    assert result.error is None
    assert result.report == report
    assert result.accuracy == accuracy


def test_synthetic_task_does_not_depend_on_d(tmp_path):
    contexts = []
    for d in ("2", "8"):
        args = _parse("--task", "synthetic", "--n", "60", "--d", d, "--seeds", "0",
                      "--representations", "random", "--output-dir", str(tmp_path))
        contexts.append(matrix.build_context(args))
    narrow, wide = contexts
    assert (narrow.d, wide.d) == (2, 8)
    for split in ("train_data", "dev_data", "test_data"):
        a, b = getattr(narrow, split)[None], getattr(wide, split)[None]
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.lengths, b.lengths)
        assert np.array_equal(a.labels, b.labels)


def test_build_context_slices_each_window_from_one_featurization(tmp_path, monkeypatch):
    rng = np.random.Generator(np.random.Philox(key=4))
    for split, n in (("train", 60), ("dev", 20), ("test", 20)):
        lengths = rng.integers(1, 14, n)
        ds = datasets.TokenDataset(
            sentences=tuple(tuple(f"t{i}" for i in rng.zipf(1.5, k) % 90) for k in lengths),
            labels=tuple(tuple(rng.choice(["A", "B", "C"], k)) for k in lengths),
            label_set=("A", "B", "C"))
        datasets.write_conll(ds, tmp_path / f"task.{split}")
    args = _parse("--task", "conll", "--train", str(tmp_path / "task.train"),
                  "--label-column", "1", "--windows", "0,2,5,10",
                  "--representations", "random", "--d", "4",
                  "--output-dir", str(tmp_path / "out"))
    featurized = []
    window_data = probe.token_window_data

    def spy(ds, voc, m):
        featurized.append((len(ds.sentences), m))
        return window_data(ds, voc, m)

    monkeypatch.setattr(probe, "token_window_data", spy)
    with cli._one_blas_thread():
        ctx = matrix.build_context(args)
    assert featurized == [(60, 10), (20, 10), (20, 10)]
    label_set = datasets.parse_conll(tmp_path / "task.train", 0, 1).label_set
    for split, data in (("train", ctx.train_data), ("dev", ctx.dev_data),
                        ("test", ctx.test_data)):
        ds = replace(datasets.parse_conll(tmp_path / f"task.{split}", 0, 1),
                     label_set=label_set)
        assert sorted(data) == [0, 2, 5, 10]
        for w in (0, 2, 5, 10):
            direct = window_data(ds, ctx.vocab, w)
            np.testing.assert_array_equal(data[w].indices, direct.indices)
            np.testing.assert_array_equal(data[w].labels, direct.labels)
            assert data[w].lengths is None and data[w].num_classes == 3
        assert all(data[w].labels is data[10].labels for w in data)


@pytest.mark.parametrize("task", ["synthetic", "tsv", "conll"])
def test_dimension_above_vocabulary_fails_before_featurizing(tmp_path, monkeypatch,
                                                             capsys, task):
    calls = []
    for name in ("token_window_data", "sequence_data"):
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
        train_ds = datasets.synth_task(args.kind, 40, k=args.classes,
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
