from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigennoise import cli, datasets, defaults, embeddings, matrix, mdl, probe, vocab

FIXTURES = Path(__file__).parent / "fixtures"

# the spec of `probe run --task synthetic` with every default
BASE = matrix.RunSpec(
    task="synthetic", kind="separable", n=2000, classes=2, data_seed=7, train=None,
    dev=None, test=None, token_column=0, label_column=3,
    representations=("eigennoise", "random"), windows=(), frozen=(True, False),
    seeds=(0, 1234, 322111), d=50, m=defaults.DEFAULT_WINDOW, mode="linear",
    completion_seed=0, vocab_cap=defaults.DEFAULT_MAX_SIZE, case_fold="auto",
    hidden=defaults.DEFAULT_HIDDEN, lr=defaults.DEFAULT_LR,
    batch_size=defaults.DEFAULT_BATCH_SIZE, max_epochs=defaults.DEFAULT_MAX_EPOCHS,
    patience=defaults.DEFAULT_PATIENCE, fractions=defaults.DEFAULT_FRACTIONS)
TINY_CONLL = {"task": "conll", "train": str(FIXTURES / "tiny.conll.train"),
              "test": str(FIXTURES / "tiny.conll.test")}  # its sibling test file


def test_cells_never_write_to_shared_table():
    spec = replace(BASE, n=80, d=8, hidden=16, max_epochs=4, seeds=(0,),
                   representations=("eigennoise",))
    with cli._one_blas_thread():
        ctx = matrix.build_context(spec)
        shared = ctx.tables["eigennoise", 0]
        before = shared.rows.copy()
        results = [matrix.run_cell(cell, ctx) for cell in matrix.matrix_cells(spec)]
    assert sorted(res.cell.frozen for res in results) == [False, True]
    assert all(res.error is None for res in results)
    assert np.array_equal(shared.rows, before)
    assert not shared.trainable


def test_frozen_fits_share_the_table_and_unfrozen_fits_copy_it(monkeypatch):
    glove = FIXTURES / "tiny.glove.txt"
    spec = replace(BASE, **TINY_CONLL, windows=(0, 2), d=4, hidden=8, max_epochs=2,
                   seeds=(0,), representations=("eigennoise", f"import:{glove}"))
    fits = []
    train_probe = probe.train_probe

    def spy_train(train, dev, config, table=None):
        fits.append((train, table))
        return train_probe(train, dev, config, table=table)

    monkeypatch.setattr(probe, "train_probe", spy_train)
    with cli._one_blas_thread():
        ctx = matrix.build_context(spec)
        before = {key: table.rows.copy() for key, table in ctx.tables.items()}
        for cell in matrix.matrix_cells(spec):
            start = len(fits)
            assert matrix.run_cell(cell, ctx).error is None
            shared = ctx.tables[cell.representation, cell.seed]
            for train, table in fits[start:]:
                assert train.indices is not None and train.lengths is None  # concat
                if cell.frozen:
                    assert table is shared
                else:
                    assert table.trainable and not np.shares_memory(table.rows, shared.rows)
    unfrozen = [table for _, table in fits if table.trainable]
    assert len(fits) > len(unfrozen) > 0
    assert len({id(table.rows) for table in unfrozen}) == len(unfrozen)
    for key, table in ctx.tables.items():
        assert not table.trainable
        assert np.array_equal(table.rows, before[key])


def test_each_seed_draws_one_random_table_that_its_cells_start_from(monkeypatch):
    spec = replace(BASE, **TINY_CONLL, windows=(0, 2), seeds=(0, 1), d=4, hidden=8,
                   max_epochs=2, fractions=(50.0, 100.0))
    draws, fits = [], []
    random_table, train_probe = embeddings.random_table, probe.train_probe

    def spy_draw(n, d, seed):
        draws.append(seed)
        return random_table(n, d, seed)

    def spy_train(train, dev, config, table=None):
        fits.append((table, table.rows.copy()))
        return train_probe(train, dev, config, table=table)

    monkeypatch.setattr(embeddings, "random_table", spy_draw)
    monkeypatch.setattr(probe, "train_probe", spy_train)
    with cli._one_blas_thread():
        ctx = matrix.build_context(spec)
        assert draws == [0, 1]  # not one draw per cell: 8 random cells
        assert ctx.tables["eigennoise", 0] is ctx.tables["eigennoise", 1]
        assert ctx.tables["random", 0] is not ctx.tables["random", 1]
        before = {key: table.rows.copy() for key, table in ctx.tables.items()}
        for cell in matrix.matrix_cells(spec):
            start = len(fits)
            assert matrix.run_cell(cell, ctx).error is None
            shared = ctx.tables[cell.representation, cell.seed]
            for table, rows in fits[start:]:
                # a frozen fit reads the table itself, an unfrozen one a copy of it
                assert (table is shared) == cell.frozen
                assert rows.tobytes() == before[cell.representation, cell.seed].tobytes()
    assert draws == [0, 1] and len(fits) > 16
    for key, table in ctx.tables.items():
        assert table.rows.tobytes() == before[key].tobytes()


def _frozen_desk():
    """A small frozen synthetic (mean-pooled) task and its context."""
    spec = replace(BASE, n=300, d=8, hidden=16, max_epochs=3, seeds=(0,), frozen=(True,))
    with cli._one_blas_thread():
        return matrix.build_context(spec)


@pytest.mark.parametrize("rep", ["eigennoise", "random"])
def test_pooled_features_match_the_per_batch_gather(rep):
    ctx = _frozen_desk()
    cell = matrix.CellSpec(representation=rep, window=None, frozen=True, seed=0)
    base = ctx.tables[rep, 0]
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


def test_frozen_mean_cell_pools_each_split_once(monkeypatch):
    ctx = _frozen_desk()
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


def test_frozen_mean_cell_scores_as_if_trained_on_the_table():
    ctx = _frozen_desk()
    cell = matrix.CellSpec(representation="random", window=None, frozen=True, seed=0)
    with cli._one_blas_thread():
        result = matrix.run_cell(cell, ctx)
        base = ctx.tables["random", 0]
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


def test_synthetic_task_does_not_depend_on_d():
    narrow, wide = (matrix.build_context(replace(BASE, n=60, d=d, seeds=(0,),
                                                 representations=("random",)))
                    for d in (2, 8))
    assert (narrow.tables["random", 0].d, wide.tables["random", 0].d) == (2, 8)
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
            tokens=tuple(tuple(f"t{i}" for i in rng.zipf(1.5, k) % 90) for k in lengths),
            labels=tuple(tuple(rng.choice(["A", "B", "C"], k)) for k in lengths),
            label_set=("A", "B", "C"))
        datasets.write_conll(ds, tmp_path / f"task.{split}")
    spec = replace(BASE, task="conll", train=str(tmp_path / "task.train"),
                   dev=str(tmp_path / "task.dev"), test=str(tmp_path / "task.test"),
                   label_column=1, windows=(0, 2, 5, 10), representations=("random",), d=4)
    featurized = []
    window_data = probe.token_window_data

    def spy(ds, voc, m):
        featurized.append((len(ds.tokens), m))
        return window_data(ds, voc, m)

    monkeypatch.setattr(probe, "token_window_data", spy)
    with cli._one_blas_thread():
        ctx = matrix.build_context(spec)
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
        train_ds = datasets.synth_task(BASE.kind, 40, k=BASE.classes, seed=BASE.data_seed)
        n = vocab.build_vocab(t for text in train_ds.tokens for t in text).size
    else:
        n = 3  # EU, rejects, German; or good, day, bad
    code = cli.main(["probe", "run", "--task", task, *task_args, "--d", "500",
                     "--output-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_DATA == 2
    assert capsys.readouterr().err == (
        f"data error: embedding dimension 500 exceeds vocabulary size {n}\n")
    assert calls == []
