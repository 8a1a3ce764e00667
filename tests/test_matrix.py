import signal
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
        pooled = probe.ProbeData(labels=data.labels, num_classes=data.num_classes,
                                 features=probe.gather_features(data, base))
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
    # each fit pools its own train and dev splits through the shared table
    # once, then trains on features
    ctx = _frozen_desk()
    cell = matrix.CellSpec(representation="eigennoise", window=None, frozen=True, seed=0)
    shared = ctx.tables["eigennoise", 0]
    gathered, steps, fits = [], [], []
    gather, backward, train_probe = probe.gather_features, probe.backward, probe.train_probe

    def spy_gather(data, table):
        if data.indices is not None:
            gathered.append((data, table))
        return gather(data, table)

    def spy_backward(model, h, labels, indices=None, lengths=None):
        steps.append((h.dtype, indices))
        return backward(model, h, labels, indices=indices, lengths=lengths)

    def spy_train(train, dev, config, table=None):
        start, first_step = len(gathered), len(steps)
        model, trace = train_probe(train, dev, config, table=table)
        fits.append((train, dev, table, model, gathered[start:], steps[first_step:]))
        return model, trace

    monkeypatch.setattr(probe, "gather_features", spy_gather)
    monkeypatch.setattr(probe, "backward", spy_backward)
    monkeypatch.setattr(probe, "train_probe", spy_train)
    result = matrix.run_cell(cell, ctx)
    assert result.error is None
    # one fit per codelength stage after the first, and the accuracy fit
    assert len(fits) == len(ctx.schedule.boundaries)
    for train, dev, table, model, fit_gathers, fit_steps in fits:
        assert table is shared and not table.trainable
        assert [(id(data), id(used)) for data, used in fit_gathers] == [
            (id(train), id(shared)), (id(dev), id(shared))]
        assert fit_steps and all(dtype == np.float32 and indices is None
                                 for dtype, indices in fit_steps)
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


@pytest.mark.parametrize("representations", [("eigennoise", "bogus"), ("bogus",)],
                         ids=["after-a-known-one", "alone"])
def test_run_spec_refuses_an_unknown_representation(representations):
    with pytest.raises(ValueError, match=r"^unknown representation 'bogus' \(expected "):
        replace(BASE, n=80, d=8, representations=representations)


# a small synthetic spec, and the probe run options that give it
SMALL = replace(BASE, n=40, d=2, hidden=4, max_epochs=2, seeds=(0,),
                representations=("random",), frozen=(True,))
SMALL_ARGV = ["--n", "40", "--d", "2", "--hidden", "4", "--max-epochs", "2", "--seeds", "0",
              "--representations", "random", "--frozen", "true"]
TINY_CONLL_ARGV = ["--task", "conll", "--train", TINY_CONLL["train"]]  # finds its test file


@pytest.mark.parametrize("fields, argv, message", [
    ({"windows": (2,)}, ["--task", "synthetic", "--windows", "2"],
     "--windows applies only to token (conll) tasks"),
    ({"lr": float("inf")}, ["--task", "synthetic", "--lr", "inf"],
     "--lr must be > 0 and finite, got inf"),
    ({"fractions": (50.0, 200.0)}, ["--task", "synthetic", "--fractions", "50,200"],
     "--fractions must be in (0, 100] with at least one below 100, got 50,200"),
    ({**TINY_CONLL, "windows": ()}, [*TINY_CONLL_ARGV, "--windows", ""],
     "token tasks need at least one window"),
], ids=["synthetic-window", "infinite-lr", "fraction-above-100", "conll-without-windows"])
def test_run_spec_refuses_what_probe_run_refuses(tmp_path, capsys, monkeypatch, fields,
                                                 argv, message):
    read = []

    def spy(spec):
        read.append(spec)
        raise AssertionError("the task was read")

    monkeypatch.setattr(matrix, "build_context", spy)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as refused:
        matrix.run(replace(SMALL, **fields), out, 1)
    assert str(refused.value) == message
    assert read == [] and not out.exists()
    # the same text as the CLI's usage error for the same settings
    capsys.readouterr()
    assert cli.main(["probe", "run", *SMALL_ARGV, *argv,
                     "--output-dir", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert read == [] and not out.exists()


def _choice_fault(option, value, choices):
    return (f"argument {option}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})")


# a library spec's faulty values, each refused with the CLI's text
LIBRARY_FAULTS = [
    ({"task": "bogus"}, _choice_fault("--task", "bogus", ("synthetic", "tsv", "conll"))),
    ({"classes": 1}, "--classes must be >= 2, got 1"),
    ({"case_fold": "maybe"}, _choice_fault("--case-fold", "maybe", ("auto", "on", "off"))),
    ({"token_column": -1}, "--token-column must be >= 0, got -1"),
    ({"frozen": ()}, "need at least one frozen setting"),
    ({"mode": "cubic"}, _choice_fault("--mode", "cubic", ("linear", "log"))),
    ({"d": 0}, "--d must be >= 1, got 0"),
    ({"seeds": (2**128,)}, f"--seeds must be < 2**128, got {2**128}"),
    ({"kind": "bogus"}, _choice_fault("--kind", "bogus", ("separable", "noisy"))),
    ({"n": 0}, "--n must be >= 1, got 0"),
    ({"m": 0}, "--m must be >= 1, got 0"),
    ({"vocab_cap": 0}, "--vocab-cap must be >= 1, got 0"),
    ({"hidden": 0}, "--hidden must be >= 1, got 0"),
    ({"batch_size": 0}, "--batch-size must be >= 1, got 0"),
    ({"max_epochs": 0}, "--max-epochs must be >= 1, got 0"),
    ({"patience": 0}, "--patience must be >= 1, got 0"),
    ({"data_seed": -1}, "--data-seed must be >= 0, got -1"),
    ({"label_column": -1}, "--label-column must be >= 0, got -1"),
    ({"completion_seed": -1}, "--completion-seed must be >= 0, got -1"),
]


@pytest.mark.parametrize("fields, message", LIBRARY_FAULTS,
                         ids=[next(iter(fields)) for fields, _ in LIBRARY_FAULTS])
def test_run_spec_refuses_each_value_that_the_parser_refuses(monkeypatch, fields, message):
    read = []
    for name in ("read_split", "synth_task"):
        monkeypatch.setattr(datasets, name, lambda *a, name=name, **k: read.append(name))
    with pytest.raises(ValueError) as refused:
        matrix.RunSpec(**{**vars(SMALL), **fields})
    assert str(refused.value) == message
    assert read == []


# every spec field with a choice or a least value, with a value that breaks
# the rule as the spec and as probe run's argv take it
SPEC_OPTION_FAULTS = [fault for fault in (
    *((name, "bogus", "bogus") for name in defaults.CHOICES),
    *((name, (least - 1,) if name == "seeds" else least - 1, str(least - 1))
      for name, least in defaults.MINIMUM.items()),
    *((name, (2**128,) if name == "seeds" else 2**128, str(2**128))
      for name in defaults.PHILOX_KEYS),
) if fault[0] in vars(SMALL)]


@pytest.mark.parametrize("name, value, argv_value", SPEC_OPTION_FAULTS, ids=[
    f"{name}={argv_value.replace(str(2**128), '2**128')}"
    for name, _, argv_value in SPEC_OPTION_FAULTS])
def test_run_spec_and_probe_run_give_one_text_for_a_faulty_value(tmp_path, capsys, name,
                                                                 value, argv_value):
    with pytest.raises(ValueError) as refused:
        replace(SMALL, **{name: value})
    out = tmp_path / "out"
    capsys.readouterr()
    assert cli.main(["probe", "run", "--task", "synthetic", f"--{name.replace('_', '-')}="
                     f"{argv_value}", "--output-dir", str(out)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {refused.value}\n"
    assert not out.exists()


def test_run_refuses_no_workers_before_touching_a_file(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "cells.json").write_text("an earlier run\n", encoding="utf-8")

    def hung(signum, frame):
        raise TimeoutError("matrix.run did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with pytest.raises(ValueError) as refused:
            matrix.run(SMALL, out, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert str(refused.value) == "--workers must be >= 1, got 0"
    assert [path.name for path in out.iterdir()] == ["cells.json"]
    assert (out / "cells.json").read_text(encoding="utf-8") == "an earlier run\n"


def test_run_spec_drops_repeated_values():
    spec = replace(BASE, **TINY_CONLL, representations=("random", "eigennoise", "random"),
                   windows=(2, 0, 2, 0), frozen=(False, True, False), seeds=(5, 0, 5, 5))
    assert (spec.representations, spec.windows, spec.frozen, spec.seeds) == (
        ("random", "eigennoise"), (2, 0), (False, True), (5, 0))
    assert spec == replace(BASE, **TINY_CONLL, representations=("random", "eigennoise"),
                           windows=(2, 0), frozen=(False, True), seeds=(5, 0))


def test_a_library_run_scores_a_repeated_seed_once(tmp_path, capsys):
    with cli._one_blas_thread():
        records = matrix.run(replace(SMALL, seeds=(0, 0)), tmp_path / "run", 1)
    assert [(rec["seed"], rec["error"]) for rec in records] == [(0, None)]
    capsys.readouterr()
    assert cli.main(["report", "aggregate", "--input-dir", str(tmp_path)]) == cli.EXIT_OK


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
