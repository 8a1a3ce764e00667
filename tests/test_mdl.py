import math
from dataclasses import replace

import numpy as np
import pytest

from eigennoise.datasets import synth_task
from eigennoise.embeddings import random_table
from eigennoise.mdl import (
    PROB_CLAMP,
    BlockSchedule,
    aggregate,
    format_report,
    holdout,
    make_schedule,
    online_codelength,
    write_report,
)
from eigennoise.probe import (
    ProbeData,
    TrainConfig,
    predict_proba,
    train_probe,
)


def _random_binary_data(n, seed=0, dim=3):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return ProbeData(labels=rng.integers(0, 2, size=n), num_classes=2,
                     features=rng.standard_normal((n, dim)))


def _uniform_fit_predict(train, dev, config):
    k = train.num_classes
    return lambda batch: np.full((len(batch), k), 1.0 / k)


def _oracle_fit_predict(train, dev, config):
    return lambda batch: np.eye(batch.num_classes)[batch.labels]


def test_make_schedule_paper_fractions():
    schedule = make_schedule(1000)
    assert schedule.boundaries == (1, 2, 4, 8, 16, 32, 63, 125, 250, 500, 1000)


def test_make_schedule_simple_fractions():
    assert make_schedule(10, (50, 100)).boundaries == (5, 10)


def test_make_schedule_dedups_tiny_n():
    schedule = make_schedule(3)
    assert schedule.boundaries == (1, 2, 3)
    assert all(b > a for a, b in zip(schedule.boundaries, schedule.boundaries[1:]))


def test_make_schedule_appends_final_boundary():
    assert make_schedule(10, (30,)).boundaries == (3, 10)


def test_make_schedule_too_small():
    with pytest.raises(ValueError, match="fewer than 2"):
        make_schedule(1)
    with pytest.raises(ValueError):
        make_schedule(0)


def test_block_schedule_validation():
    with pytest.raises(ValueError):
        BlockSchedule(boundaries=(2, 2, 3))
    with pytest.raises(ValueError):
        BlockSchedule(boundaries=(0, 3))


def test_uniform_probe_costs_one_bit_per_example():
    data = _random_binary_data(100)
    schedule = make_schedule(100)
    report = online_codelength(data, schedule, _uniform_fit_predict, TrainConfig(seed=0))
    assert report.total_bits == pytest.approx(100.0, abs=1e-9)
    assert report.block_bits[0] == pytest.approx(1.0)  # t1 = 1, log2(2) = 1
    assert report.uniform_baseline_bits == pytest.approx(100.0)
    assert report.clamp_count == 0


def test_perfect_oracle_only_pays_the_uniform_block():
    data = _random_binary_data(200, seed=3)
    schedule = make_schedule(200)
    report = online_codelength(data, schedule, _oracle_fit_predict, TrainConfig(seed=0))
    t1 = schedule.boundaries[0]
    assert report.total_bits == pytest.approx(t1 * math.log2(2.0), abs=1e-12)
    assert all(b == 0.0 for b in report.block_bits[1:])


def test_zero_probability_is_clamped_and_counted():
    data = _random_binary_data(10, seed=1)
    schedule = make_schedule(10, (10, 100))

    def adversarial(train, dev, config):
        def predict(batch):
            probs = np.zeros((len(batch), 2))
            probs[:, :] = [1.0, 0.0]
            # claim the true label is impossible
            probs[np.arange(len(batch)), batch.labels] = 0.0
            return probs
        return predict

    report = online_codelength(data, schedule, adversarial, TrainConfig(seed=0))
    n_scored = 10 - schedule.boundaries[0]
    assert report.clamp_count == n_scored
    assert report.total_bits == pytest.approx(
        schedule.boundaries[0] + 64.0 * n_scored)
    assert math.isfinite(report.total_bits)
    assert PROB_CLAMP == 2.0**-64


def test_online_codelength_deterministic():
    data = _random_binary_data(60, seed=5)
    schedule = make_schedule(60)

    def probe_fit_predict(train, dev, config):
        model, _ = train_probe(train, dev, config)
        return lambda batch: predict_proba(model, batch)

    config = TrainConfig(seed=0, batch_size=8, max_epochs=5, hidden=8)
    r1 = online_codelength(data, schedule, probe_fit_predict, config)
    r2 = online_codelength(data, schedule, probe_fit_predict, config)
    assert r1 == r2
    r3 = online_codelength(data, schedule, probe_fit_predict,
                           TrainConfig(seed=1, batch_size=8, max_epochs=5, hidden=8))
    assert r1.block_bits != r3.block_bits


def test_online_codelength_length_mismatch():
    data = _random_binary_data(50)
    with pytest.raises(ValueError, match="schedule"):
        online_codelength(data, make_schedule(60), _uniform_fit_predict,
                          TrainConfig(seed=0))


def test_blocks_partition_the_stream():
    data = _random_binary_data(100, seed=2)
    schedule = make_schedule(100)
    seen = []

    def spy(train, dev, config):
        def predict(batch):
            seen.append(len(batch))
            return np.full((len(batch), 2), 0.5)
        return predict

    online_codelength(data, schedule, spy, TrainConfig(seed=0))
    bounds = schedule.boundaries
    assert seen == [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    assert sum(seen) + bounds[0] == 100


def test_monotone_data_benefit_on_separable_task():
    train_ds = synth_task("separable", 300, 4, k=2, seed=0)
    dev_ds = synth_task("separable", 60, 4, k=2, seed=0, split="dev")
    train, dev = (ProbeData(labels=ds.labels.astype(int), num_classes=2,
                            features=ds.features) for ds in (train_ds, dev_ds))
    schedule = make_schedule(300)

    def fit_predict(prefix, stage_dev, config):
        model, _ = train_probe(prefix, stage_dev, config)
        return lambda batch: predict_proba(model, batch)

    for seed in (0, 1234, 322111):
        config = TrainConfig(seed=seed, batch_size=32, max_epochs=20, hidden=16)
        report = online_codelength(train, schedule, fit_predict, config, dev=dev)
        bounds = report.boundaries
        per_example_block2 = report.block_bits[1] / (bounds[1] - bounds[0])
        per_example_last = report.block_bits[-1] / (bounds[-1] - bounds[-2])
        assert per_example_last < per_example_block2


def test_holdout_splits_a_seeded_tenth_unless_dev_is_given():
    prefix = ProbeData(labels=np.zeros(25, dtype=int), num_classes=2,
                       features=np.arange(25.0)[:, None])

    def ids(data):
        return data.features[:, 0].tolist()

    train, dev = holdout(prefix, None, seed=3, stage=1)
    assert (len(train), len(dev)) == (23, 2)
    assert sorted(ids(train) + ids(dev)) == ids(prefix)
    again = holdout(prefix, None, seed=3, stage=1)
    assert (ids(again[0]), ids(again[1])) == (ids(train), ids(dev))
    assert ids(holdout(prefix, None, seed=3, stage=2)[1]) != ids(dev)
    for n in (2, 9):  # at least one example each side
        train, dev = holdout(prefix.subset(slice(n)), None, seed=3, stage=1)
        assert (len(train), len(dev)) == (n - 1, 1)
    one = prefix.subset(slice(1))
    train, dev = holdout(one, None, seed=3, stage=1)
    assert train is one and dev is one
    given = prefix.subset(slice(4))
    train, dev = holdout(prefix, given, seed=3, stage=1)
    assert train is prefix and dev is given


def test_aggregate_mean_and_sample_std():
    assert aggregate([10.0, 10.0, 10.0]) == (10.0, 0.0)
    mean, std = aggregate([1.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(math.sqrt(2.0))
    assert aggregate([7.5]) == (7.5, 0.0)
    with pytest.raises(ValueError):
        aggregate([])


def test_format_report_structure(tmp_path):
    data = _random_binary_data(20, seed=4)
    schedule = make_schedule(20, (10, 50, 100))
    report = online_codelength(data, schedule, _uniform_fit_predict,
                               TrainConfig(seed=9))
    text = format_report(report)
    lines = text.splitlines()
    assert lines[0] == "block\tstart\tend\tbits\tclamps"
    assert len([l for l in lines if l[0].isdigit()]) == len(report.block_bits)
    assert any(l.startswith("total_bits\t") for l in lines)
    assert any(l.startswith("kilobits\t") for l in lines)
    assert any(l.startswith("kilobytes\t") for l in lines)
    assert any(l.startswith("uniform_bits\t20.000000") for l in lines)
    out = tmp_path / "report.txt"
    write_report(report, out)
    assert out.read_text(encoding="utf-8") == text
    assert report.kilobits == pytest.approx(report.total_bits / 1000.0)
    assert report.kilobytes == pytest.approx(report.total_bits / 8000.0)


def test_report_totals_are_block_sums():
    data = _random_binary_data(40, seed=6)
    report = online_codelength(data, make_schedule(40), _uniform_fit_predict,
                               TrainConfig(seed=2))
    assert report.total_bits == pytest.approx(sum(report.block_bits), abs=1e-9)
    assert all(b >= 0 for b in report.block_bits)


def test_float32_probe_codelength_matches_float64():
    """The single-precision probe moves a seeded token-task codelength by
    less than 1e-6 relative, frozen and unfrozen."""
    table = random_table(40, 6, seed=1)
    rng = np.random.Generator(np.random.Philox(key=3))
    indices = rng.integers(0, table.n, size=(400, 3))
    # the label is read off the middle row's vector, so the table predicts it
    labels = table.rows[indices[:, 1], :3].argmax(axis=1)
    data = ProbeData(labels=labels, num_classes=3, pooling="concat", indices=indices)
    config = TrainConfig(seed=0, batch_size=32, max_epochs=20, hidden=32)
    for frozen in (True, False):
        bits = {}
        for dtype in (np.float64, np.float32):
            base = replace(table, rows=table.rows.astype(dtype))

            def fit_predict(prefix, stage_dev, cfg):
                model, _ = train_probe(prefix, stage_dev, cfg,
                                       table=base.copy(trainable=not frozen))
                return lambda batch: predict_proba(model, batch)

            bits[dtype] = online_codelength(data, make_schedule(len(data)), fit_predict,
                                            config).total_bits
        assert bits[np.float64] < len(data) * math.log2(3)  # the probe learns
        assert bits[np.float32] == pytest.approx(bits[np.float64], rel=1e-6, abs=0)
