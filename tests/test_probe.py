import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigennoise.datasets import SequenceDataset, TokenDataset, synth_task
from eigennoise import probe
from eigennoise.embeddings import random_table
from eigennoise.probe import (
    AdamState,
    ProbeData,
    TrainConfig,
    adam_step,
    backward,
    evaluate_accuracy,
    evaluate_loss,
    gather_features,
    init_probe,
    predict_proba,
    sequence_data,
    token_window_data,
    train_probe,
)
from eigennoise.vocab import build_vocab


def _fd_grad(loss_fn, arr, eps=1e-5):
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + eps
        hi = loss_fn()
        arr[idx] = orig - eps
        lo = loss_fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


# --- featurization ----------------------------------------------------------


_VOCAB = build_vocab(list("abcde"))  # tied counts keep first occurrence: a=1 .. e=5


def _token_features(table, sentence, m):
    """Window features of every position of one sentence, as a probe sees them."""
    ds = TokenDataset(tokens=(tuple(sentence),), labels=(("O",) * len(sentence),),
                      label_set=("O",))
    return gather_features(token_window_data(ds, _VOCAB, m), table)


def test_featurize_token_m0_is_the_embedding():
    table = random_table(5, 4, seed=0)
    got = _token_features(table, "bc", m=0)[1]
    np.testing.assert_array_equal(got, table.rows[2])
    assert got.shape == (4,)


def test_featurize_token_window_width():
    table = random_table(5, 50, seed=0)
    got = _token_features(table, "abcde", m=2)[2]
    assert got.shape == (250,)


def test_featurize_token_pads_outside_sentence():
    table = random_table(5, 3, seed=1)
    got = _token_features(table, "abc", m=2)[0]
    np.testing.assert_array_equal(got[:6], np.zeros(6))
    np.testing.assert_array_equal(got[6:9], table.rows[0])


def test_featurize_sequence_mean():
    table = random_table(5, 3, seed=2)
    ds = SequenceDataset(tokens=(("d",), ("a", "b"), ("zz", "zz")), labels=("x", "x", "x"),
                         label_set=("x",))
    got = gather_features(sequence_data(ds, _VOCAB), table)
    np.testing.assert_array_equal(got[0], table.rows[3])
    np.testing.assert_allclose(got[1], (table.rows[0] + table.rows[1]) / 2.0)
    np.testing.assert_array_equal(got[2], np.zeros(3))  # out-of-vocabulary tokens


def _reference_row(vocab, token):
    """A token's table row, decided from the vocabulary's ranks alone."""
    rank = vocab.rank_by_token.get(token.lower() if vocab.case_folded else token)
    return vocab.size if rank is None else rank - 1


def _reference_windows(ds, vocab, m):
    """token_window_data's indices and labels, built position by position."""
    windows, labels = [], []
    for sent, labs in zip(ds.tokens, ds.labels):
        for pos, lab in enumerate(labs):
            windows.append([_reference_row(vocab, sent[p]) if 0 <= p < len(sent)
                            else vocab.size + 1 for p in range(pos - m, pos + m + 1)])
            labels.append(ds.label_set.index(lab))
    return np.array(windows, dtype=np.int32), np.array(labels, dtype=int)


def _reference_mean_indices(texts, vocab):
    """Mean-pooling indices and lengths, filled text by text."""
    lengths = [len(toks) for toks in texts]
    idx = np.full((len(texts), max(lengths)), vocab.size + 1, dtype=np.int32)
    for i, toks in enumerate(texts):
        idx[i, :len(toks)] = [_reference_row(vocab, t) for t in toks]
    return idx, np.array(lengths, dtype=int)


# sentences shorter than the window, of one token, with tokens outside the
# vocabulary ("zz"), and with case that a folded vocabulary ignores ("B", "C")
_EDGE_SENTENCES = (("a",), ("B", "zz"), ("c",), ("a", "b", "C", "d", "e", "zz", "a"), ("e",))


@pytest.mark.parametrize("case_fold", [False, True], ids=["cased", "folded"])
@pytest.mark.parametrize("m", [0, 1, 2, 5, 10])
def test_token_windows_match_a_per_position_loop(m, case_fold):
    vocab = build_vocab(list("abcdeab") + ["C"], case_fold=case_fold)
    labels = tuple(tuple("XY"[len(t) % 2] for t in sent) for sent in _EDGE_SENTENCES)
    ds = TokenDataset(tokens=_EDGE_SENTENCES, labels=labels, label_set=("Y", "X"))
    data = token_window_data(ds, vocab, m)
    windows, expected_labels = _reference_windows(ds, vocab, m)
    assert data.indices.dtype == windows.dtype and data.labels.dtype == expected_labels.dtype
    np.testing.assert_array_equal(data.indices, windows)
    np.testing.assert_array_equal(data.labels, expected_labels)
    assert data.lengths is None and data.num_classes == 2


@given(st.lists(st.lists(st.sampled_from(["a", "b", "A", "zz", "e", "Q"]), min_size=1,
                         max_size=6), min_size=1, max_size=6),
       st.sampled_from([0, 1, 2, 5, 10]), st.booleans())
@settings(max_examples=60, deadline=None)
def test_token_windows_match_the_loop_on_any_split(sentences, m, case_fold):
    vocab = build_vocab(list("abcdeA"), case_fold=case_fold)
    sentences = tuple(map(tuple, sentences))
    ds = TokenDataset(tokens=sentences, labels=tuple(("O",) * len(s) for s in sentences),
                      label_set=("O",))
    data = token_window_data(ds, vocab, m)
    np.testing.assert_array_equal(data.indices, _reference_windows(ds, vocab, m)[0])
    # a smaller window is the middle columns of a wider one
    wide = token_window_data(ds, vocab, 10).indices
    np.testing.assert_array_equal(data.indices, wide[:, 10 - m:10 + m + 1])


@pytest.mark.parametrize("case_fold", [False, True], ids=["cased", "folded"])
def test_mean_indices_match_a_per_text_loop(case_fold):
    vocab = build_vocab(list("abcdeab") + ["C"], case_fold=case_fold)
    ds = SequenceDataset(tokens=_EDGE_SENTENCES, labels=tuple("xyxyy"), label_set=("x", "y"))
    data = sequence_data(ds, vocab)
    idx, lengths = _reference_mean_indices(_EDGE_SENTENCES, vocab)
    assert data.indices.dtype == idx.dtype and data.lengths.dtype == lengths.dtype
    np.testing.assert_array_equal(data.indices, idx)
    np.testing.assert_array_equal(data.lengths, lengths)
    np.testing.assert_array_equal(data.labels, [0, 1, 0, 1, 1])

    synth = synth_task("noisy", 40, k=3, seed=5)
    synth_vocab = build_vocab([t for toks in synth.tokens[::2] for t in toks],
                              case_fold=case_fold)  # the odd texts bring OOV tokens
    data = sequence_data(synth, synth_vocab)
    idx, lengths = _reference_mean_indices(synth.tokens, synth_vocab)
    np.testing.assert_array_equal(data.indices, idx)
    np.testing.assert_array_equal(data.lengths, lengths)
    np.testing.assert_array_equal(data.labels,
                                  [synth.label_set.index(lab) for lab in synth.labels])
    assert (idx == synth_vocab.size).any()


def test_probe_data_form_follows_its_arrays():
    labels = np.array([0, 1])
    features, indices, lengths = np.zeros((2, 3)), np.array([[0, 1], [2, 6]]), np.array([2, 1])
    for arrays in ({}, {"features": features, "indices": indices},
                   {"features": features, "indices": indices, "lengths": lengths}):
        with pytest.raises(ValueError, match="exactly one of features and indices"):
            ProbeData(labels=labels, num_classes=2, **arrays)
    with pytest.raises(ValueError, match="lengths need indices"):
        ProbeData(labels=labels, num_classes=2, features=features, lengths=lengths)


# --- forward ----------------------------------------------------------------


def _proba(model, h):
    """predict_proba over the rows of h, as direct features."""
    data = ProbeData(labels=np.zeros(len(h), dtype=int), num_classes=model.w2.shape[0],
                     features=h)
    return predict_proba(model, data)


def test_forward_zero_weights_is_uniform():
    model = init_probe(4, 3, hidden=8, seed=0)
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    probs = _proba(model, np.ones((1, 4)))
    np.testing.assert_allclose(probs, np.full((1, 3), 1.0 / 3.0), rtol=1e-12)


def test_forward_constructed_logits():
    model = init_probe(1, 2, hidden=1, seed=0)
    model.w1[:] = 1.0
    model.w2[0, 0] = math.log(3.0)
    model.w2[1, 0] = 0.0
    probs = _proba(model, np.array([[1.0]]))
    np.testing.assert_allclose(probs, [[0.75, 0.25]], rtol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20)
def test_forward_is_a_distribution(seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    model = init_probe(6, 4, hidden=5, seed=seed)
    probs = _proba(model, rng.standard_normal((7, 6)))
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(7), atol=1e-9)


# --- backward ---------------------------------------------------------------


def test_backward_matches_finite_differences_on_weights():
    rng = np.random.Generator(np.random.Philox(key=7))
    model = init_probe(6, 3, hidden=5, seed=7)
    h = rng.standard_normal((4, 6))
    labels = np.array([0, 2, 1, 0])
    _, grads = backward(model, h, labels)
    assert grads["w1"].dtype == grads["w2"].dtype == np.float64  # no table: float64

    data = ProbeData(labels=labels, num_classes=3, features=h)

    def loss_fn():
        return float(-probe._log_probs(model, data)[np.arange(4), labels].mean())

    np.testing.assert_allclose(grads["w1"], _fd_grad(loss_fn, model.w1),
                               rtol=1e-4, atol=1e-8)
    np.testing.assert_allclose(grads["w2"], _fd_grad(loss_fn, model.w2),
                               rtol=1e-4, atol=1e-8)


@pytest.mark.parametrize("pooling", ["concat", "mean"])
def test_backward_table_gradients_match_finite_differences(pooling):
    rng = np.random.Generator(np.random.Philox(key=11))
    table = random_table(5, 3, seed=11)
    table.trainable = True
    if pooling == "concat":
        indices = rng.integers(0, 5, size=(4, 3))
        lengths = None
    else:
        indices = np.array([[0, 1, 6], [2, 2, 3], [4, 6, 6], [1, 3, 4]])
        lengths = np.array([2, 3, 1, 3])
    labels = np.array([0, 1, 1, 0])
    data = ProbeData(labels=labels, num_classes=2, indices=indices, lengths=lengths)
    h = gather_features(data, table)
    model = init_probe(h.shape[1], 2, hidden=4, seed=11, table=table)

    def loss_fn():
        logp = probe._log_probs(model, data)[np.arange(4), labels]
        return float(-logp.mean())

    _, grads = backward(model, h, labels, indices=indices, lengths=lengths)
    fd = _fd_grad(loss_fn, table.rows)
    # PAD is a constant, not a parameter: compare the trainable rows only
    trainable = [r for r in range(table.rows.shape[0]) if r != table.pad_row]
    np.testing.assert_allclose(grads["table"][trainable], fd[trainable],
                               rtol=1e-4, atol=1e-8)
    # PAD row gradient is masked to zero even though it appears in windows
    np.testing.assert_array_equal(grads["table"][table.pad_row], np.zeros(3))


@pytest.mark.parametrize("pooling", ["concat", "mean"])
def test_backward_table_gradient_bit_identical_to_add_at(pooling):
    rng = np.random.Generator(np.random.Philox(key=5))
    table = random_table(6, 4, seed=5)
    table.trainable = True
    pad = table.pad_row
    # rows repeat within and across examples, and PAD appears in windows
    indices = np.array([[0, 2, 2], [pad, 1, 0], [3, 3, pad], [2, 5, 0],
                        [1, pad, pad], [4, 0, 2]])
    lengths = np.array([3, 3, 2, 3, 1, 3]) if pooling == "mean" else None
    labels = rng.integers(0, 3, size=len(indices))
    data = ProbeData(labels=labels, num_classes=3, indices=indices, lengths=lengths)
    h = gather_features(data, table)
    model = init_probe(h.shape[1], 3, hidden=7, seed=5, table=table)
    _, grads = backward(model, h, labels, indices=indices, lengths=lengths)

    # reference: the same gradient scattered with np.add.at
    pre = h @ model.w1.T
    logits = np.maximum(pre, 0.0) @ model.w2.T
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(len(labels)), labels] -= 1.0
    dh = ((probs / len(labels)) @ model.w2 * (pre > 0)) @ model.w1
    reference = np.zeros_like(table.rows)
    if pooling == "concat":
        np.add.at(reference, indices, dh.reshape(indices.shape + (table.d,)))
    else:
        contrib = dh / lengths[:, None]
        np.add.at(reference, indices,
                  np.broadcast_to(contrib[:, None, :], indices.shape + (table.d,)))
    reference[pad] = 0.0
    assert np.array_equal(grads["table"], reference)


def _input_gradient(model, h, labels):
    """d(mean loss)/dh, step for step as ``backward`` computes it."""
    hidden, logits = probe._layers(model, h)
    expl = np.exp(logits)
    dlogits = expl / expl.sum(axis=1, keepdims=True)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    dlogits /= len(labels)
    dlogits = dlogits.astype(hidden.dtype, copy=False)
    return ((dlogits @ model.w2) * (hidden > 0)) @ model.w1


def _bincount_table_gradient(table, indices, lengths, dh):
    """The table gradient as one bincount over the (row, column) cells of
    the whole table and every token position, summed in float64 in batch
    order; ``lengths`` is None under concat pooling."""
    d = table.d
    if lengths is None:
        seg = dh.reshape(-1, d)
    else:
        seg = np.repeat(dh / lengths[:, None].astype(dh.dtype), indices.shape[1], axis=0)
    cells = (indices.reshape(-1, 1) * d + np.arange(d)).ravel()
    gtable = np.bincount(cells, weights=seg.ravel(), minlength=table.rows.size)
    gtable = gtable.astype(table.rows.dtype).reshape(table.rows.shape)
    gtable[table.pad_row] = 0.0
    return gtable


@given(n=st.integers(1, 300), d=st.integers(1, 60), batch=st.integers(1, 64),
       width=st.integers(1, 40), seed=st.integers(0, 2**32 - 1), zipf=st.booleans(),
       dtype=st.sampled_from([np.float32, np.float64]),
       pooling=st.sampled_from(["mean", "concat"]))
@example(n=5, d=3, batch=1, width=40, seed=0, zipf=True, dtype=np.float32, pooling="mean")
@example(n=60, d=50, batch=64, width=20, seed=1, zipf=True, dtype=np.float32,
         pooling="mean")
@example(n=990, d=50, batch=64, width=5, seed=2, zipf=True, dtype=np.float32,
         pooling="concat")
@example(n=990, d=50, batch=64, width=21, seed=3, zipf=True, dtype=np.float64,
         pooling="concat")
@settings(max_examples=120, deadline=None)
def test_mean_table_gradient_matches_the_bincount_formula(n, d, batch, width, seed, zipf,
                                                          dtype, pooling):
    rng = np.random.Generator(np.random.Philox(key=seed))
    table = random_table(n, d, seed=seed)
    table = replace(table, rows=table.rows.astype(dtype), trainable=True)
    lengths = rng.integers(1, width + 1, batch)
    # Zipf draws repeat rows within and across sequences; row n is OOV
    if zipf:
        rows = np.minimum(rng.zipf(1.5, (batch, width)) - 1, n)
    else:
        rows = rng.integers(0, n + 1, (batch, width))
    lengths[0] = width
    rows[0, -1] = rows[0, 0]  # a row repeated inside one sequence (or window)
    indices = np.where(np.arange(width) < lengths[:, None], rows, table.pad_row)
    if pooling == "concat":
        lengths = None  # PAD stands for the positions outside the sentence
    labels = rng.integers(0, 3, batch)
    data = ProbeData(labels=labels, num_classes=3, indices=indices, lengths=lengths)
    h = gather_features(data, table)
    model = init_probe(h.shape[1], 3, hidden=8, seed=seed, table=table, dtype=h.dtype)
    _, grads = backward(model, h, labels, indices=indices, lengths=lengths)

    dh = _input_gradient(model, h, labels)
    reference = _bincount_table_gradient(table, indices, lengths, dh)
    assert grads["table"].dtype == dtype
    if dtype == np.float32 or pooling == "concat":
        # concat adds the same terms in the same order per cell; under mean
        # pooling float32 terms times small counts are exact in float64, so
        # both sums round to the same float32
        assert np.array_equal(grads["table"], reference)
    else:
        # float64 terms round in float64 and the two sum in different orders:
        # they agree to within the summation error bound
        abs_sum = _bincount_table_gradient(table, indices, lengths, np.abs(dh))
        bound = 2 * indices.size * np.finfo(np.float64).eps * abs_sum
        assert np.all(np.abs(grads["table"] - reference) <= bound)


def test_backward_gradient_locality():
    table = random_table(8, 3, seed=4)
    table.trainable = True
    indices = np.array([[0, 1], [1, 2]])
    data = ProbeData(labels=np.array([0, 1]), num_classes=2, indices=indices)
    model = init_probe(6, 2, hidden=4, seed=4, table=table)
    h = gather_features(data, table)
    _, grads = backward(model, h, data.labels, indices=indices)
    touched = sorted(set(indices.ravel()))
    untouched = [r for r in range(10) if r not in touched]
    assert np.abs(grads["table"][touched]).max() > 0
    np.testing.assert_array_equal(grads["table"][untouched], 0.0)


def test_backward_frozen_mode_has_no_table_grads():
    table = random_table(5, 3, seed=2)
    indices = np.array([[0, 1]])
    data = ProbeData(labels=np.array([0]), num_classes=2, indices=indices)
    model = init_probe(6, 2, hidden=4, seed=2, table=table)
    h = gather_features(data, table)
    _, grads = backward(model, h, data.labels, indices=indices)
    assert "table" not in grads


def test_backward_saturated_prediction_has_tiny_gradient():
    model = init_probe(2, 2, hidden=2, seed=0)
    model.w1[:] = np.array([[50.0, 0.0], [0.0, 50.0]])
    model.w2[:] = np.array([[50.0, -50.0], [-50.0, 50.0]])
    h = np.array([[1.0, 0.0]])
    probs = _proba(model, h)
    assert probs[0, 0] > 1.0 - 1e-12
    _, grads = backward(model, h, np.array([0]))
    assert np.abs(grads["w1"]).max() < 1e-9
    assert np.abs(grads["w2"]).max() < 1e-9


# --- adam -------------------------------------------------------------------


def test_adam_first_step_magnitude():
    params = {"w": np.array([0.0])}
    state = AdamState()
    adam_step(state, params, {"w": np.array([1.0])}, lr=0.001)
    assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.5, -2.0])}
    state = AdamState()
    for _ in range(5):
        adam_step(state, params, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])


def test_adam_is_deterministic():
    def run():
        params = {"w": np.array([1.0, 2.0])}
        state = AdamState()
        for t in range(3):
            adam_step(state, params, {"w": np.array([0.5, -1.0]) * (t + 1)}, lr=0.01)
        return params["w"]

    np.testing.assert_array_equal(run(), run())


def _stock_adam_step(state, params, grads, lr):
    """``adam_step`` without its flush of subnormal first moments."""
    state.t += 1
    bc1 = 1.0 - probe.ADAM_BETA1**state.t
    bc2 = 1.0 - probe.ADAM_BETA2**state.t
    for name in sorted(grads):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        m *= probe.ADAM_BETA1
        m += (1.0 - probe.ADAM_BETA1) * g
        v *= probe.ADAM_BETA2
        v += (1.0 - probe.ADAM_BETA2) * g * g
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + probe.ADAM_EPS)


def _subnormal_count(a):
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


def test_adam_flushes_subnormal_table_moments_without_moving_parameters():
    # rows 8.. of a float32 table take gradients for 50 steps, then none
    # for 1,200: their first moments decay into subnormals and stay there
    rng = np.random.Generator(np.random.Philox(key=8))
    start = {"table": rng.standard_normal((16, 4)).astype(np.float32),
             "w1": rng.standard_normal((3, 4)).astype(np.float32)}
    runs = []
    for step in (adam_step, _stock_adam_step):
        params = {name: p.copy() for name, p in start.items()}
        state = AdamState()
        grad_rng = np.random.Generator(np.random.Philox(key=9))
        for t in range(1250):
            grads = {name: (1e-2 * grad_rng.standard_normal(p.shape)).astype(np.float32)
                     for name, p in start.items()}
            if t >= 50:
                grads["table"][8:] = 0.0
            step(state, params, grads, lr=1e-3)
        runs.append((params, state))
    (flushed, flushed_state), (stock, stock_state) = runs
    assert _subnormal_count(stock_state.m["table"]) > 0  # the case is live
    assert _subnormal_count(flushed_state.m["table"]) == 0
    for name in start:
        assert np.array_equal(flushed[name], stock[name])


# --- training ---------------------------------------------------------------


def test_train_probe_constant_dev_loss_annealing_schedule():
    # zero features give zero gradients: dev loss is flat forever
    data = ProbeData(labels=np.array([0, 1] * 8), num_classes=2,
                     features=np.zeros((16, 3)))
    config = TrainConfig(lr=0.001, seed=0, batch_size=4, max_epochs=50, hidden=4)
    model, trace = train_probe(data, data, config)
    assert len(trace) == 5  # first epoch sets the minimum, then 4 stale epochs
    np.testing.assert_allclose([t.lr for t in trace],
                               [0.001, 0.001, 0.0005, 0.00025, 0.000125])
    assert trace[-1].lr * 0.5 == pytest.approx(0.001 / 16.0)
    for t in trace:
        assert t.dev_loss == pytest.approx(math.log(2.0), abs=1e-12)


def test_train_probe_stops_at_max_epochs(gaussian_blobs):
    data = gaussian_blobs(60, seed=0)
    config = TrainConfig(lr=0.001, seed=0, batch_size=16, max_epochs=3, hidden=8)
    _, trace = train_probe(data, data, config)
    assert len(trace) <= 3


def test_train_probe_deterministic(gaussian_blobs):
    data = gaussian_blobs(80, seed=1)
    config = TrainConfig(seed=42, batch_size=16, max_epochs=5, hidden=8)
    m1, t1 = train_probe(data, data, config)
    m2, t2 = train_probe(data, data, config)
    np.testing.assert_array_equal(m1.w1, m2.w1)
    assert t1 == t2


def test_train_probe_learns_separable_task(gaussian_blobs):
    train = gaussian_blobs(200, seed=0)
    dev = gaussian_blobs(60, seed=1)
    config = TrainConfig(seed=0, batch_size=32, max_epochs=30, hidden=32)
    model, _ = train_probe(train, dev, config)
    assert evaluate_accuracy(model, dev) >= 0.95


def test_train_probe_frozen_table_is_untouched(gaussian_blobs):
    table = random_table(10, 4, seed=0)
    indices = np.array([[i % 10, (i + 1) % 10] for i in range(60)])
    data = ProbeData(labels=gaussian_blobs(60, seed=2).labels, num_classes=2,
                     indices=indices, lengths=np.full(60, 2))
    before = table.rows.copy()
    config = TrainConfig(seed=0, batch_size=16, max_epochs=4, hidden=8)
    train_probe(data, data, config, table=table)
    np.testing.assert_array_equal(table.rows, before)


def test_train_probe_unfrozen_updates_rows_but_not_pad():
    table = random_table(10, 4, seed=0)
    table.trainable = True
    rng = np.random.Generator(np.random.Philox(key=9))
    indices = np.column_stack([rng.integers(0, 10, 60), np.full(60, table.pad_row)])
    labels = (indices[:, 0] % 2).astype(int)
    data = ProbeData(labels=labels, num_classes=2, indices=indices,
                     lengths=np.full(60, 1))
    before = table.rows.copy()
    config = TrainConfig(seed=0, batch_size=16, max_epochs=4, hidden=8)
    train_probe(data, data, config, table=table)
    assert np.abs(table.rows[:10] - before[:10]).max() > 0
    np.testing.assert_array_equal(table.rows[table.pad_row], np.zeros(4))


def test_loss_at_zero_weights_is_log_k(gaussian_blobs):
    data = gaussian_blobs(40, seed=3)
    model = init_probe(4, 2, hidden=8, seed=0)
    model.w1[:] = 0.0
    model.w2[:] = 0.0
    assert evaluate_loss(model, data) == pytest.approx(math.log(2.0), abs=1e-9)
    probs = predict_proba(model, data)
    np.testing.assert_allclose(probs, 0.5, rtol=1e-12)


@pytest.mark.parametrize("field, value", [
    ("hidden", 0), ("batch_size", 0), ("max_epochs", 0), ("patience", 0),
    ("lr", 0.0), ("lr", float("inf")), ("lr", float("nan"))],
    ids=["hidden", "batch_size", "max_epochs", "patience", "lr-zero", "lr-inf", "lr-nan"])
def test_train_config_rejects_sizes_below_one(field, value):
    # and an lr that is not positive and finite
    message = "lr must be positive" if field == "lr" else f"{field} must be >= 1"
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


def test_train_probe_rejects_empty():
    data = ProbeData(labels=np.array([0]), num_classes=2,
                     features=np.zeros((1, 2)))
    empty = data.subset(np.array([], dtype=int))
    with pytest.raises(ValueError):
        train_probe(empty, data, TrainConfig())



# --- precision ----------------------------------------------------------------


def _windows(table, pooling, n=60, seed=9):
    """Token windows over ``table`` with PAD in every example; labels follow
    the first row."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    indices = np.column_stack([rng.integers(0, table.n, n), rng.integers(0, table.n, n),
                               np.full(n, table.pad_row)])
    return ProbeData(labels=indices[:, 0] % 2, num_classes=2, indices=indices,
                     lengths=np.full(n, 2) if pooling == "mean" else None)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_train_probe_pools_a_frozen_tables_mean_inputs_once(monkeypatch, dtype):
    # a frozen table is a constant: a fit on it trains as on the pooled
    # features with no table, and no training batch gathers through it
    table = random_table(10, 4, seed=0)
    table = replace(table, rows=table.rows.astype(dtype))
    train, dev = _windows(table, "mean"), _windows(table, "mean", n=30, seed=4)
    config = TrainConfig(seed=0, batch_size=16, max_epochs=3, hidden=8)
    reference, _ = train_probe(*(ProbeData(labels=data.labels, num_classes=2,
                                           features=gather_features(data, table))
                                 for data in (train, dev)), config)
    steps = []
    backward = probe.backward

    def spy(model, h, labels, indices=None, lengths=None):
        steps.append(indices)
        return backward(model, h, labels, indices=indices, lengths=lengths)

    monkeypatch.setattr(probe, "backward", spy)
    model, _ = train_probe(train, dev, config, table=table)
    assert model.table is table
    assert np.array_equal(model.w1, reference.w1) and np.array_equal(model.w2, reference.w2)
    assert steps and all(indices is None for indices in steps)


@pytest.mark.parametrize("frozen", [True, False], ids=["frozen", "unfrozen"])
@pytest.mark.parametrize("pooling", ["concat", "mean"])
def test_train_probe_on_a_float32_table_stays_float32(monkeypatch, pooling, frozen):
    table = random_table(10, 4, seed=0)
    table = replace(table, rows=table.rows.astype(np.float32), trainable=not frozen)
    data = _windows(table, pooling)
    before = table.rows.copy()
    steps = []
    adam = probe.adam_step

    def spy(state, params, grads, lr):
        adam(state, params, grads, lr)
        steps.append({name: (grads[name].dtype, state.m[name].dtype, state.v[name].dtype)
                      for name in grads})

    monkeypatch.setattr(probe, "adam_step", spy)
    config = TrainConfig(seed=0, batch_size=16, max_epochs=3, hidden=8)
    model, trace = train_probe(data, data, config, table=table)
    names = {"w1", "w2"} if frozen else {"w1", "w2", "table"}
    assert steps and all(set(step) == names for step in steps)
    assert {dt for step in steps for dts in step.values() for dt in dts} == {np.dtype(np.float32)}
    assert model.w1.dtype == model.w2.dtype == table.rows.dtype == np.float32
    assert gather_features(data, table).dtype == np.float32
    # from the logits on, float64
    assert probe._layers(model, gather_features(data, table))[1].dtype == np.float64
    assert predict_proba(model, data).dtype == np.float64
    assert all(isinstance(t.dev_loss, float) for t in trace)
    if frozen:
        np.testing.assert_array_equal(table.rows, before)
    else:
        assert np.abs(table.rows[:10] - before[:10]).max() > 0
        assert np.array_equal(table.rows[table.pad_row], np.zeros(4, dtype=np.float32))


@pytest.mark.parametrize("form, dtype, width, expected", [
    ("direct", np.float32, 3, np.float32),
    ("direct", np.float64, 3, np.float64),
    ("direct", np.int16, 3, np.float32),  # at least float32
    ("direct", np.int64, 3, np.float64),
    ("concat", np.float32, 12, np.float32),
    ("concat", np.float64, 12, np.float64),
    ("mean", np.float32, 4, np.float32),
    ("mean", np.float64, 4, np.float64),
])
def test_train_probe_takes_width_and_dtype_from_the_gathered_features(form, dtype, width,
                                                                      expected):
    rng = np.random.Generator(np.random.Philox(key=6))
    table = None
    if form == "direct":
        data = ProbeData(labels=np.arange(20) % 2, num_classes=2,
                         features=rng.integers(-3, 4, (20, 3)).astype(dtype))
    else:
        table = random_table(10, 4, seed=6)
        table = replace(table, rows=table.rows.astype(dtype))
        data = _windows(table, form, n=20)
    config = TrainConfig(seed=0, batch_size=8, max_epochs=1, hidden=5)
    model, _ = train_probe(data, data, config, table=table)
    assert model.w1.shape == (5, width) == (5, gather_features(data, table).shape[1])
    assert model.w1.dtype == model.w2.dtype == expected


@pytest.mark.parametrize("pooling", ["concat", "mean"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_gradients_take_the_table_dtype(dtype, pooling):
    table = random_table(6, 3, seed=3)
    table = replace(table, rows=table.rows.astype(dtype), trainable=True)
    data = _windows(table, pooling, n=8)
    h = gather_features(data, table)
    model = init_probe(h.shape[1], 2, hidden=5, seed=3, table=table, dtype=h.dtype)
    loss, grads = backward(model, h, data.labels, indices=data.indices,
                           lengths=data.lengths)
    assert isinstance(loss, float)
    assert model.w1.dtype == model.w2.dtype == h.dtype == dtype
    assert {name: g.dtype for name, g in grads.items()} == {
        "w1": dtype, "w2": dtype, "table": dtype}




def _three_array_layers(model, h):
    """``probe._layers`` as it was before it rectified in place: the
    pre-activation, a separate hidden array, and the shifted float64 logits."""
    pre = h @ model.w1.T
    hidden = np.maximum(pre, 0.0)
    logits = (hidden @ model.w2.T).astype(float, copy=False)
    return pre, hidden, logits - logits.max(axis=1, keepdims=True)


def _three_array_backward(model, h, labels, indices, lengths):
    """``probe.backward`` as it was over ``_three_array_layers``, masking
    with ``pre > 0``, for a trainable table."""
    batch = len(labels)
    examples = np.arange(batch)
    pre, hidden, logits = _three_array_layers(model, h)
    dlogits = np.exp(logits)
    total = dlogits.sum(axis=1, keepdims=True)
    loss = float(-(logits[examples, labels] - np.log(total[:, 0])).mean())
    dlogits /= total
    dlogits[examples, labels] -= 1.0
    dlogits /= batch
    dlogits = dlogits.astype(hidden.dtype, copy=False)
    dhidden = (dlogits @ model.w2) * (pre > 0)
    dh = dhidden @ model.w1
    rows, inverse = np.unique(indices, return_inverse=True)
    if lengths is None:
        d = model.table.d
        cells = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
        grad = np.bincount(cells, weights=dh.ravel(), minlength=len(rows) * d)
        grad = grad.reshape(len(rows), d)
    else:
        slots = examples[:, None] * len(rows) + inverse.reshape(indices.shape)
        counts = np.bincount(slots.ravel(), minlength=batch * len(rows))
        per_example = dh / lengths[:, None].astype(dh.dtype)
        grad = counts.reshape(batch, len(rows)).T.astype(float) @ per_example.astype(float)
    gtable = np.zeros_like(model.table.rows)
    gtable[rows] = grad
    gtable[model.table.pad_row] = 0.0
    return loss, {"w2": dlogits.T @ hidden, "w1": dhidden.T @ h, "table": gtable}


@pytest.mark.parametrize("pooling", ["concat", "mean"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_array_forward_matches_the_three_array_forward(monkeypatch, dtype, pooling):
    table = random_table(12, 4, seed=5)
    rows = table.rows.astype(dtype)
    rows[1:5] = np.abs(rows[1:5])
    rows[5] = 0.0
    table = replace(table, rows=rows, trainable=True)
    rng = np.random.Generator(np.random.Philox(key=5))
    n = 40
    # the first 10 examples read only rows 1-5 and PAD, none negative
    indices = np.concatenate([rng.integers(1, 6, (10, 3)), rng.integers(0, table.n, (n - 10, 3))])
    lengths = None
    if pooling == "mean":
        lengths = rng.integers(1, 4, n)
        indices[np.arange(3) >= lengths[:, None]] = table.pad_row
    data = ProbeData(labels=rng.integers(0, 3, n), num_classes=3, indices=indices,
                     lengths=lengths)
    h = gather_features(data, table)
    model = init_probe(h.shape[1], 3, hidden=6, seed=5, table=table, dtype=dtype)
    model.w1 = -np.abs(model.w1)  # so those 10 rows have every pre-activation <= 0
    pre = _three_array_layers(model, h)[0]
    assert (pre[:10] <= 0).all() and (pre[10:] > 0).any() and (pre[10:] < 0).any()

    loss, grads = backward(model, h, data.labels, indices=indices, lengths=lengths)
    ref_loss, ref_grads = _three_array_backward(model, h, data.labels, indices, lengths)
    assert loss == ref_loss
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert grads[name].dtype == dtype
        assert np.array_equal(grads[name], ref_grads[name])
    one = evaluate_loss(model, data), predict_proba(model, data)
    monkeypatch.setattr(probe, "_layers", lambda model, h: _three_array_layers(model, h)[1:])
    three = evaluate_loss(model, data), predict_proba(model, data)
    assert one[0] == three[0]
    assert np.array_equal(one[1], three[1])
