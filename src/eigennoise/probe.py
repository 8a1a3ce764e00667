"""MLP probe over embedding features, trained with Adam and dev-set
learning-rate annealing.

The probe is softmax(W2 relu(W1 h)) with a single hidden layer and no
dropout. Inputs h come from one of three featurizations: a flattened
token window (conll tasks), the mean over a token sequence (tsv and
synthetic tasks), or precomputed vectors. When the attached embedding table is
trainable, gradients flow into the referenced rows; the PAD row never
receives gradient.

Precision: the probe computes in the dtype of its table, or of its direct
features (at least float32; float64 when it has neither). Features,
weights, hidden activations, every gradient and the Adam moments keep
that dtype, so a single-precision table trains a single-precision
probe. From the logits on everything is float64:
``_layers`` upcasts the (B, K) logits, so the softmax, the training and
dev losses that drive annealing, log-probabilities and ``predict_proba``
are float64, and backprop casts the logit gradient back to the hidden
layer's dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .datasets import SequenceDataset, TokenDataset
from .embeddings import EmbeddingTable, pad_row, token_rows
from .vocab import Vocabulary

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ANNEAL_FACTOR = 0.5  # lr multiplier after an epoch without a new best dev loss


@dataclass
class TrainConfig:
    lr: float = defaults.DEFAULT_LR
    patience: int = defaults.DEFAULT_PATIENCE
    seed: int = 0
    batch_size: int = defaults.DEFAULT_BATCH_SIZE
    max_epochs: int = defaults.DEFAULT_MAX_EPOCHS
    hidden: int = defaults.DEFAULT_HIDDEN

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("patience", "hidden", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


# --- featurization ---------------------------------------------------------


@dataclass
class ProbeData:
    """Probe-ready examples in one of three input forms, told by the
    arrays held.

    ``features`` alone: the inputs themselves (direct). ``indices``
    alone: rows are fixed-width windows of table row indices, flattened
    after lookup (concat). ``indices`` and ``lengths``: rows are padded
    token sequences averaged over the first ``lengths`` entries (mean;
    padding points at the zero PAD row, so a plain sum is safe).
    """

    labels: np.ndarray
    num_classes: int
    features: np.ndarray | None = None
    indices: np.ndarray | None = None
    lengths: np.ndarray | None = None

    def __post_init__(self):
        if (self.features is None) == (self.indices is None):
            raise ValueError("need exactly one of features and indices")
        if self.lengths is not None and self.indices is None:
            raise ValueError("lengths need indices")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValueError("labels must lie in 0..num_classes-1")

    def __len__(self) -> int:
        return len(self.labels)

    def input_dim(self, d: int | None = None) -> int:
        if self.features is not None:
            return self.features.shape[1]
        if d is None:
            raise ValueError("need the embedding dimension for index inputs")
        return self.indices.shape[1] * d if self.lengths is None else d

    def subset(self, sel) -> "ProbeData":
        return ProbeData(
            labels=self.labels[sel],
            num_classes=self.num_classes,
            features=None if self.features is None else self.features[sel],
            indices=None if self.indices is None else self.indices[sel],
            lengths=None if self.lengths is None else self.lengths[sel],
        )


def token_window_data(ds: TokenDataset, vocab: Vocabulary, m: int) -> ProbeData:
    """One example per (sentence, position): a width-(2m+1) index window.

    The split is laid out as one row stream: m PAD rows, then each
    sentence followed by m PAD rows. A token's window is the stream's
    2m+1 rows centred on it, so positions outside its sentence read PAD.
    The windows of a smaller m are the middle columns of these.
    """
    lengths = [len(sent) for sent in ds.sentences]
    rows = token_rows(vocab, chain.from_iterable(ds.sentences))
    # a token of sentence s sits m * (s + 1) rows after its place in the bare split
    centres = np.arange(len(rows)) + m * np.repeat(np.arange(1, len(lengths) + 1), lengths)
    stream = np.full(len(rows) + m * (len(lengths) + 1), pad_row(vocab.size), dtype=int)
    stream[centres] = rows
    return ProbeData(
        labels=_label_ids(chain.from_iterable(ds.labels), ds.label_set),
        num_classes=ds.num_classes,
        indices=sliding_window_view(stream, 2 * m + 1)[centres - m],
    )


def _label_ids(labels, label_set: tuple[str, ...]) -> np.ndarray:
    """Each label's index in ``label_set``."""
    index = {lab: i for i, lab in enumerate(label_set)}
    return np.fromiter(map(index.__getitem__, labels), dtype=int)


def sequence_data(ds: SequenceDataset, vocab: Vocabulary) -> ProbeData:
    """One mean-pooled example per text: the table rows of text i fill the
    first ``lengths[i]`` entries of index row i, and the rest are PAD.
    Tokens outside the vocab hit OOV."""
    lengths = np.array([len(toks) for toks in ds.tokens], dtype=int)
    idx = np.full((len(lengths), int(lengths.max())), pad_row(vocab.size), dtype=int)
    idx[np.arange(idx.shape[1]) < lengths[:, None]] = token_rows(
        vocab, chain.from_iterable(ds.tokens))
    return ProbeData(labels=_label_ids(ds.labels, ds.label_set), num_classes=ds.num_classes,
                     indices=idx, lengths=lengths)


# No runtime code calls this name: ``bench/tracer.py`` traces the layer
# under it and cannot install without it.
synthetic_token_data = sequence_data


# --- model -----------------------------------------------------------------


@dataclass
class ProbeModel:
    w1: np.ndarray  # (hidden, input_dim)
    w2: np.ndarray  # (num_classes, hidden)
    table: EmbeddingTable | None = None


def init_probe(input_dim: int, num_classes: int, hidden: int = defaults.DEFAULT_HIDDEN,
               seed: int = 0, table: EmbeddingTable | None = None,
               dtype=None) -> ProbeModel:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight init, drawn
    in float64 and cast to ``dtype``: by default the table's, float64
    when there is none."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    if dtype is None:
        dtype = float if table is None else table.rows.dtype
    b1 = 1.0 / np.sqrt(input_dim)
    b2 = 1.0 / np.sqrt(hidden)
    return ProbeModel(
        w1=rng.uniform(-b1, b1, (hidden, input_dim)).astype(dtype, copy=False),
        w2=rng.uniform(-b2, b2, (num_classes, hidden)).astype(dtype, copy=False),
        table=table,
    )


def gather_features(data: ProbeData, table: EmbeddingTable | None) -> np.ndarray:
    """Materialize the (B, input_dim) feature block of ``data``. Index
    inputs keep the table's dtype."""
    if data.features is not None:
        return data.features
    if table is None:
        raise ValueError("index inputs require an embedding table")
    gathered = table.rows[data.indices]  # (B, w, d)
    if data.lengths is None:
        return gathered.reshape(len(gathered), -1)
    return gathered.sum(axis=1) / data.lengths[:, None].astype(gathered.dtype)


def _layers(model: ProbeModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activation W1 h, hidden relu(W1 h), and the float64 logits
    W2 hidden shifted by their row maximum."""
    pre = h @ model.w1.T
    hidden = np.maximum(pre, 0.0)
    logits = (hidden @ model.w2.T).astype(float, copy=False)
    return pre, hidden, logits - logits.max(axis=1, keepdims=True)


def _log_probs(model: ProbeModel, h: np.ndarray) -> np.ndarray:
    logits = _layers(model, h)[2]
    return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))


def backward(model: ProbeModel, h: np.ndarray, labels: np.ndarray,
             indices: np.ndarray | None = None,
             lengths: np.ndarray | None = None) -> tuple[float, dict[str, np.ndarray]]:
    """Mean cross-entropy over the batch and its gradients.

    Returns gradients for w1 and w2, plus a dense "table" gradient when
    the attached table is trainable and ``indices`` locate the rows each
    feature segment came from. The PAD row's gradient is forced to zero.
    Gradients have the dtype of the hidden layer; the loss is computed in
    float64.

    The formula follows ``lengths``: without them ``indices`` are concat
    windows, with them mean-pooled sequences. The table gradient is
    summed in float64 over the batch's U unique rows, then cast into a
    zeroed table-shaped array. Under concat pooling one ``bincount`` over
    U·d (row, column) cells adds every window position's gradient in
    batch order, bit-identical to a whole-table sum. Under mean pooling a
    (B, U) matrix counts how often each example holds each row, and
    ``counts.T @ (dh / lengths)`` gives every row's gradient at once. For
    a float32 table this equals the per-position sum bit for bit: a
    float32 value times a small count is exact in float64. For a float64
    table the two sums round differently in the last bits.
    """
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise ValueError("probe input must be finite")
    labels = np.asarray(labels, dtype=int)
    batch = len(labels)
    pre, hidden, logits = _layers(model, h)
    examples = np.arange(batch)
    dlogits = np.exp(logits)  # turned in place into the softmax, then its gradient
    total = dlogits.sum(axis=1, keepdims=True)
    loss = float(-(logits[examples, labels] - np.log(total[:, 0])).mean())

    dlogits /= total
    dlogits[examples, labels] -= 1.0
    dlogits /= batch
    dlogits = dlogits.astype(hidden.dtype, copy=False)
    grads = {
        "w2": dlogits.T @ hidden,
    }
    dhidden = (dlogits @ model.w2) * (pre > 0)
    grads["w1"] = dhidden.T @ h
    table = model.table
    if table is not None and table.trainable and indices is not None:
        dh = dhidden @ model.w1  # (B, input_dim)
        rows, inverse = np.unique(indices, return_inverse=True)
        if lengths is None:
            # concat: one flat bincount over (unique row, column) cells
            # adds each cell's terms in batch order, as np.add.at does, so
            # the sums are bit-identical. bincount sums in float64 whatever
            # the weights' dtype.
            d = table.d
            cells = (inverse.reshape(-1, 1) * d + np.arange(d)).ravel()
            grad = np.bincount(cells, weights=dh.ravel(), minlength=len(rows) * d)
            grad = grad.reshape(len(rows), d)
        else:
            # mean: every position of example b adds dh[b] / lengths[b] to its row
            slots = examples[:, None] * len(rows) + inverse.reshape(indices.shape)
            counts = np.bincount(slots.ravel(), minlength=batch * len(rows))
            per_example = dh / lengths[:, None].astype(dh.dtype)
            grad = (counts.reshape(batch, len(rows)).T.astype(float)
                    @ per_example.astype(float))
        gtable = np.zeros_like(table.rows)
        gtable[rows] = grad  # cast to the table's dtype
        gtable[table.pad_row] = 0.0
        grads["table"] = gtable
    return loss, grads


# --- optimization ----------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(state: AdamState, params: dict[str, np.ndarray],
              grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place Adam update with bias correction (beta1=0.9,
    beta2=0.999, eps=1e-8). Parameter names are visited in sorted order;
    the moments take each gradient's dtype."""
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for name in sorted(grads):
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(g)
            state.v[name] = np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


# --- training --------------------------------------------------------------


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_loss: float
    lr: float


def evaluate_loss(model: ProbeModel, data: ProbeData) -> float:
    h = gather_features(data, model.table)
    logp = _log_probs(model, h)
    return float(-logp[np.arange(len(data)), data.labels].mean())


def evaluate_accuracy(model: ProbeModel, data: ProbeData) -> float:
    h = gather_features(data, model.table)
    pred = _log_probs(model, h).argmax(axis=1)
    return float((pred == data.labels).mean())


def predict_proba(model: ProbeModel, data: ProbeData) -> np.ndarray:
    return np.exp(_log_probs(model, gather_features(data, model.table)))


def train_probe(train: ProbeData, dev: ProbeData, config: TrainConfig,
                table: EmbeddingTable | None = None) -> tuple[ProbeModel, list[EpochStats]]:
    """Adam training with the anneal-on-plateau schedule.

    After every epoch whose dev loss is not a new strict minimum, the
    learning rate halves and a cumulative counter increments; training
    stops once the counter reaches ``config.patience`` or at
    ``config.max_epochs``. Returns the final model and the per-epoch trace.
    """
    if len(train) == 0 or len(dev) == 0:
        raise ValueError("train and dev sets must be non-empty")
    input_dim = train.input_dim(table.d if table is not None else None)
    # direct features set the probe's dtype (at least float32); index
    # inputs compute in the table's
    dtype = (np.result_type(train.features.dtype, np.float32)
             if train.features is not None else None)
    model = init_probe(input_dim, train.num_classes, hidden=config.hidden,
                       seed=config.seed, table=table, dtype=dtype)
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    params = {"w1": model.w1, "w2": model.w2}
    if table is not None and table.trainable:
        params["table"] = table.rows
    state = AdamState()
    lr = config.lr
    best_dev = np.inf
    stale = 0
    trace: list[EpochStats] = []
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(len(train))
        seen = 0
        loss_sum = 0.0
        for start in range(0, len(perm), config.batch_size):
            batch = train.subset(perm[start : start + config.batch_size])
            loss, grads = backward(model, gather_features(batch, table), batch.labels,
                                   indices=batch.indices, lengths=batch.lengths)
            if not np.isfinite(loss):
                raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
            adam_step(state, params, grads, lr)
            loss_sum += loss * len(batch)
            seen += len(batch)
        dev_loss = evaluate_loss(model, dev)
        if not np.isfinite(dev_loss):
            raise ArithmeticError(f"non-finite dev loss at epoch {epoch}")
        trace.append(EpochStats(epoch=epoch, train_loss=loss_sum / seen,
                                dev_loss=dev_loss, lr=lr))
        if dev_loss < best_dev:
            best_dev = dev_loss
        else:
            lr *= ANNEAL_FACTOR
            stale += 1
            if stale >= config.patience:
                break
    return model, trace

