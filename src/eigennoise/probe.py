"""MLP probe over embedding features, trained with Adam and dev-set
learning-rate annealing.

The probe is softmax(W2 relu(W1 h)) with a single hidden layer and no
dropout. Inputs h come from one of three featurizations: a flattened
token window (token tasks), the mean over a token sequence (sequence
tasks), or precomputed vectors (synthetic tasks). When the attached
embedding table is trainable, gradients flow into the referenced rows;
the PAD row never receives gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .datasets import SequenceDataset, SyntheticDataset, TokenDataset
from .embeddings import EmbeddingTable, row_index
from .vocab import Vocabulary, rank_of, tokenize

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ANNEAL_FACTOR = 0.5  # lr multiplier after an epoch without a new best dev loss


@dataclass
class TrainConfig:
    lr: float = 0.001
    patience: int = 4
    seed: int = 0
    batch_size: int = 64
    max_epochs: int = 50
    hidden: int = 512

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for name in ("patience", "hidden", "batch_size", "max_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


# --- featurization ---------------------------------------------------------


@dataclass
class ProbeData:
    """Probe-ready examples in one of three input forms.

    pooling "direct": ``features`` holds the inputs. pooling "concat":
    ``indices`` rows are fixed-width windows of table row indices,
    flattened after lookup. pooling "mean": ``indices`` rows are padded
    token sequences averaged over the first ``lengths`` entries (padding
    points at the zero PAD row, so a plain sum is safe).
    """

    labels: np.ndarray
    num_classes: int
    pooling: str = "direct"
    features: np.ndarray | None = None
    indices: np.ndarray | None = None
    lengths: np.ndarray | None = None

    def __post_init__(self):
        if self.pooling not in ("direct", "concat", "mean"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.pooling == "direct" and self.features is None:
            raise ValueError("direct pooling requires features")
        if self.pooling in ("concat", "mean") and self.indices is None:
            raise ValueError(f"{self.pooling} pooling requires indices")
        if self.pooling == "mean" and self.lengths is None:
            raise ValueError("mean pooling requires lengths")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValueError("labels must lie in 0..num_classes-1")

    def __len__(self) -> int:
        return len(self.labels)

    def input_dim(self, d: int | None = None) -> int:
        if self.pooling == "direct":
            return self.features.shape[1]
        if d is None:
            raise ValueError("need the embedding dimension for index pooling")
        return self.indices.shape[1] * d if self.pooling == "concat" else d

    def subset(self, sel) -> "ProbeData":
        return ProbeData(
            labels=self.labels[sel],
            num_classes=self.num_classes,
            pooling=self.pooling,
            features=None if self.features is None else self.features[sel],
            indices=None if self.indices is None else self.indices[sel],
            lengths=None if self.lengths is None else self.lengths[sel],
        )


def _ranks_to_rows(tokens: Sequence[str], vocab: Vocabulary) -> list[int]:
    return [row_index(vocab.size, rank_of(vocab, t)) for t in tokens]


def token_window_data(ds: TokenDataset, vocab: Vocabulary, m: int) -> ProbeData:
    """One example per (sentence, position): a width-(2m+1) index window."""
    label_index = {lab: i for i, lab in enumerate(ds.label_set)}
    pad_row = vocab.size + 1
    windows = []
    labels = []
    for sent, labs in zip(ds.sentences, ds.labels):
        rows = _ranks_to_rows(sent, vocab)
        for pos, lab in enumerate(labs):
            win = [
                rows[p] if 0 <= p < len(rows) else pad_row
                for p in range(pos - m, pos + m + 1)
            ]
            windows.append(win)
            labels.append(label_index[lab])
    return ProbeData(
        labels=np.array(labels, dtype=int),
        num_classes=ds.num_classes,
        pooling="concat",
        indices=np.array(windows, dtype=int),
    )


def sequence_data(ds: SequenceDataset, vocab: Vocabulary) -> ProbeData:
    """One mean-pooled example per text; tokens outside the vocab hit OOV."""
    rows_per_text = []
    for i, text in enumerate(ds.texts):
        toks = tokenize(text)
        if not toks:
            raise ValueError(f"text {i} tokenizes to nothing; cannot featurize")
        rows_per_text.append(_ranks_to_rows(toks, vocab))
    return _padded_mean_data(rows_per_text, np.array(ds.labels, dtype=int),
                             ds.num_classes, vocab.size)


def synthetic_feature_data(ds: SyntheticDataset) -> ProbeData:
    return ProbeData(labels=ds.labels.astype(int), num_classes=ds.num_classes,
                     pooling="direct", features=ds.features)


def synthetic_token_data(ds: SyntheticDataset, vocab: Vocabulary) -> ProbeData:
    rows_per_text = [_ranks_to_rows(toks, vocab) for toks in ds.tokens]
    return _padded_mean_data(rows_per_text, ds.labels.astype(int),
                             ds.num_classes, vocab.size)


def _padded_mean_data(rows_per_text, labels, num_classes, vocab_size) -> ProbeData:
    pad_row = vocab_size + 1
    lengths = np.array([len(r) for r in rows_per_text], dtype=int)
    width = int(lengths.max())
    idx = np.full((len(rows_per_text), width), pad_row, dtype=int)
    for i, rows in enumerate(rows_per_text):
        idx[i, : len(rows)] = rows
    return ProbeData(labels=labels, num_classes=num_classes, pooling="mean",
                     indices=idx, lengths=lengths)


# --- model -----------------------------------------------------------------


@dataclass
class ProbeModel:
    w1: np.ndarray  # (hidden, input_dim)
    w2: np.ndarray  # (num_classes, hidden)
    table: EmbeddingTable | None = None
    pooling: str = "direct"


def init_probe(input_dim: int, num_classes: int, hidden: int = 512,
               seed: int = 0, table: EmbeddingTable | None = None,
               pooling: str = "direct") -> ProbeModel:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weight init."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    b1 = 1.0 / np.sqrt(input_dim)
    b2 = 1.0 / np.sqrt(hidden)
    return ProbeModel(
        w1=rng.uniform(-b1, b1, (hidden, input_dim)),
        w2=rng.uniform(-b2, b2, (num_classes, hidden)),
        table=table,
        pooling=pooling,
    )


def gather_features(data: ProbeData, table: EmbeddingTable | None,
                    sel=slice(None)) -> np.ndarray:
    """Materialize the (B, input_dim) feature block for selected examples."""
    if data.pooling == "direct":
        return data.features[sel]
    if table is None:
        raise ValueError(f"{data.pooling} pooling requires an embedding table")
    idx = data.indices[sel]
    gathered = table.rows[idx]  # (B, w, d)
    if data.pooling == "concat":
        return gathered.reshape(len(idx), -1)
    return gathered.sum(axis=1) / data.lengths[sel][:, None]


def _layers(model: ProbeModel, h: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pre-activation W1 h, hidden relu(W1 h), and the logits W2 hidden
    shifted by their row maximum."""
    pre = h @ model.w1.T
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ model.w2.T
    return pre, hidden, logits - logits.max(axis=1, keepdims=True)


def forward(model: ProbeModel, h: np.ndarray) -> np.ndarray:
    """softmax(W2 relu(W1 h)), stabilized by max subtraction."""
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("probe input must be finite")
    single = h.ndim == 1
    expl = np.exp(_layers(model, h[None, :] if single else h)[2])
    probs = expl / expl.sum(axis=1, keepdims=True)
    return probs[0] if single else probs


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
    """
    h = np.asarray(h, dtype=float)
    if not np.isfinite(h).all():
        raise ValueError("probe input must be finite")
    labels = np.asarray(labels, dtype=int)
    batch = len(labels)
    pre, hidden, logits = _layers(model, h)
    expl = np.exp(logits)
    probs = expl / expl.sum(axis=1, keepdims=True)
    logz = np.log(expl.sum(axis=1))
    loss = float(-(logits[np.arange(batch), labels] - logz).mean())

    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    grads = {
        "w2": dlogits.T @ hidden,
    }
    dhidden = (dlogits @ model.w2) * (pre > 0)
    grads["w1"] = dhidden.T @ h
    table = model.table
    if table is not None and table.trainable and indices is not None:
        dh = dhidden @ model.w1  # (B, input_dim)
        d = table.d
        if model.pooling == "concat":
            seg = dh.reshape(-1, d)
        elif model.pooling == "mean":
            seg = np.repeat(dh / lengths[:, None], indices.shape[1], axis=0)
        else:
            raise ValueError("direct pooling has no table rows to differentiate")
        # One flat bincount over (row, column) cells adds each cell's terms
        # in batch order, as np.add.at does, so the sums are bit-identical.
        cells = (indices.reshape(-1, 1) * d + np.arange(d)).ravel()
        gtable = np.bincount(cells, weights=seg.ravel(),
                             minlength=table.rows.size).reshape(table.rows.shape)
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
    beta2=0.999, eps=1e-8). Parameter names are visited in sorted order."""
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
    model = init_probe(input_dim, train.num_classes, hidden=config.hidden,
                       seed=config.seed, table=table, pooling=train.pooling)
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
            sel = perm[start : start + config.batch_size]
            h = gather_features(train, table, sel)
            loss, grads = backward(
                model, h, train.labels[sel],
                indices=None if train.indices is None else train.indices[sel],
                lengths=None if train.lengths is None else train.lengths[sel],
            )
            if not np.isfinite(loss):
                raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
            adam_step(state, params, grads, lr)
            loss_sum += loss * len(sel)
            seen += len(sel)
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

