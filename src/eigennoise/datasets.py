"""Task ingestion: CoNLL-style token classification, TSV sequence
classification, and seeded synthetic tasks for desk-scale experiments.

Label sets are ordered by first appearance in the file that defined
them; applying a training label set to dev/test never re-indexes
silently (unknown labels raise).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .vocab import tokenize


@dataclass(frozen=True)
class TokenDataset:
    """Sentences with one label per token (POS/NER-style)."""

    sentences: tuple[tuple[str, ...], ...]
    labels: tuple[tuple[str, ...], ...]  # parallel to sentences
    label_set: tuple[str, ...]
    split: str = "train"

    def __post_init__(self):
        if len(self.sentences) != len(self.labels):
            raise ValueError("sentences and labels must be parallel")
        known = set(self.label_set)
        for sent, labs in zip(self.sentences, self.labels):
            if len(sent) != len(labs):
                raise ValueError("every sentence needs one label per token")
            for lab in labs:
                if lab not in known:
                    raise ValueError(f"label {lab!r} in split {self.split!r} is "
                                     "unknown to the label set")

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


@dataclass(frozen=True)
class SequenceDataset:
    """Whole-text classification records."""

    texts: tuple[str, ...]
    labels: tuple[int, ...]  # indices into label_set
    label_set: tuple[str, ...]
    split: str = "train"

    def __post_init__(self):
        if len(self.texts) != len(self.labels):
            raise ValueError("texts and labels must be parallel")
        for lab in self.labels:
            if not 0 <= lab < len(self.label_set):
                raise ValueError(f"label id {lab} outside label_set")

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


def parse_conll(path: str | Path, token_column: int = 0,
                label_column: int = 3, split: str = "train") -> TokenDataset:
    """Whitespace-column format: blank line ends a sentence, lines
    starting with -DOCSTART- are skipped."""
    sentences: list[tuple[str, ...]] = []
    labels: list[tuple[str, ...]] = []
    label_set: list[str] = []
    seen = set()
    cur_toks: list[str] = []
    cur_labs: list[str] = []

    def flush():
        if cur_toks:
            sentences.append(tuple(cur_toks))
            labels.append(tuple(cur_labs))
            cur_toks.clear()
            cur_labs.clear()

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            if line.startswith("-DOCSTART-"):
                continue
            cols = line.split()
            width = max(token_column, label_column) + 1
            if len(cols) < width:
                raise ValueError(
                    f"{path}:{lineno}: {len(cols)} columns, need at least {width}"
                )
            tok, lab = cols[token_column], cols[label_column]
            cur_toks.append(tok)
            cur_labs.append(lab)
            if lab not in seen:
                seen.add(lab)
                label_set.append(lab)
    flush()
    if not sentences:
        raise ValueError(f"{path}: no sentences found")
    return TokenDataset(sentences=tuple(sentences), labels=tuple(labels),
                        label_set=tuple(label_set), split=split)


def write_conll(ds: TokenDataset, path: str | Path) -> None:
    """Two-column writer (token label) that parse_conll round-trips."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent, labs in zip(ds.sentences, ds.labels):
            for tok, lab in zip(sent, labs):
                fh.write(f"{tok} {lab}\n")
            fh.write("\n")


def parse_tsv(path: str | Path, split: str = "train") -> SequenceDataset:
    """One record per line: label<TAB>text. Label ids follow first appearance."""
    texts: list[str] = []
    ids: list[int] = []
    label_set: list[str] = []
    index: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected label<TAB>text")
            label, text = line.split("\t", 1)
            if label not in index:
                index[label] = len(label_set)
                label_set.append(label)
            ids.append(index[label])
            texts.append(text)
    if not texts:
        raise ValueError(f"{path}: empty dataset file")
    return SequenceDataset(texts=tuple(texts), labels=tuple(ids),
                           label_set=tuple(label_set), split=split)


def apply_label_set(ds, label_set: tuple[str, ...]):
    """Re-map a dev/test split onto the training label set.

    Unknown labels are an error, never a silent re-index.
    """
    if isinstance(ds, TokenDataset):  # __post_init__ rejects unknown labels
        return replace(ds, label_set=tuple(label_set))
    index = {lab: i for i, lab in enumerate(label_set)}
    new_ids = []
    for lab_id in ds.labels:
        name = ds.label_set[lab_id]
        if name not in index:
            raise ValueError(
                f"label {name!r} in split {ds.split!r} is unknown to the "
                "training label set"
            )
        new_ids.append(index[name])
    return replace(ds, labels=tuple(new_ids), label_set=tuple(label_set))


def resolve_case_fold(choice: str, task_format: str) -> bool:
    if choice == "on":
        return True
    if choice == "off":
        return False
    # auto: fold tweet-like text, keep case for token-column tasks
    return task_format != "conll"


def read_split(task_format: str, path, split: str, token_column: int,
               label_column: int):
    """Parse one ``tsv`` (label<TAB>text) or ``conll`` (columns) file."""
    if task_format == "tsv":
        return parse_tsv(path, split=split)
    return parse_conll(path, token_column=token_column,
                       label_column=label_column, split=split)


def dataset_tokens(ds) -> list[str]:
    """Every token of a tsv, conll or synthetic dataset, in stream order."""
    if isinstance(ds, SequenceDataset):
        return [t for text in ds.texts for t in tokenize(text)]
    sequences = ds.sentences if isinstance(ds, TokenDataset) else ds.tokens
    return [t for seq in sequences for t in seq]


# --- synthetic tasks -------------------------------------------------------

SYNTH_KINDS = ("separable", "noisy")
_SPLIT_INDEX = {"train": 0, "dev": 1, "test": 2}
_LEXICON_SIZE = 30
_SEQ_LEN_RANGE = (10, 21)
_NOISY_LEAK = 0.35  # chance a noisy-mode token ignores its class lexicon


@dataclass(frozen=True)
class SyntheticDataset:
    """Seeded Gaussian class clusters plus a token-sequence realization.

    ``features`` are the raw cluster samples (for probing vectors
    directly); ``tokens`` re-express each example as a sequence over
    class-specific lexicons so embedding tables have something to embed.
    """

    features: np.ndarray  # (n, d)
    labels: np.ndarray  # (n,) ints in 0..k-1
    label_set: tuple[str, ...]
    tokens: tuple[tuple[str, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


def synth_task(kind: str, n: int, d: int, k: int = 2, seed: int = 0,
               split: str = "train") -> SyntheticDataset:
    """Deterministic synthetic classification task.

    Class means sit (6/sqrt(2)) * e_class apart for "separable" (pairwise
    distance 6 sigma) and 1 sigma apart for "noisy". Token sequences
    draw Zipf-weighted tokens from a per-class lexicon; in noisy mode a
    fraction of tokens leaks from the shared vocabulary.
    """
    if kind not in SYNTH_KINDS:
        raise ValueError(f"kind must be one of {SYNTH_KINDS}, got {kind!r}")
    if n < k * 10:
        raise ValueError(f"need n >= 10 per class, got n={n}, k={k}")
    if d < k:
        raise ValueError(f"need d >= k to place class means, got d={d}, k={k}")
    if split not in _SPLIT_INDEX:
        raise ValueError(f"split must be one of {tuple(_SPLIT_INDEX)}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_SPLIT_INDEX[split],))
    rng = np.random.Generator(np.random.Philox(seed=seq))
    labels = rng.permutation(np.arange(n) % k)
    sep = 6.0 if kind == "separable" else 1.0
    means = np.zeros((k, d))
    means[np.arange(k), np.arange(k)] = sep / np.sqrt(2.0)
    features = means[labels] + rng.standard_normal((n, d))

    vocab_size = k * _LEXICON_SIZE
    zipf = 1.0 / np.arange(1, _LEXICON_SIZE + 1)
    zipf /= zipf.sum()
    zipf_all = 1.0 / np.arange(1, vocab_size + 1)
    zipf_all /= zipf_all.sum()
    tokens = []
    for lab in labels:
        length = int(rng.integers(_SEQ_LEN_RANGE[0], _SEQ_LEN_RANGE[1]))
        local = rng.choice(_LEXICON_SIZE, size=length, p=zipf)
        ids = lab * _LEXICON_SIZE + local
        if kind == "noisy":
            leak = rng.random(length) < _NOISY_LEAK
            ids = np.where(leak, rng.choice(vocab_size, size=length, p=zipf_all), ids)
        tokens.append(tuple(f"w{t:03d}" for t in ids))
    return SyntheticDataset(
        features=features,
        labels=labels,
        label_set=tuple(f"class_{c}" for c in range(k)),
        tokens=tuple(tokens),
    )
