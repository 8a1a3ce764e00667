"""Task ingestion: CoNLL-style token classification, TSV sequence
classification, and seeded synthetic sequence tasks for desk-scale
experiments.

A task keeps its tokens and its labels as strings: a tsv text is
tokenized once, when its file is read, a synthetic text is drawn as
tokens, and labels become ids only at featurization. Label sets are
ordered by first appearance in the file that defined them (by class
number for synthetic tasks); applying a training label set to dev/test
never re-indexes silently (unknown labels raise).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

from .defaults import CHOICES
from .vocab import tokenize


def _check_labels(labels, label_set: tuple[str, ...]) -> None:
    """Raise on the first label outside ``label_set``. A file's own label
    set holds all its labels, so only a training label set can miss one."""
    known = set(label_set)
    for lab in labels:
        if lab not in known:
            raise ValueError(f"label {lab!r} is unknown to the training label set")


@dataclass(frozen=True)
class TokenDataset:
    """Sentences with one label per token (POS/NER-style)."""

    tokens: tuple[tuple[str, ...], ...]  # one tuple per sentence
    labels: tuple[tuple[str, ...], ...]  # parallel to tokens
    label_set: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError("sentences and labels must be parallel")
        for sent, labs in zip(self.tokens, self.labels):
            if len(sent) != len(labs):
                raise ValueError("every sentence needs one label per token")
        _check_labels(chain.from_iterable(self.labels), self.label_set)

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


@dataclass(frozen=True)
class SequenceDataset:
    """Whole-text classification records, each text as its tokens (at
    least one)."""

    tokens: tuple[tuple[str, ...], ...]
    labels: tuple[str, ...]  # parallel to tokens
    label_set: tuple[str, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.labels):
            raise ValueError("tokens and labels must be parallel")
        for i, toks in enumerate(self.tokens):
            if not toks:
                raise ValueError(f"text {i} tokenizes to nothing")
        _check_labels(self.labels, self.label_set)

    @property
    def num_classes(self) -> int:
        return len(self.label_set)


def parse_conll(path: str | Path, token_column: int = 0,
                label_column: int = 3) -> TokenDataset:
    """Whitespace-column format: blank line ends a sentence, lines
    starting with -DOCSTART- are skipped."""
    sentences: list[tuple[str, ...]] = []
    labels: list[tuple[str, ...]] = []
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
    flush()
    if not sentences:
        raise ValueError(f"{path}: no sentences found")
    label_set = tuple(dict.fromkeys(chain.from_iterable(labels)))  # first appearance
    return TokenDataset(tokens=tuple(sentences), labels=tuple(labels),
                        label_set=label_set)


def write_conll(ds: TokenDataset, path: str | Path) -> None:
    """Two-column writer (token label) that parse_conll round-trips."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent, labs in zip(ds.tokens, ds.labels):
            for tok, lab in zip(sent, labs):
                fh.write(f"{tok} {lab}\n")
            fh.write("\n")


def parse_tsv(path: str | Path) -> SequenceDataset:
    """One record per line: label<TAB>text, the text kept as its tokens.
    The label set follows first appearance."""
    tokens: list[tuple[str, ...]] = []
    labels: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected label<TAB>text")
            label, text = line.split("\t", 1)
            toks = tuple(tokenize(text))
            if not toks:
                raise ValueError(f"{path}:{lineno}: text tokenizes to nothing")
            labels.append(label)
            tokens.append(toks)
    if not tokens:
        raise ValueError(f"{path}: empty dataset file")
    return SequenceDataset(tokens=tuple(tokens), labels=tuple(labels),
                           label_set=tuple(dict.fromkeys(labels)))


def resolve_case_fold(choice: str, task_format: str) -> bool:
    """auto folds tweet-like text and keeps case for token-column tasks."""
    return {"on": True, "off": False, "auto": task_format != "conll"}[choice]


def read_split(task_format: str, path, token_column: int, label_column: int):
    """Parse one ``tsv`` (label<TAB>text) or ``conll`` (columns) file."""
    if task_format == "tsv":
        return parse_tsv(path)
    return parse_conll(path, token_column=token_column, label_column=label_column)


# --- synthetic tasks -------------------------------------------------------

_SPLIT_INDEX = {"train": 0, "dev": 1, "test": 2}
_LEXICON_SIZE = 30
_SEQ_LEN_RANGE = (10, 21)
_NOISY_LEAK = 0.35  # chance a noisy-mode token ignores its class lexicon


def synth_task(kind: str, n: int, k: int = 2, seed: int = 0,
               split: str = "train") -> SequenceDataset:
    """Deterministic synthetic sequence classification task.

    ``n`` balanced, shuffled labels ``class_0`` .. ``class_<k-1>``; each
    text draws Zipf-weighted tokens from its class's lexicon, and in
    "noisy" mode a fraction of tokens leaks from the shared vocabulary.
    Each split seeds its own stream.
    """
    import numpy as np

    if kind not in CHOICES["kind"]:
        raise ValueError(f"kind must be one of {CHOICES['kind']}, got {kind!r}")
    if n < k * 10:
        raise ValueError(f"need n >= 10 per class, got n={n}, k={k}")
    if split not in _SPLIT_INDEX:
        raise ValueError(f"split must be one of {tuple(_SPLIT_INDEX)}")
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_SPLIT_INDEX[split],))
    rng = np.random.Generator(np.random.Philox(seed=seq))
    labels = rng.permutation(np.arange(n) % k)

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
    label_set = tuple(f"class_{c}" for c in range(k))
    return SequenceDataset(tokens=tuple(tokens), labels=tuple(label_set[c] for c in labels),
                           label_set=label_set)
