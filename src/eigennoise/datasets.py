"""Task ingestion: CoNLL-style token classification, TSV sequence
classification, and seeded synthetic sequence tasks for desk-scale
experiments.

A task keeps its tokens and its labels as strings: a tsv text is
tokenized once, when its file is read, a synthetic text is drawn as
tokens, and labels become ids only at featurization. Label sets are
ordered by first appearance in the file that defined them (by class
number for synthetic tasks); applying a training label set to dev/test
never re-indexes silently (unknown labels raise). ``read_records``, the
one reader of conll, tsv and text files, streams; a conll or tsv read and
a synthetic draw hold one string object per distinct token and label, so
a task's strings grow with its types.
"""

from __future__ import annotations

from collections.abc import Iterator
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


def read_records(task_format: str, path: str | Path, token_column: int = 0,
                 label_column: int = 3) -> Iterator[tuple]:
    """Yield each record of a ``conll``, ``tsv`` or ``text`` file as it is
    read. A conll sentence comes out as (tokens, labels): a blank line ends
    it, lines starting with -DOCSTART- are skipped, and each line needs the
    token and label columns. A tsv line comes out as (tokens, label): it is
    label<TAB>text, whose text holds at least one token. A text line comes
    out as (tokens, None). The first fault in file order raises, naming its
    ``path:line``; a conll or tsv file without a record raises at its end."""
    width = max(token_column, label_column) + 1
    seen: dict[str, str] = {}  # one string object per distinct value
    toks, labs, found = [], [], False  # the conll sentence being read
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if task_format == "text":
                yield tuple(tokenize(line)), None
            elif task_format == "tsv":
                line = line.rstrip("\n")
                if not line:
                    continue
                if "\t" not in line:
                    raise ValueError(f"{path}:{lineno}: expected label<TAB>text")
                label, text = line.split("\t", 1)
                tokens = tuple(seen.setdefault(t, t) for t in tokenize(text))
                if not tokens:
                    raise ValueError(f"{path}:{lineno}: text tokenizes to nothing")
                found = True
                yield tokens, seen.setdefault(label, label)
            elif not line.strip():
                if toks:
                    yield tuple(toks), tuple(labs)
                    toks, labs, found = [], [], True
            elif not line.startswith("-DOCSTART-"):
                cols = line.split()
                if len(cols) < width:
                    raise ValueError(
                        f"{path}:{lineno}: {len(cols)} columns, need at least {width}")
                tok, lab = cols[token_column], cols[label_column]
                toks.append(seen.setdefault(tok, tok))
                labs.append(seen.setdefault(lab, lab))
    if toks:  # the last conll sentence
        yield tuple(toks), tuple(labs)
    elif not found and task_format != "text":
        raise ValueError(f"{path}: no sentences found" if task_format == "conll"
                         else f"{path}: empty dataset file")


def parse_conll(path: str | Path, token_column: int = 0,
                label_column: int = 3) -> TokenDataset:
    """A conll file's sentences; the label set follows first appearance."""
    sentences, labels = zip(*read_records("conll", path, token_column, label_column))
    return TokenDataset(tokens=sentences, labels=labels,
                        label_set=tuple(dict.fromkeys(chain.from_iterable(labels))))


def write_conll(ds: TokenDataset, path: str | Path) -> None:
    """Two-column writer (token label) that parse_conll round-trips."""
    with open(path, "w", encoding="utf-8") as fh:
        for sent, labs in zip(ds.tokens, ds.labels):
            for tok, lab in zip(sent, labs):
                fh.write(f"{tok} {lab}\n")
            fh.write("\n")


def parse_tsv(path: str | Path) -> SequenceDataset:
    """A tsv file's records; the label set follows first appearance."""
    tokens, labels = zip(*read_records("tsv", path))
    return SequenceDataset(tokens=tokens, labels=labels,
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
    names = [f"w{t:03d}" for t in range(vocab_size)]
    tokens = []
    for lab in labels:
        length = int(rng.integers(_SEQ_LEN_RANGE[0], _SEQ_LEN_RANGE[1]))
        local = rng.choice(_LEXICON_SIZE, size=length, p=zipf)
        ids = lab * _LEXICON_SIZE + local
        if kind == "noisy":
            leak = rng.random(length) < _NOISY_LEAK
            ids = np.where(leak, rng.choice(vocab_size, size=length, p=zipf_all), ids)
        tokens.append(tuple(map(names.__getitem__, ids.tolist())))
    label_set = tuple(f"class_{c}" for c in range(k))
    return SequenceDataset(tokens=tuple(tokens), labels=tuple(label_set[c] for c in labels),
                           label_set=label_set)
