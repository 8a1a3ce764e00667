"""Seeded input generator for the ``token-zipf`` workload.

Writes a CoNLL-style token tagging task whose tokens are drawn from a Zipf
(1/rank) law over a fixed rank space, plus the same pretrained-style
vectors twice: once as a GloVe text file and once as a fastText ``.vec``
file (count header line, trailing space on every vector line). The
program under test only ever sees these files.

Every type has one fixed tag; each token's label is replaced by a
different, uniformly drawn tag with probability ``LABEL_NOISE``. The
vectors carry a weak per-tag signal so the imported representation has
something to expose. Vectors exist for a seeded ``VECTOR_COVERAGE``
share of the ranks, so the ``matched`` count reported by an import is
known in advance and returned as ``expected_matched``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

RANKS = 20_000
TAGS = ("O", "PER", "LOC", "ORG", "MISC")
LABEL_NOISE = 0.10
VECTOR_COVERAGE = 0.90
DIM = 50
SENTENCE_LENGTH = (5, 21)  # half-open range of tokens per sentence
FILES = {"train": "zipf.train", "dev": "zipf.dev", "test": "zipf.test",
         "glove": "vectors.glove.txt", "vec": "vectors.vec"}


def _words(rng: np.random.Generator) -> list[str]:
    letters = rng.integers(0, 26, size=(RANKS, 8))
    words, seen = [], set()
    for rank, row in enumerate(letters, start=1):
        word = "".join(chr(97 + c) for c in row)
        if word in seen:
            word = f"{word}{rank}"
        seen.add(word)
        words.append(word)
    return words


def _sentences(rng, n_tokens: int, probs: np.ndarray, type_tag: np.ndarray):
    """Sentences of (rank index, tag index) pairs totalling ``n_tokens``."""
    ranks = rng.choice(RANKS, size=n_tokens, p=probs)
    tags = type_tag[ranks].copy()
    noisy = rng.random(n_tokens) < LABEL_NOISE
    shift = rng.integers(1, len(TAGS), size=n_tokens)
    tags[noisy] = (tags[noisy] + shift[noisy]) % len(TAGS)
    out, start = [], 0
    while start < n_tokens:
        length = int(rng.integers(*SENTENCE_LENGTH))
        out.append(list(zip(ranks[start:start + length], tags[start:start + length])))
        start += length
    return out, set(ranks.tolist())


def _write_conll(path: Path, sentences, words) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sent in sentences:
            for rank, tag in sent:
                fh.write(f"{words[rank]} X O {TAGS[tag]}\n")
            fh.write("\n")


def generate(out_dir: str | Path, seed: int, train_tokens: int) -> dict:
    """Write ``FILES`` under ``out_dir``. Returns ``train_types``, the
    vocabulary size of the train split, and ``expected_matched``, how many
    of those types have a vector."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = _words(rng)
    type_tag = rng.integers(0, len(TAGS), size=RANKS)
    probs = 1.0 / np.arange(1, RANKS + 1)
    probs /= probs.sum()

    paths = {name: out / file for name, file in FILES.items()}
    train_types = set()
    for split, n in (("train", train_tokens), ("dev", train_tokens // 4),
                     ("test", train_tokens // 4)):
        sentences, types = _sentences(rng, n, probs, type_tag)
        _write_conll(paths[split], sentences, words)
        if split == "train":
            train_types = types

    covered = np.sort(rng.choice(RANKS, size=int(VECTOR_COVERAGE * RANKS), replace=False))
    centroids = rng.standard_normal((len(TAGS), DIM))
    vectors = 0.5 * centroids[type_tag[covered]] + rng.standard_normal((len(covered), DIM))
    lines = [words[r] + " " + " ".join(f"{v:.6f}" for v in vec)
             for r, vec in zip(covered, vectors)]
    paths["glove"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["vec"].write_text(f"{len(lines)} {DIM}\n" + " \n".join(lines) + " \n",
                            encoding="utf-8")
    return {
        "train_types": len(train_types),
        "expected_matched": len(train_types & set(covered.tolist())),
    }
