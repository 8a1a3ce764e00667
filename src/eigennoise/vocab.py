"""Rank-frequency vocabulary built from a target task's training tokens.

Ranks are 1-based: rank 1 is the most frequent token. Equal counts are
broken by first occurrence in the token stream, so construction is
deterministic for a fixed stream order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

#: Sentinel rank returned for tokens outside the vocabulary.
OOV = -1

DEFAULT_MAX_SIZE = 20_000

# Characters stripped from token edges when tokenizing raw text.
_PUNCT = ".,!?;:\"'()[]{}<>"


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token -> (count, rank) map with ranks 1..N."""

    entries: tuple[tuple[str, int, int], ...]  # (token, count, rank), rank ascending
    case_folded: bool = False
    _rank_by_token: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the entries; each failure names the first offending one."""
        rank_by_token: dict[str, int] = {}
        for i, (tok, count, rank) in enumerate(self.entries):
            if rank != i + 1:
                raise ValueError(f"vocabulary ranks must be exactly 1..N in order: "
                                 f"token {tok!r} has rank {rank} where {i + 1} belongs")
            if count <= 0:
                raise ValueError(f"vocabulary counts must be positive: "
                                 f"token {tok!r} at rank {rank} has count {count}")
            if i and count > self.entries[i - 1][1]:
                raise ValueError(f"vocabulary counts must be non-increasing with rank: "
                                 f"token {tok!r} at rank {rank} has count {count}, "
                                 f"above {self.entries[i - 1][1]} at rank {rank - 1}")
            first = rank_by_token.setdefault(tok, rank)
            if first != rank:
                raise ValueError(f"token {tok!r} is listed at ranks {first} and {rank}")
        object.__setattr__(self, "_rank_by_token", rank_by_token)

    @property
    def size(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[str]:
        return [tok for tok, _, _ in self.entries]


def tokenize(text: str) -> list[str]:
    """Whitespace-split ``text`` after stripping edge punctuation.

    Tokens that are pure punctuation vanish; interior punctuation
    (e.g. hyphens, apostrophes mid-word) is kept.
    """
    out = []
    for raw in text.split():
        tok = raw.strip(_PUNCT)
        if tok:
            out.append(tok)
    return out


def build_vocab(
    tokens: Sequence[str],
    case_fold: bool = False,
    max_size: int = DEFAULT_MAX_SIZE,
) -> Vocabulary:
    """Count and rank ``tokens``; most frequent gets rank 1.

    Ties are broken by first occurrence in the stream. At most
    ``max_size`` types are kept; the excess lowest-count tail maps to OOV.
    """
    if case_fold:
        tokens = [t.lower() for t in tokens]
    counts = Counter(tokens)
    if not counts:
        raise ValueError("cannot build a vocabulary from an empty token stream")
    if max_size < 1:
        raise ValueError(f"max_size must be >= 1, got {max_size}")
    first_seen: dict[str, int] = {}
    for pos, tok in enumerate(tokens):
        if tok not in first_seen:
            first_seen[tok] = pos
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], first_seen[kv[0]]))
    ordered = ordered[:max_size]
    entries = tuple(
        (tok, count, rank) for rank, (tok, count) in enumerate(ordered, start=1)
    )
    return Vocabulary(entries=entries, case_folded=case_fold)


def rank_of(vocab: Vocabulary, token: str) -> int:
    """Rank in 1..N for known tokens, :data:`OOV` otherwise."""
    if vocab.case_folded:
        token = token.lower()
    return vocab._rank_by_token.get(token, OOV)


def harmonic_number(n: int) -> float:
    """H_n = sum_{k=1..n} 1/k, summed in ascending k for determinism."""
    if n < 1:
        raise ValueError(f"harmonic_number requires n >= 1, got {n}")
    total = 0.0
    for k in range(1, n + 1):
        total += 1.0 / k
    return total


def write_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """One record per line: token<TAB>count<TAB>rank, ranks ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        for tok, count, rank in vocab.entries:
            fh.write(f"{tok}\t{count}\t{rank}\n")


def read_vocab(path: str | Path, case_folded: bool = False) -> Vocabulary:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected token<TAB>count<TAB>rank")
            try:
                entries.append((parts[0], int(parts[1]), int(parts[2])))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: count and rank must be integers, "
                                 f"got {parts[1]!r} and {parts[2]!r}") from None
    if not entries:
        raise ValueError(f"{path}: empty vocabulary file")
    try:
        return Vocabulary(entries=tuple(entries), case_folded=case_folded)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def token_stream(path: str | Path) -> Iterable[str]:
    """Tokens of a plain-text file, one line at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield from tokenize(line)
