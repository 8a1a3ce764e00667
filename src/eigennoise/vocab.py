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

from .defaults import DEFAULT_MAX_SIZE

# Characters stripped from token edges when tokenizing raw text.
_PUNCT = ".,!?;:\"'()[]{}<>"


@dataclass(frozen=True)
class Vocabulary:
    """Immutable (token, count) list, most frequent first: the entry at
    position i has rank i + 1.

    A token is non-empty and holds no space, tab, CR or LF: those separate
    the fields and lines of the vocabulary and vector files.

    ``rank_by_token`` holds the ranks of the tokens as stored: when
    ``case_folded``, a token must be lower-cased before it is looked up.
    """

    entries: tuple[tuple[str, int], ...]  # (token, count), rank ascending
    case_folded: bool = False
    rank_by_token: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        """Check the entries; each failure names the first offending one."""
        rank_by_token: dict[str, int] = {}
        for rank, (tok, count) in enumerate(self.entries, start=1):
            if not tok or " " in tok or "\t" in tok or "\r" in tok or "\n" in tok:
                raise ValueError(f"vocabulary tokens must be non-empty and hold no space, "
                                 f"tab, CR or LF: token {tok!r} at rank {rank}")
            if count <= 0:
                raise ValueError(f"vocabulary counts must be positive: "
                                 f"token {tok!r} at rank {rank} has count {count}")
            if rank > 1 and count > self.entries[rank - 2][1]:
                raise ValueError(f"vocabulary counts must be non-increasing with rank: "
                                 f"token {tok!r} at rank {rank} has count {count}, "
                                 f"above {self.entries[rank - 2][1]} at rank {rank - 1}")
            first = rank_by_token.setdefault(tok, rank)
            if first != rank:
                raise ValueError(f"token {tok!r} is listed at ranks {first} and {rank}")
        object.__setattr__(self, "rank_by_token", rank_by_token)

    @property
    def size(self) -> int:
        return len(self.entries)

    def tokens(self) -> list[str]:
        return [tok for tok, _ in self.entries]


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
    # a Counter holds its keys in first-occurrence order, and most_common
    # keeps that order among equal counts
    return Vocabulary(entries=tuple(counts.most_common(max_size)), case_folded=case_fold)


def write_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """One record per line: token<TAB>count<TAB>rank, ranks ascending."""
    with open(path, "w", encoding="utf-8") as fh:
        for rank, (tok, count) in enumerate(vocab.entries, start=1):
            fh.write(f"{tok}\t{count}\t{rank}\n")


def read_vocab(path: str | Path) -> Vocabulary:
    """Read a ``write_vocab`` file, whose rank column must run 1..N in order."""
    entries, ranks = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected token<TAB>count<TAB>rank")
            try:
                entries.append((parts[0], int(parts[1])))
                ranks.append(int(parts[2]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: count and rank must be integers, "
                                 f"got {parts[1]!r} and {parts[2]!r}") from None
    if not entries:
        raise ValueError(f"{path}: empty vocabulary file")
    # the entries above the first misplaced rank are checked before it
    gap = next((i for i, rank in enumerate(ranks) if rank != i + 1), len(ranks))
    try:
        vocab = Vocabulary(entries=tuple(entries[:gap]))
        if gap < len(ranks):
            raise ValueError(f"vocabulary ranks must be exactly 1..N in order: token "
                             f"{entries[gap][0]!r} has rank {ranks[gap]} where {gap + 1} belongs")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return vocab


def token_stream(path: str | Path) -> Iterable[str]:
    """Tokens of a plain-text file, one line at a time."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            yield from tokenize(line)
