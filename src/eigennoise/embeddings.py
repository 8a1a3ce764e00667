"""Embedding tables: rank-indexed vectors plus reserved OOV and PAD rows.

A table for a vocabulary of N ranks has N+2 rows: row i-1 holds rank i's
vector, row N is the OOV row, row N+1 is the PAD row. PAD stays exactly
zero forever; OOV starts zero and may train in unfrozen mode.
``token_rows`` is the one map from tokens to these rows, and ``pad_row``
the one place the PAD row is decided.
"""

from __future__ import annotations

import functools
import math
import re
import string
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .vocab import Vocabulary

OOV_TOKEN = "<oov>"
PAD_TOKEN = "<pad>"

# word2vec/fastText ".vec" files open with a "<count> <dim>" line.
_VEC_HEADER = re.compile(r"[0-9]+ [0-9]+")

#: Lines ``import_text`` reads and parses at a time, which bounds its
#: memory. From 512 to 2,048 lines the time per line is flat; larger
#: chunks were slower (d=300: 4,096 lines +6%, 8,192 +13%) and hold more.
IMPORT_CHUNK_LINES = 1024

# The characters a value may hold. On values made of these, np.loadtxt
# and float() take the same strings and give the same doubles. A value
# holding another character is refused, though np.loadtxt alone takes
# \x1c..\x1f around a number, float() alone "1_0" and non-ASCII digits,
# and both take other whitespace around it.
_PLAIN = (string.digits + string.ascii_letters + "+-. ").encode("ascii")
# Lines checked against _PLAIN at once: 64 lines of a 1,024-line chunk
# were checked faster than the whole chunk in one string (0.45 against
# 0.66 ms at d=50), which also doubled the chunk's memory.
_PLAIN_CHECK_LINES = 64

# Values ``export_text`` formats per numpy pass. A pass costs about 40 us
# however small; larger passes hold more (a pass peaks at about 120
# bytes a value). Writing a 20,002x50 table took 0.18 s of CPU at
# 1,024 values, 0.15 s at 2,048 and at 4,096; 5,002x300 took 0.31, 0.24
# and 0.21 s.
_EXPORT_CHUNK_VALUES = 2048


@dataclass
class EmbeddingTable:
    rows: np.ndarray  # (N + 2, d)
    trainable: bool = False

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[0] < 3:
            raise ValueError(f"table needs (N + 2, d) rows, N >= 1, got {self.rows.shape}")

    @property
    def d(self) -> int:
        """Embedding dimension."""
        return self.rows.shape[1]

    @property
    def n(self) -> int:
        """Number of rank rows (vocabulary size)."""
        return self.rows.shape[0] - 2

    @property
    def pad_row(self) -> int:
        return pad_row(self.n)

    def copy(self, trainable: bool) -> "EmbeddingTable":
        return replace(self, rows=self.rows.copy(), trainable=trainable)


def pad_row(n: int) -> int:
    """The PAD row of a table with ``n`` rank rows: row N+1, after OOV."""
    return n + 1


def token_rows(vocab: Vocabulary, tokens: Iterable[str]) -> np.ndarray:
    """The table row of each token, as an int array: rank r is row r-1,
    and a token outside ``vocab`` is the OOV row N. Tokens are lower-cased
    first when the vocabulary is case-folded."""
    if vocab.case_folded:
        tokens = map(str.lower, tokens)
    # rank N+1 lands on row N, the OOV row
    ranks = map(vocab.rank_by_token.get, tokens, repeat(vocab.size + 1))
    return np.fromiter(ranks, dtype=int) - 1


def random_table(n: int, d: int, seed: int) -> EmbeddingTable:
    """Standard-normal table from a seeded counter-based generator.

    Uses numpy's Philox stream keyed by ``seed``, so tables are
    bit-reproducible per seed within this codebase. OOV and PAD rows are
    zero.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n, d >= 1, got n={n}, d={d}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows = np.zeros((n + 2, d))
    rng.standard_normal(out=rows[:n])  # drawn in place, in C order
    return EmbeddingTable(rows=rows)


@dataclass(frozen=True)
class AlignmentReport:
    matched: int
    unmatched: int

    @property
    def oov_rate(self) -> float:
        total = self.matched + self.unmatched
        return self.unmatched / total if total else 0.0

    def to_text(self) -> str:
        return (
            f"matched\t{self.matched}\n"
            f"unmatched\t{self.unmatched}\n"
            f"oov_rate\t{self.oov_rate:.6f}\n"
        )


def import_text(
    path: str | Path,
    vocab: Vocabulary,
    expected_d: int | None = None,
) -> tuple[EmbeddingTable, AlignmentReport]:
    """Load GloVe or word2vec/fastText ``.vec`` text vectors aligned to ``vocab``.

    Each line is "token v1 v2 ... vd"; trailing whitespace is ignored. A
    first line of exactly two integers is the ``.vec`` "<count> <dim>"
    header and is skipped after its dimension is checked. Every line is
    validated, but only vocabulary tokens are kept, matched against
    ``vocab.rank_by_token`` as written (no case folding). Vocabulary tokens
    missing from the file keep the zero OOV-style row and are counted as
    unmatched. On duplicate tokens the first line wins. A file with no
    vector line, even one whose dimension a header or ``expected_d``
    gives, is an error.

    The file is read IMPORT_CHUNK_LINES lines at a time, and each matched
    vector is written straight into the table, allocated at the first
    vector line: memory is the table and one chunk, not the file. A chunk's
    values are parsed by one ``np.loadtxt`` call, which rounds correctly.
    A value must be a string that ``float()`` takes, made of digits, ASCII
    letters and "+-."; so ``1_0``, non-ASCII digits and whitespace other
    than the separating space are refused. The first error in file order
    is raised, naming ``path:line``.
    """
    rows, matched, d = None, np.zeros(vocab.size, dtype=bool), expected_d
    with open(path, encoding="utf-8") as fh:
        numbered = enumerate(fh, start=1)
        while lines := list(islice(numbered, IMPORT_CHUNK_LINES)):
            d, tokens, block = _read_chunk(path, lines, d)
            if rows is None and tokens:
                rows = np.zeros((vocab.size + 2, d))
            for token, row in zip(tokens, block):
                rank = vocab.rank_by_token.get(token)
                if rank is not None and not matched[rank - 1]:
                    matched[rank - 1] = True
                    rows[rank - 1] = row
            del lines, tokens, block  # free the chunk before the next is read
    if rows is None:
        raise ValueError(f"{path}: empty embedding file")
    found = int(matched.sum())
    report = AlignmentReport(matched=found, unmatched=vocab.size - found)
    return EmbeddingTable(rows=rows), report


def _read_chunk(path, lines, d) -> tuple[int | None, list[str], np.ndarray]:
    """Parse (line number, line) pairs; return the dimension, and the token
    and the (lines, d) values of each vector line.

    One walk splits each line into its token and values and checks the
    value count. Every line before the first malformed one is then parsed
    in one ``np.loadtxt`` call when every value is plain (digits, ASCII
    letters and "+-."), so a bad value on an earlier line is reported
    first. When a value is not plain or loadtxt refuses one, the first
    value that is not plain or that ``float()`` refuses is located field
    by field.
    """
    tokens, rests, numbers, fault = [], [], [], None
    for lineno, line in lines:
        line = line.rstrip()
        if not line:
            continue
        if lineno == 1 and _VEC_HEADER.fullmatch(line):
            header_d = int(line.split(" ")[1])
            if d is not None and header_d != d:
                raise ValueError(
                    f"{path}:1: header declares {header_d} dimensions, expected {d}")
            d = header_d
            continue
        token, sep, rest = line.partition(" ")
        if not sep:
            fault = f"{path}:{lineno}: expected 'token v1 ... vd'"
            break
        count = rest.count(" ") + 1
        if d is None:
            d = count
        if count != d:
            fault = f"{path}:{lineno}: {count} values, expected {d}"
            break
        tokens.append(token)
        rests.append(rest)
        numbers.append(lineno)
    block = _parse_values(path, rests, numbers) if rests else ()
    if fault is not None:
        raise ValueError(fault)
    return d, tokens, block


def _plain(rests: list[str]) -> bool:
    """Whether every character of ``rests`` is in _PLAIN. Lines are
    checked _PLAIN_CHECK_LINES at a time, so no copy of the chunk is made."""
    for start in range(0, len(rests), _PLAIN_CHECK_LINES):
        part = "".join(rests[start:start + _PLAIN_CHECK_LINES])
        if not part.isascii() or part.encode("ascii").translate(None, _PLAIN):
            return False
    return True


def _parse_values(path, rests, numbers) -> np.ndarray:
    """The (lines, d) values of ``rests``, as ``_read_chunk`` describes;
    ``numbers`` holds their line numbers."""
    if _plain(rests):
        try:
            return np.loadtxt(rests, dtype=float, delimiter=" ", comments=None,
                              quotechar=None, ndmin=2)
        except ValueError:
            pass
    # float() refuses a plain value exactly when np.loadtxt does, so a
    # value is found here
    for lineno, rest in zip(numbers, rests):
        for col, f in enumerate(rest.split(" "), start=2):
            if _plain([f]):
                try:
                    float(f)
                    continue
                except ValueError:
                    pass
            raise ValueError(f"{path}:{lineno}: column {col}: cannot parse {f!r}")


# A value whose 8-digit significand s lies within this distance of a
# half-integer is left to the %-template: the kernel's s is off by less
# than 5e-8, so outside it np.rint(s) is the correctly rounded significand
# that %.8g prints (ties, which %.8g rounds half-even, fall inside).
_TIE_MARGIN = 1e-6


def _word(text: str) -> int:
    """``text``'s ASCII bytes as a little-endian integer."""
    return int.from_bytes(text.encode("ascii"), "little")


@functools.cache
def _format_tables() -> tuple[np.ndarray, ...]:
    """The lookup tables of ``_format_values`` (about 0.16 MB), built on
    first use.

    By 4-digit group: its ASCII digits, first digit in the low byte, and
    how many it keeps once trailing zeros are dropped (0 for 0; plus 4 for
    a low group). By the 11-bit exponent field of a double: the index of
    e0 = floor(log10 2**k), the decimal exponent of every double in that
    binade or one less, and 10**(7 - e0); zeros, subnormals and non-finite
    values get the index of e = 0 and a NaN scale. By decimal exponent e
    in [-308, 308], indexed e + 308: 10**(7 - e) and the pieces of the
    slot layout ``_format_values`` describes.
    """
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    groups = np.empty((10, 10, 10, 10, 4), np.uint8)  # by the group's four digits
    for place in range(4):
        groups[..., place] = ascii_digits.reshape([10 if i == place else 1 for i in range(4)])
    digits = groups.view("<u4").ravel().astype(np.uint64)
    kept = np.full((10, 10, 10, 10), 4, np.uint8)
    kept[..., 0], kept[..., 0, 0], kept[..., 0, 0, 0], kept[0, 0, 0, 0] = 3, 2, 1, 0
    kept_low = kept + 4
    kept_low[0, 0, 0, 0] = 0
    kept, kept_low = kept.ravel(), kept_low.ravel()
    masks = [(1 << 8 * count) - 1 for count in range(9)]  # the low bytes of a word
    layout = []  # (literal, shift left, shift right, suffix, integer, fraction, point)
    for e in range(-308, 309):
        if -4 <= e < 0:  # "0.", -e - 1 zeros, the digits
            layout.append((_word(" \0" + "0." + "0" * (-e - 1)), 56, 8, 0, 0, 0, 0))
            continue
        fixed = 0 <= e < 8
        point = e + 1 if fixed else 1  # digits before the point
        layout.append((_word(" "), 16, 48, 0 if fixed else _word(f"e{e:+03d}") << 24,
                       masks[point] if fixed else 0, masks[8] & ~masks[point],
                       _word(".") << 8 * point if point < 8 else 0))
    scale = np.array([float(f"1e{7 - e}") for e in range(-308, 309)])
    # k log10(2) stays over 4e-4 from an integer for every binade k, so
    # the floor is exact
    first = np.array([0, *(math.floor(k * math.log10(2)) for k in range(-1022, 1024)), 0],
                     np.int16) + 308
    first_scale = scale.take(first)
    first_scale[[0, -1]] = np.nan
    tables = (digits, kept, kept_low, first, first_scale, scale, np.array(masks, np.uint64),
              *np.array(list(zip(*layout)), np.uint64))
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _format_values(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bytes of ``" %.8g"`` for each value of the 2-D float64 array
    ``x``, in 16-byte slots with zero bytes as holes; and whether each slot
    is exact. The slots of inexact values (ties, non-finite values,
    subnormals, |x| below about 1e-301) hold garbage.

    A value's decimal exponent e and 8-digit significand m come from one
    lookup by its exponent field, one product and at most one carry. A
    slot holds " ", the sign, then in fixed notation with e < 0 "0.", -e-1
    zeros and the digits from byte 7; otherwise the digits with a point
    after the integer part (one digit in exponent notation) and, in
    exponent notation, "e+XX" or "e-XXX" from byte 11. Dropped trailing
    zeros are holes, and so is a point that no digit follows.
    """
    (digits, kept, kept_low, first, first_scale, scale, keep_mask, literal, shift_left,
     shift_right, suffix, integer, fraction, point) = _format_tables()
    field = (x.view(np.int64) >> 52) & 0x7FF
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        s = a * first_scale.take(field)  # in [1e7, 1e9) when finite
        exact = (np.abs(s - np.rint(s)) < 0.5 - _TIE_MARGIN) | (a == 0)
        e = first.take(field)
        e += s >= 1e8 - 0.5  # the significand needs e0 + 1
        s = a * scale.take(e)
        m = np.rint(s)
        exact &= np.abs(s - m) < 0.5 - _TIE_MARGIN
        m = m.astype(np.int64)
    high = (m * 3_518_437_209) >> 45  # m // 10_000 for 0 <= m < 2**32
    low = m - high * 10_000
    text = (digits.take(high, mode="clip")
            | digits.take(low, mode="clip") << np.uint64(32))
    keep = np.maximum(kept_low.take(low, mode="clip"), kept.take(high, mode="clip"))
    text &= keep_mask.take(keep) | integer.take(e)
    after = text & fraction.take(e)  # the digits after the point
    run = text + after * np.uint64(255) + (after != 0) * point.take(e)
    slots = np.empty(x.shape + (2,), "<u8")
    slots[..., 0] = (literal.take(e) | (x.view(np.uint64) >> np.uint64(63)) * np.uint64(0x2D00)
                     | run << shift_left.take(e))
    slots[..., 1] = (run >> shift_right.take(e) | (after >> np.uint64(56)) << np.uint64(16)
                     | suffix.take(e))
    return slots.view(np.uint8).reshape(x.shape + (16,)), exact


def _format_rows(labels: list[str], rows: np.ndarray, template: str) -> bytes:
    """The UTF-8 bytes of ``template % (label, *row)`` for each label and
    row: ``_format_values``' slots behind each label, holes removed. A row
    with an inexact value, and every row when a label holds a NUL, is
    formatted by ``template`` instead."""
    names = [label.encode("utf-8") for label in labels]
    slots, exact = _format_values(np.asarray(rows, dtype=np.float64))
    exact = exact.all(axis=1) & (b"\0" not in b"".join(names))
    heads = np.array(names, dtype=bytes)
    lines = np.empty((len(names), heads.itemsize + slots[0].size + 1), np.uint8)
    lines[:, :heads.itemsize] = heads.view(np.uint8).reshape(len(names), -1)
    lines[:, heads.itemsize:-1] = slots.reshape(len(names), -1)
    lines[:, -1] = ord("\n")
    if exact.all():
        return lines.tobytes().translate(None, b"\0")
    return b"".join(
        line.tobytes().translate(None, b"\0") if ok
        else (template % (label, *row.tolist())).encode("utf-8")
        for line, ok, label, row in zip(lines, exact, labels, rows))


def export_text(
    table: EmbeddingTable,
    path: str | Path,
    vocab: Vocabulary | None = None,
) -> None:
    """Write GloVe-compatible text: "token v1 ... vd", no header.

    Rank rows are labeled by their vocabulary tokens when ``vocab`` is
    given, otherwise "rank_<r>". The OOV and PAD rows are written last
    under reserved labels. Every value is written as ``%.8g``.

    The rows are formatted _EXPORT_CHUNK_VALUES values at a time, in this
    process, by a numpy kernel that gives the bytes of the
    ``"%s" + " %.8g" * d + "\\n"`` template (see ``_format_values``); a
    row holding a value the kernel cannot round exactly (a tie,
    non-finite, subnormal or below about 1e-301) is formatted by that
    template itself. If writing fails, the partial output is removed and
    ``OSError`` names the path and the cause.
    """
    if vocab is not None and vocab.size != table.n:
        raise ValueError(f"vocab size {vocab.size} != table size {table.n}")
    names = (vocab.tokens() if vocab is not None  # rank labels are made chunk by chunk
             else (f"rank_{r}" for r in range(1, table.n + 1)))
    labels = chain(names, (OOV_TOKEN, PAD_TOKEN))
    template = "%s" + " %.8g" * table.d + "\n"
    step = max(1, _EXPORT_CHUNK_VALUES // table.d)
    fh = open(path, "wb")
    try:
        with fh:
            for start in range(0, len(table.rows), step):
                fh.write(_format_rows(list(islice(labels, step)),
                                      table.rows[start:start + step], template))
    except BaseException as exc:
        Path(path).unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise OSError(f"{path}: {exc}") from exc
        raise
