"""Embedding tables: rank-indexed vectors plus reserved OOV and PAD rows.

A table for a vocabulary of N ranks has N+2 rows: row i-1 holds rank i's
vector, row N is the OOV row, row N+1 is the PAD row. PAD stays exactly
zero forever; OOV starts zero and may train in unfrozen mode.
``token_rows`` is the one map from tokens to these rows, and ``pad_row``
the one place the PAD row is decided.
"""

from __future__ import annotations

import os
import re
import shutil
import string
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import islice, repeat
from pathlib import Path
from typing import IO, Iterable

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

# The characters of a chunk's values that np.loadtxt parses. Others (say
# \x1c..\x1f, which np.loadtxt strips around a number but
# np.array(fields, float) rejects) send the chunk to np.array.
_PLAIN = (string.digits + string.ascii_letters + "+-. ").encode("ascii")

#: Fewest rows ``export_text`` gives one block. Forking a writer and
#: copying its file back costs about as much as formatting 250 rows at
#: d=50 (2 cores); twice that leaves a margin.
MIN_BLOCK_ROWS = 500


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
    values are parsed by one ``np.loadtxt`` call, or by one
    ``np.array(fields, float)`` call when a value holds a character
    outside digits, ASCII letters and "+-." or loadtxt rejects it; the
    latter accepts what loadtxt refuses (such as ``1_0``). Both round
    correctly, so the table is the same either way. The first error in
    file order is raised, naming ``path:line``.
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
    in one call, so a bad value on an earlier line is reported first: by
    ``np.loadtxt`` when every value is plain (digits, ASCII letters and
    "+-."), else, or when loadtxt refuses, by ``np.array(fields, float)``.
    Only a value that both refuse is located field by field.
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


def _parse_values(path, rests, numbers) -> np.ndarray:
    """The (lines, d) values of ``rests``, as ``_read_chunk`` describes;
    ``numbers`` holds their line numbers."""
    values = "".join(rests)
    if values.isascii() and not values.encode("ascii").translate(None, _PLAIN):
        try:
            return np.loadtxt(rests, dtype=float, delimiter=" ", comments=None,
                              quotechar=None, ndmin=2)
        except ValueError:
            pass
    fields = [rest.split(" ") for rest in rests]
    try:
        return np.array(fields, dtype=float)
    except ValueError:
        for lineno, row in zip(numbers, fields):
            for col, f in enumerate(row, start=2):
                try:
                    float(f)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: column {col}: cannot parse {f!r}"
                    ) from None
        raise


def _write_rows(fh, labels, rows, template: str) -> None:
    """Write each row under its label with one %-template call. Rows are
    converted one at a time so the table never exists as N*d Python
    floats."""
    for label, row in zip(labels, rows):
        fh.write(template % (label, *row.tolist()))


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """Contiguous (start, stop) row blocks, one per CPU while each keeps
    at least MIN_BLOCK_ROWS rows."""
    count = max(1, min(os.cpu_count() or 1, n_rows // MIN_BLOCK_ROWS))
    edges = [n_rows * i // count for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def _fork_writer(directory: Path, stack: ExitStack, write,
                 *args) -> tuple[int, IO[bytes], int]:
    """Fork a child that runs ``write(fh, *args)`` into an unnamed
    temporary file in ``directory`` and leaves with ``os._exit``. Returns
    the child's pid, the file, and the read end of a pipe that carries the
    child's error message; ``stack`` closes both."""
    tmp = stack.enter_context(tempfile.TemporaryFile(dir=directory))
    err_read, err_write = os.pipe()
    stack.callback(os.close, err_read)
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                with open(tmp.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                    write(fh, *args)
                status = 0
            except BaseException as exc:
                os.write(err_write, f"{type(exc).__name__}: {exc}".encode()[:1024])
            finally:
                os._exit(status)
    finally:
        os.close(err_write)  # only the parent gets here
    return pid, tmp, err_read


def _reap(pid: int, err_read: int) -> str | None:
    """Wait for a writer child; None if it succeeded, else the cause."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code == 0:
        return None
    message = os.read(err_read, 1024).decode(errors="replace")
    if message:
        return message
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def export_text(
    table: EmbeddingTable,
    path: str | Path,
    vocab: Vocabulary | None = None,
) -> None:
    """Write GloVe-compatible text: "token v1 ... vd", no header.

    Rank rows are labeled by their vocabulary tokens when ``vocab`` is
    given, otherwise "rank_<r>". The OOV and PAD rows are written last
    under reserved labels. Every value is written as ``%.8g``.

    The rows are split into min(CPUs, rows // MIN_BLOCK_ROWS) contiguous
    blocks. Where ``fork`` exists and no other thread runs, each block
    after the first is written by a forked child into an unnamed
    temporary file in the output's directory, while this process writes
    the first block into the output; the children's files are then
    appended in order. Otherwise (one block, no ``fork``, or other
    threads) every row is written here. The bytes are the same either
    way. If any block fails, every child is waited for, the partial
    output is removed, and ``OSError`` names the block's rows and the
    cause.
    """
    if vocab is not None and vocab.size != table.n:
        raise ValueError(f"vocab size {vocab.size} != table size {table.n}")
    labels = vocab.tokens() if vocab is not None else [
        f"rank_{r}" for r in range(1, table.n + 1)
    ]
    labels += [OOV_TOKEN, PAD_TOKEN]
    template = "%s" + " %.8g" * table.d + "\n"
    blocks = _row_blocks(len(labels))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        blocks = [(0, len(labels))]  # fork copies only the calling thread

    def write_block(fh, start: int, stop: int) -> None:
        _write_rows(fh, labels[start:stop], table.rows[start:stop], template)

    def failed(start: int, stop: int, cause) -> OSError:
        return OSError(f"{path}: writing rows {start}..{stop - 1}: {cause}")

    children = []  # (start, stop, pid, temporary file, error pipe), in row order
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh, ExitStack() as stack:
            directory = Path(path).resolve().parent
            for start, stop in blocks[1:]:
                children.append((start, stop, *_fork_writer(directory, stack, write_block,
                                                             start, stop)))
            try:
                write_block(fh, *blocks[0])
                fh.flush()
            except OSError as exc:
                raise failed(*blocks[0], exc) from exc
            while children:
                start, stop, pid, tmp, err_read = children.pop(0)
                cause = _reap(pid, err_read)
                if cause is not None:
                    raise failed(start, stop, cause)
                tmp.seek(0)
                try:
                    shutil.copyfileobj(tmp, fh.buffer)
                    fh.buffer.flush()
                except OSError as exc:
                    raise failed(start, stop, exc) from exc
    except BaseException:
        for _, _, pid, _, _ in children:
            os.waitpid(pid, 0)
        Path(path).unlink(missing_ok=True)
        raise
