"""Embedding tables: rank-indexed vectors plus reserved OOV and PAD rows.

A table for a vocabulary of N ranks has N+2 rows: row i-1 holds rank i's
vector, row N is the OOV row, row N+1 is the PAD row. PAD stays exactly
zero forever; OOV starts zero and may train in unfrozen mode.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
import threading
from contextlib import ExitStack
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO

import numpy as np

from .vocab import OOV, Vocabulary

#: Sentinel index for out-of-sentence window positions.
PAD = -2

OOV_TOKEN = "<oov>"
PAD_TOKEN = "<pad>"

# word2vec/fastText ".vec" files open with a "<count> <dim>" line.
_VEC_HEADER = re.compile(r"[0-9]+ [0-9]+")

#: Fewest rows ``export_text`` gives one block. Forking a writer and
#: copying its file back costs about as much as formatting 250 rows at
#: d=50 (2 cores); twice that leaves a margin.
MIN_BLOCK_ROWS = 500


@dataclass
class EmbeddingTable:
    rows: np.ndarray  # (N + 2, d)
    d: int
    source: str  # eigennoise | random | imported
    trainable: bool = False

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != self.d:
            raise ValueError(f"rows shape {self.rows.shape} inconsistent with d={self.d}")
        if self.rows.shape[0] < 3:
            raise ValueError("table needs at least one rank row plus OOV and PAD")

    @property
    def n(self) -> int:
        """Number of rank rows (vocabulary size)."""
        return self.rows.shape[0] - 2

    @property
    def pad_row(self) -> int:
        return self.n + 1

    def copy(self, trainable: bool) -> "EmbeddingTable":
        return replace(self, rows=self.rows.copy(), trainable=trainable)


def row_index(table_n: int, rank_or_sentinel: int) -> int:
    """Map a rank (1..N) or OOV/PAD sentinel to a 0-based row index."""
    r = rank_or_sentinel
    if r == OOV:
        return table_n
    if r == PAD:
        return table_n + 1
    if not 1 <= r <= table_n:
        raise ValueError(f"rank {r} outside 1..{table_n}")
    return r - 1


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
    rows[:n] = rng.standard_normal((n, d))
    return EmbeddingTable(rows=rows, d=d, source="random")


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
    validated, but only vocabulary tokens are kept while streaming.
    Vocabulary tokens missing from the file keep the zero OOV-style row
    and are counted as unmatched. On duplicate tokens the first line wins.
    """
    found: dict[int, np.ndarray] = {}
    d = expected_d
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip()
            if not line:
                continue
            parts = line.split(" ")
            if lineno == 1 and _VEC_HEADER.fullmatch(line):
                header_d = int(parts[1])
                if d is not None and header_d != d:
                    raise ValueError(
                        f"{path}:1: header declares {header_d} dimensions, expected {d}"
                    )
                d = header_d
                continue
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'token v1 ... vd'")
            token, fields = parts[0], parts[1:]
            if d is None:
                d = len(fields)
            if len(fields) != d:
                raise ValueError(
                    f"{path}:{lineno}: {len(fields)} values, expected {d}"
                )
            try:
                vec = np.array(fields, dtype=float)
            except ValueError:
                for col, f in enumerate(fields, start=2):
                    try:
                        float(f)
                    except ValueError:
                        raise ValueError(
                            f"{path}:{lineno}: column {col}: cannot parse {f!r}"
                        ) from None
                raise
            rank = vocab._rank_by_token.get(token)
            if rank is not None:
                found.setdefault(rank, vec)
    if d is None:
        raise ValueError(f"{path}: empty embedding file")
    rows = np.zeros((vocab.size + 2, d))
    for rank, vec in found.items():
        rows[rank - 1] = vec
    report = AlignmentReport(matched=len(found), unmatched=vocab.size - len(found))
    return EmbeddingTable(rows=rows, d=d, source="imported"), report


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
