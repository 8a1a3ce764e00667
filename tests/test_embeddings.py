import os
import tracemalloc

import numpy as np
import pytest

from eigennoise.embeddings import (
    MIN_BLOCK_ROWS,
    OOV_TOKEN,
    PAD,
    PAD_TOKEN,
    EmbeddingTable,
    export_text,
    import_text,
    random_table,
    row_index,
)
from eigennoise.vocab import OOV, build_vocab

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returned to this process during the test."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    if hasattr(os, "fork"):
        monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def test_random_table_standard_normal_statistics():
    table = random_table(20000, 50, seed=0)
    block = table.rows[:20000]
    assert abs(block.mean()) < 0.02
    assert abs(block.var() - 1.0) < 0.05
    np.testing.assert_array_equal(table.rows[20000:], np.zeros((2, 50)))


def test_random_table_seed_determinism():
    a = random_table(40, 8, seed=0)
    b = random_table(40, 8, seed=0)
    c = random_table(40, 8, seed=1)
    np.testing.assert_array_equal(a.rows, b.rows)
    assert (a.rows != c.rows).any()


def test_random_table_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        random_table(0, 5, seed=0)
    with pytest.raises(ValueError):
        random_table(5, 0, seed=0)


def test_row_index_mapping():
    assert row_index(10, 1) == 0
    assert row_index(10, 10) == 9
    assert row_index(10, OOV) == 10
    assert row_index(10, PAD) == 11
    with pytest.raises(ValueError):
        row_index(10, 11)
    with pytest.raises(ValueError):
        row_index(10, 0)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_import_text_alignment(tmp_path):
    vocab = build_vocab(["the", "cat", "the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 0.2\ncat 0.3 0.4\n")
    table, report = import_text(src, vocab)
    np.testing.assert_allclose(table.rows[0], [0.1, 0.2])
    np.testing.assert_allclose(table.rows[1], [0.3, 0.4])
    assert (report.matched, report.unmatched) == (2, 0)
    assert report.oov_rate == 0.0


def test_import_text_unmatched_token_gets_zero_row(tmp_path):
    vocab = build_vocab(["the", "cat", "the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 0.2\ndog 9.0 9.0\n")
    table, report = import_text(src, vocab)
    np.testing.assert_array_equal(table.rows[1], [0.0, 0.0])
    assert (report.matched, report.unmatched) == (1, 1)
    assert report.oov_rate == pytest.approx(0.5)
    assert "oov_rate\t0.5" in report.to_text()


def test_import_text_dimension_mismatch(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 0.2\n")
    with pytest.raises(ValueError, match="expected 25"):
        import_text(src, vocab, expected_d=25)


def test_import_text_ragged_line_reports_number(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 0.2\ncat 0.3\n")
    with pytest.raises(ValueError, match=":2:"):
        import_text(src, vocab)


def test_import_text_bad_number_reports_position(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 oops\n")
    with pytest.raises(ValueError, match=":1: column 3"):
        import_text(src, vocab)


def test_import_text_bad_number_outside_vocab_still_raises(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "the 0.1 0.2\ndog 0.3 x\n")
    with pytest.raises(ValueError, match=":2: column 3"):
        import_text(src, vocab)


def test_import_text_vec_header_and_trailing_spaces(tmp_path):
    vocab = build_vocab(["the", "cat", "the"])
    glove = _write(tmp_path / "emb.txt", "the 0.1 0.2\ndog 9.0 9.0\ncat 0.3 0.4\n")
    vec = _write(tmp_path / "emb.vec",
                 "3 2\nthe 0.1 0.2 \ndog 9.0 9.0 \r\ncat 0.3 0.4 \n")
    want, want_report = import_text(glove, vocab)
    for expected_d in (None, 2):
        got, report = import_text(vec, vocab, expected_d=expected_d)
        np.testing.assert_array_equal(got.rows, want.rows)
        assert report == want_report
    with pytest.raises(ValueError, match=":1: header declares 2 dimensions, expected 3"):
        import_text(vec, vocab, expected_d=3)


def test_import_text_empty_file(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "")
    with pytest.raises(ValueError, match="empty"):
        import_text(src, vocab)


def test_import_text_duplicate_first_wins(tmp_path):
    vocab = build_vocab(["the"])
    src = _write(tmp_path / "emb.txt", "the 1.0\nthe 2.0\n")
    table, _ = import_text(src, vocab)
    assert table.rows[0, 0] == 1.0


def test_export_import_round_trip(tmp_path):
    vocab = build_vocab(["alpha", "beta", "alpha"])
    table = random_table(2, 3, seed=11)
    out = tmp_path / "export.txt"
    export_text(table, out, vocab=vocab)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("alpha ")
    assert lines[2].split()[0] == OOV_TOKEN
    assert lines[3].split()[0] == PAD_TOKEN
    back, report = import_text(out, vocab)
    assert report.matched == 2
    np.testing.assert_allclose(back.rows[:2], table.rows[:2], rtol=1e-7)


def test_export_without_vocab_uses_rank_labels(tmp_path):
    table = random_table(3, 2, seed=0)
    out = tmp_path / "export.txt"
    export_text(table, out)
    first = out.read_text().splitlines()[0]
    assert first.split()[0] == "rank_1"


def test_export_bytes_match_per_value_format(tmp_path, monkeypatch, forks):
    values = [0.0, -0.0, 5e-324, 1e-5, 1e-4, 12345678.0, 123456789.0, 1e20,
              np.inf, -np.inf, np.nan, 1 / 3]
    # with 3 CPUs the larger table is written as 3 blocks, 2 of them forked
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for name, extra in (("small", 0), ("split", 3 * MIN_BLOCK_ROWS)):
        vocab = build_vocab(["żółw", "naïve", "żółw"] + [f"słowo{i}" for i in range(extra)])
        rows = np.zeros((vocab.size + 2, len(values)))
        rows[0:vocab.size:2] = values
        rows[1:vocab.size:2] = values[::-1]
        table = EmbeddingTable(rows=rows, d=len(values), source="imported")
        out = tmp_path / f"{name}.txt"
        export_text(table, out, vocab=vocab)
        labels = vocab.tokens() + [OOV_TOKEN, PAD_TOKEN]
        expected = "".join(
            label + " " + " ".join(f"{v:.8g}" for v in row) + "\n"
            for label, row in zip(labels, table.rows)
        )
        assert out.read_bytes() == expected.encode("utf-8")
    assert len(forks) == (2 if hasattr(os, "fork") else 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["small.txt", "split.txt"]


@needs_fork
def test_export_forked_blocks_match_in_process(tmp_path, monkeypatch, forks):
    table = random_table(20000, 50, seed=0)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    export_text(table, tmp_path / "forked.txt")
    assert len(forks) == 1
    monkeypatch.delattr(os, "fork")
    export_text(table, tmp_path / "in_process.txt")
    assert len(forks) == 1
    assert (tmp_path / "forked.txt").read_bytes() == (tmp_path / "in_process.txt").read_bytes()


def test_export_does_not_hold_the_table_as_python_floats(tmp_path):
    # 20,002 x 50 values as Python floats would take over 30 MB.
    table = random_table(20000, 50, seed=0)
    tracemalloc.start()
    try:
        export_text(table, tmp_path / "export.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_export_vocab_size_mismatch(tmp_path):
    vocab = build_vocab(["a", "b", "c"])
    table = random_table(2, 2, seed=0)
    with pytest.raises(ValueError, match="size"):
        export_text(table, tmp_path / "x.txt", vocab=vocab)


def test_table_copy_is_independent():
    table = random_table(4, 3, seed=2)
    clone = table.copy(trainable=True)
    clone.rows[0, 0] += 1.0
    assert table.rows[0, 0] != clone.rows[0, 0]
    assert clone.trainable and not table.trainable
