import tracemalloc

import numpy as np
import pytest

from eigennoise import embeddings
from eigennoise.embeddings import (
    IMPORT_CHUNK_LINES,
    OOV_TOKEN,
    PAD_TOKEN,
    EmbeddingTable,
    export_text,
    import_text,
    random_table,
    token_rows,
)
from eigennoise.vocab import build_vocab

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


@pytest.mark.parametrize("n, d, seed", [(1, 1, 0), (37, 5, 3), (20000, 50, 0)])
def test_random_table_matches_one_whole_draw(n, d, seed):
    # the in-place draw keeps the Philox stream and fill order of one
    # (n, d) draw, so tables are bit-identical to the earlier formula
    rng = np.random.Generator(np.random.Philox(key=seed))
    expected = np.zeros((n + 2, d))
    expected[:n] = rng.standard_normal((n, d))
    np.testing.assert_array_equal(random_table(n, d, seed).rows, expected)


def test_random_table_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        random_table(0, 5, seed=0)
    with pytest.raises(ValueError):
        random_table(5, 0, seed=0)


def test_row_index_mapping():
    voc = build_vocab(["the", "cat", "the", "sat"])  # the=1, cat=2, sat=3
    rows = token_rows(voc, ["the", "sat", "dog", "The", "cat"])
    np.testing.assert_array_equal(rows, [0, 2, 3, 3, 1])  # rank r is row r-1, OOV row N
    assert rows.dtype == int
    assert token_rows(voc, []).shape == (0,)
    folded = build_vocab(["The", "the", "Cat"], case_fold=True)
    np.testing.assert_array_equal(token_rows(folded, ["THE", "cat", "Dog"]), [0, 1, 2])


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


# Tokens hold characters that str.splitlines splits on (U+0085, U+2028) or
# that str.split() strips (U+00A0); the values are the IEEE edge cases.
# Every value is plain (digits, ASCII letters and "+-."), so every chunk
# is parsed by np.loadtxt; "1_0" and "١٢", which only float() takes, are
# refused (test_import_text_bulk_parse_keeps_error_messages).
_ODD_VOCAB = build_vocab(["the", "dog", "cat", "a\x85b", "c\u2028d", "\xa0e", "the"])
_ODD_LINES = [
    "the 0.1 -0.2",
    "a\x85b nan -inf",
    "dog 1e400 -0   ",
    "the 9 9",  # a duplicate: the first line wins
    "c\u2028d 2.2250738585072011e-308 4.9e-324",
    "\xa0e 10 12",
    "cat -nan +inf",
    "",
    "a\x85b 7 7",
    "zzz 1e-400 -1e400",
    "cat 3 4",
]


def _float_oracle(vocab, lines):
    """The table rows ``import_text`` must build from ``lines``: float()
    of each field, the first line of a token winning."""
    rows = np.zeros((vocab.size + 2, 2))
    seen = set()
    for line in lines:
        token, *fields = line.rstrip().split(" ")
        rank = vocab.rank_by_token.get(token)
        if fields and rank is not None and rank not in seen:
            seen.add(rank)
            rows[rank - 1] = [float(f) for f in fields]
    return rows


@pytest.mark.parametrize("text", [
    "\r\n".join(_ODD_LINES) + "\r\n",
    "11 2 \n" + "".join(line + (" \r\n" if i % 2 else " \n")
                       for i, line in enumerate(_ODD_LINES)),
], ids=["glove", "vec"])
def test_import_text_bulk_parse_matches_per_line(tmp_path, monkeypatch, text):
    src = tmp_path / "emb.txt"
    src.write_bytes(text.encode("utf-8"))
    monkeypatch.setattr(embeddings, "IMPORT_CHUNK_LINES", 3)
    table, report = import_text(src, _ODD_VOCAB)
    want = _float_oracle(_ODD_VOCAB, _ODD_LINES)
    assert np.array_equal(table.rows.view(np.uint64), want.view(np.uint64))
    assert report == import_text(src, _ODD_VOCAB, expected_d=2)[1]
    assert table.rows[0].tolist() == [0.1, -0.2]
    assert np.signbit(table.rows[1, 1]) and table.rows[1, 0] == np.inf
    assert table.rows[5].tolist() == [10.0, 12.0]
    assert (report.matched, report.unmatched) == (6, 0)


@pytest.mark.parametrize("text, expected_d, message", [
    ("the 1 2\ncat 3 4\ndog 5 6\ncat 0.5 x\n", None, "{src}:4: column 3: cannot parse 'x'"),
    ("the 1 2\ncat 3 4\ndog 5 6\nthe 7 8\nzzz x 1\n", None,
     "{src}:5: column 2: cannot parse 'x'"),
    ("the 1 2\ncat 3 4\ndog 5 6\ncat 1 2 3\ndog x 1\n", None, "{src}:4: 3 values, expected 2"),
    ("the 1 2\ncat 3 4\ndog 5 6\ndog x 1\ncat 1\n", None, "{src}:4: column 2: cannot parse 'x'"),
    ("the 1 2\ncat 3 4\ndog 5 6\ntok  1\n", None, "{src}:4: column 2: cannot parse ''"),
    ("the 1 2\ncat 3 4\ndog 5 6\nthe 7 8\nlonely\n", None,
     "{src}:5: expected 'token v1 ... vd'"),
    ("2 3\nthe 1 2 3\n", 2, "{src}:1: header declares 3 dimensions, expected 2"),
    ("", None, "{src}: empty embedding file"),
    ("\n \n\n\n", None, "{src}: empty embedding file"),
    ("", 2, "{src}: empty embedding file"),
    ("2 2\n\n", None, "{src}: empty embedding file"),
    ("2 2\n", 2, "{src}: empty embedding file"),
    ("the 1 2\ncat 3 4\ndog 5 6\ncat 1_0 x\n", None, "{src}:4: column 2: cannot parse '1_0'"),
    ("the 1 2\ncat 3 4\ndog 5 6\ncat 1 1_0\n", None, "{src}:4: column 3: cannot parse '1_0'"),
    ("the 1 2\ncat 3 4\ndog 5 6\ncat \u0661\u0662 1\n", None,
     "{src}:4: column 2: cannot parse '\u0661\u0662'"),
    ("the 1 2\ncat 3 4\ndog 5 6\ncat 1 \t2\n", None, "{src}:4: column 3: cannot parse '\\t2'"),
], ids=["bad-value-in-vocab", "bad-value-outside-vocab", "count-before-bad-value",
        "bad-value-before-count", "empty-field", "no-values", "header-dimension",
        "empty-file", "blank-lines", "empty-file-expected-d", "header-only",
        "header-only-expected-d", "bad-value-in-non-plain-chunk", "underscore",
        "non-ascii-digits", "tab-before-value"])
def test_import_text_bulk_parse_keeps_error_messages(tmp_path, monkeypatch, text,
                                                     expected_d, message):
    src = _write(tmp_path / "emb.txt", text)
    monkeypatch.setattr(embeddings, "IMPORT_CHUNK_LINES", 3)
    with pytest.raises(ValueError) as exc:
        import_text(src, build_vocab(["the", "cat", "dog"]), expected_d=expected_d)
    assert str(exc.value) == message.format(src=src)


def test_import_text_rejects_what_only_loadtxt_accepts(tmp_path):
    # np.loadtxt reads "\x1c1" as 1; float() refuses it, and so does the import
    src = _write(tmp_path / "emb.txt", "the 1 2\ncat \x1c1 2\n")
    with pytest.raises(ValueError) as exc:
        import_text(src, build_vocab(["the", "cat"]))
    assert str(exc.value) == f"{src}:2: column 2: cannot parse '\\x1c1'"


def test_import_text_memory_does_not_grow_with_the_file(tmp_path):
    vocab = build_vocab([f"w{i}" for i in range(100)])
    rng = np.random.default_rng(0)
    peaks = []
    for n_lines in (3 * IMPORT_CHUNK_LINES, 30 * IMPORT_CHUNK_LINES):
        src = tmp_path / f"emb{n_lines}.txt"
        with open(src, "w", encoding="utf-8") as fh:
            for i, row in enumerate(rng.standard_normal((n_lines, 8)).tolist()):
                fh.write(f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n")
        tracemalloc.start()
        try:
            import_text(src, vocab)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2**16, peaks


def test_import_text_holds_each_vector_once(tmp_path, monkeypatch):
    # Every line is a vocabulary vector, so a second copy of the matched
    # vectors beside the table would double what the table takes. Small
    # chunks keep the parse's temporaries well below the table's size. At
    # the default size a chunk's lines and their values take about the
    # table's bytes, and a copy of the chunk's values to check their
    # characters took the peak to 2.5 times.
    n, d = 5000, 50
    vocab = build_vocab([f"w{i}" for i in range(n)])
    rng = np.random.default_rng(3)
    values = rng.standard_normal((n + 1, d))
    order = rng.permutation(n)
    src = tmp_path / "emb.txt"
    with open(src, "w", encoding="utf-8") as fh:
        for i, row in zip([*order, order[0]], values.tolist()):
            fh.write(f"w{i} " + " ".join(f"{v:.6f}" for v in row) + "\n")
    table_bytes = (n + 2) * d * 8
    for chunk_lines, bound in ((128, 1.5), (IMPORT_CHUNK_LINES, 2.3)):
        monkeypatch.setattr(embeddings, "IMPORT_CHUNK_LINES", chunk_lines)
        tracemalloc.start()
        try:
            table, report = import_text(src, vocab)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * table_bytes, (chunk_lines, peak, table_bytes)
    assert (report.matched, report.unmatched) == (n, 0)
    # the duplicate line for w<order[0]> comes last; its first line wins
    np.testing.assert_allclose(table.rows[order[0]], values[0], atol=5e-7)
    np.testing.assert_allclose(table.rows[order], values[:n], atol=5e-7)


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


def _export_edge_values() -> list[float]:
    """Values at every branch of the export kernel and of the choice
    between it and the %-template: zeros, a subnormal, non-finite values,
    the switch from fixed to exponent notation, carries into a ninth digit,
    exact ties, each power of ten from 1e-6 to 1e9 with its neighbours, and
    float32-born values."""
    values = [0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan, 1e-5, 1e-4, 99999999.5,
              99999995.0, 1e8, 12345678.5, 123456785.0, 9.99999995e-05, 1e22, 1e-300,
              1 / 3, -2.5e-7, 1234567.5, 2.0**-12]
    for k in range(-6, 10):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    values += np.random.default_rng(5).standard_normal(16).astype(np.float32).tolist()
    return values


def test_export_bytes_match_per_value_format(tmp_path, monkeypatch):
    inexact = []  # rows the kernel leaves to the template, per chunk
    format_values = embeddings._format_values

    def counting(x):
        slots, exact = format_values(x)
        inexact.append(int((~exact.all(axis=1)).sum()))
        return slots, exact

    monkeypatch.setattr(embeddings, "_format_values", counting)
    edges = np.array(_export_edge_values())
    rng = np.random.default_rng(23)
    sweep = 10.0 ** rng.uniform(-30, 30, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    # 9-digit decimals ending in 5: their significands lie at or near a tie
    near_ties = [float(f"{m}5e{k}") for m, k in zip(rng.integers(10**7, 10**8, 5000),
                                                     rng.integers(-30, 30, 5000))]
    tables = [
        # each edge value beside its negation, under UTF-8 labels
        ("edges", np.stack([edges, -edges], axis=1), ["żółw", "naïve", "żółw"]),
        ("sweep", sweep.reshape(-1, 50), None),
        ("near-ties", np.reshape(near_ties, (-1, 1)), None),
        # a label holding a NUL sends its chunk to the template
        ("d300", rng.standard_normal((40, 300)), ["nul\0", "d300", "nul\0"]),
    ]
    for name, values, tokens in tables:
        # the two distinct tokens and one more per remaining rank row
        vocab = tokens and build_vocab(tokens + [f"słowo{i}" for i in range(len(values) - 2)])
        rows = np.zeros((len(values) + 2, values.shape[1]))
        rows[:len(values)] = values
        table = EmbeddingTable(rows=rows)
        out = tmp_path / f"{name}.txt"
        inexact.clear()
        export_text(table, out, vocab=vocab)
        labels = (vocab.tokens() if vocab else [f"rank_{r}" for r in range(1, table.n + 1)])
        expected = "".join(
            label + " " + " ".join(f"{v:.8g}" for v in row) + "\n"
            for label, row in zip(labels + [OOV_TOKEN, PAD_TOKEN], table.rows)
        )
        assert out.read_bytes() == expected.encode("utf-8"), name
        if name == "edges":
            assert 0 < sum(inexact) < len(rows), inexact
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "d300.txt", "edges.txt", "near-ties.txt", "sweep.txt"]


def test_export_does_not_hold_the_table_as_python_floats(tmp_path):
    # 20,002 x 50 values as Python floats would take over 30 MB, and all
    # 20,002 "rank_<r>" labels at once about 1.3 MB: each chunk's labels
    # are made as that chunk is written.
    table = random_table(20000, 50, seed=0)
    tracemalloc.start()
    try:
        export_text(table, tmp_path / "export.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.08 * table.rows.nbytes


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
