import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigennoise.vocab import (
    OOV,
    Vocabulary,
    build_vocab,
    harmonic_number,
    rank_of,
    read_vocab,
    tokenize,
    write_vocab,
)


def test_build_vocab_counts_and_ranks():
    voc = build_vocab(["the", "cat", "the"])
    assert voc.entries == (("the", 2, 1), ("cat", 1, 2))
    assert voc.size == 2


def test_build_vocab_tie_break_first_occurrence():
    voc = build_vocab(["a", "b"])
    assert rank_of(voc, "a") == 1
    assert rank_of(voc, "b") == 2
    # reversed stream flips the tie-break
    voc2 = build_vocab(["b", "a"])
    assert rank_of(voc2, "b") == 1


def test_build_vocab_uniform_stream_assigns_all_ranks():
    types = [f"t{i}" for i in range(10)]
    tokens = [types[i % 10] for i in range(1000)]
    voc = build_vocab(tokens)
    assert voc.size == 10
    assert sorted(rank for _, _, rank in voc.entries) == list(range(1, 11))
    # direct count oracle: every type occurs exactly 100 times
    assert all(count == 100 for _, count, _ in voc.entries)


def test_build_vocab_empty_stream_errors():
    with pytest.raises(ValueError):
        build_vocab([])


def test_build_vocab_case_fold():
    voc = build_vocab(["The", "the", "Cat"], case_fold=True)
    assert rank_of(voc, "The") == 1
    assert rank_of(voc, "the") == 1
    assert rank_of(voc, "CAT") == 2


def test_build_vocab_max_size_maps_tail_to_oov():
    tokens = ["a"] * 3 + ["b"] * 2 + ["c"]
    voc = build_vocab(tokens, max_size=2)
    assert voc.size == 2
    assert rank_of(voc, "c") == OOV


def test_rank_of_oov():
    voc = build_vocab(["the", "cat", "the"])
    assert rank_of(voc, "the") == 1
    assert rank_of(voc, "dog") == OOV


def test_vocabulary_invariants_enforced():
    with pytest.raises(ValueError):
        Vocabulary(entries=(("a", 1, 1), ("b", 2, 2)))  # counts increase
    with pytest.raises(ValueError):
        Vocabulary(entries=(("a", 2, 1), ("b", 1, 3)))  # rank gap


def test_harmonic_number_small_values():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(4) == pytest.approx(25.0 / 12.0, rel=1e-15)
    with pytest.raises(ValueError):
        harmonic_number(0)


@given(st.integers(min_value=1, max_value=500))
def test_harmonic_number_monotone_and_log_bounded(n):
    h = harmonic_number(n)
    assert h <= 1.0 + math.log(n) + 1e-12
    if n > 1:
        assert h > harmonic_number(n - 1)


@given(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=40))
def test_every_stream_token_is_in_vocab(tokens):
    voc = build_vocab(tokens)
    assert all(rank_of(voc, t) != OOV for t in tokens)


@given(st.permutations(list(range(6))))
@settings(max_examples=30)
def test_distinct_counts_are_order_insensitive(order):
    # token t_i occurs i+1 times: strictly distinct counts
    base = [f"t{i}" for i in range(6) for _ in range(i + 1)]
    shuffled = []
    for i in order:
        shuffled.extend([f"t{i}"] * (i + 1))
    ref = {tok: rank for tok, _, rank in build_vocab(base).entries}
    got = {tok: rank for tok, _, rank in build_vocab(shuffled).entries}
    assert ref == got


def test_tokenize_strips_edge_punctuation():
    assert tokenize("Hello, world! (really)") == ["Hello", "world", "really"]
    assert tokenize("...") == []
    assert tokenize("it's state-of-the-art") == ["it's", "state-of-the-art"]


def test_vocab_file_round_trip(tmp_path):
    voc = build_vocab(["the", "cat", "the", "sat"])
    path = tmp_path / "vocab.tsv"
    write_vocab(voc, path)
    back = read_vocab(path)
    assert back.entries == voc.entries
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "the\t2\t1"


def test_read_vocab_non_integer_count_names_line(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("the\t3\t1\ncat\tx\t2\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_vocab(path)
    assert str(exc.value) == f"{path}:2: count and rank must be integers, got 'x' and '2'"
    path.write_text("the\t3\t1\n\ncat\t2\tsecond\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{path}:3: .* got '2' and 'second'$"):
        read_vocab(path)


def test_token_listed_twice_names_both_ranks(tmp_path):
    path = tmp_path / "vocab.tsv"
    path.write_text("the\t3\t1\ncat\t2\t2\nthe\t1\t3\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        read_vocab(path)
    assert str(exc.value) == f"{path}: token 'the' is listed at ranks 1 and 3"
