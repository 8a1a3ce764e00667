import re
from dataclasses import replace

import numpy as np
import pytest

from eigennoise.datasets import (
    SequenceDataset,
    TokenDataset,
    parse_conll,
    parse_tsv,
    read_records,
    resolve_case_fold,
    synth_task,
    write_conll,
)

CONLL_SAMPLE = """-DOCSTART- -X- -X- O

EU NNP B-NP B-ORG
rejects VBZ B-VP O

German JJ B-NP B-MISC
call NN I-NP O
"""


def test_parse_conll_columns(tmp_path):
    path = tmp_path / "sample.conll"
    path.write_text(CONLL_SAMPLE, encoding="utf-8")
    ner = parse_conll(path, token_column=0, label_column=3)
    assert ner.tokens == (("EU", "rejects"), ("German", "call"))
    assert ner.labels[0] == ("B-ORG", "O")
    assert ner.label_set == ("B-ORG", "O", "B-MISC")
    pos = parse_conll(path, token_column=0, label_column=1)
    assert pos.labels[0] == ("NNP", "VBZ")


def test_parse_conll_single_line(tmp_path):
    path = tmp_path / "one.conll"
    path.write_text("EU NNP B-NP B-ORG\n\n", encoding="utf-8")
    ds = parse_conll(path, label_column=3)
    assert ds.tokens == (("EU",),)
    assert ds.labels == (("B-ORG",),)


def test_parse_conll_ragged_line(tmp_path):
    path = tmp_path / "bad.conll"
    path.write_text("EU NNP\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        parse_conll(path, label_column=3)


def test_parse_conll_empty(tmp_path):
    path = tmp_path / "empty.conll"
    path.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no sentences"):
        parse_conll(path)


def test_read_records_yields_each_sentence_before_a_later_fault(tmp_path):
    path = tmp_path / "late.conll"
    path.write_text("EU NNP\nrejects VBZ\n\nGerman JJ\ncall\n", encoding="utf-8")
    records = read_records("conll", path, token_column=0, label_column=1)
    assert next(records) == (("EU", "rejects"), ("NNP", "VBZ"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: 1 columns, "
                                         "need at least 2$"):
        list(records)


def test_read_records_gives_each_format_its_record(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("pos\tGreat game!\n\nneg\tawful\n", encoding="utf-8")
    assert list(read_records("tsv", path)) == [(("Great", "game"), "pos"),
                                               (("awful",), "neg")]
    # a text line is its tokens, whatever its tabs; a blank line is no token
    assert list(read_records("text", path)) == [(("pos", "Great", "game"), None),
                                                ((), None), (("neg", "awful"), None)]


def test_conll_round_trip(tmp_path):
    src = tmp_path / "sample.conll"
    src.write_text(CONLL_SAMPLE, encoding="utf-8")
    ds = parse_conll(src, label_column=3)
    out = tmp_path / "rewritten.conll"
    write_conll(ds, out)
    back = parse_conll(out, token_column=0, label_column=1)
    assert back.tokens == ds.tokens
    assert back.labels == ds.labels
    assert back.label_set == ds.label_set


def test_parse_tsv_basic(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("1\tgreat game\n0\tawful ref\n1\tso good\n", encoding="utf-8")
    ds = parse_tsv(path)
    assert ds.tokens == (("great", "game"), ("awful", "ref"), ("so", "good"))
    assert ds.labels == ("1", "0", "1")
    assert ds.label_set == ("1", "0")


def test_parse_tsv_three_labels(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("a\tx\nb\ty\nc\tz\n", encoding="utf-8")
    assert parse_tsv(path).num_classes == 3
    # interleaved labels keep their first-appearance order
    path.write_text("b\tx\na\ty\nb\tz\nc\tw\na\tv\nc\tu\n", encoding="utf-8")
    ds = parse_tsv(path)
    assert ds.label_set == ("b", "a", "c")
    assert ds.labels == ("b", "a", "b", "c", "a", "c")


def test_parse_tsv_missing_tab(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("1\tok\nbroken line\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2:"):
        parse_tsv(path)


def test_parse_tsv_empty(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        parse_tsv(path)


def test_parse_tsv_text_without_tokens(tmp_path):
    path = tmp_path / "task.tsv"
    path.write_text("pos\tgood day\n\nneg\t!!\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"task\.tsv:3: text tokenizes to nothing$"):
        parse_tsv(path)
    # a library caller's dataset keeps the rule
    with pytest.raises(ValueError, match="text 1 tokenizes to nothing"):
        SequenceDataset(tokens=(("a",), ()), labels=("x", "x"), label_set=("x",))


def test_apply_label_set_remaps_ids(tmp_path):
    """A dev split takes the training label set by ``replace``."""
    train = SequenceDataset(tokens=(("a",), ("b",)), labels=("pos", "neg"),
                            label_set=("pos", "neg"))
    dev = SequenceDataset(tokens=(("c",),), labels=("neg",), label_set=("neg",))
    remapped = replace(dev, label_set=train.label_set)
    assert remapped.labels == ("neg",)
    assert remapped.label_set == ("pos", "neg")


def test_apply_label_set_rejects_unknown():
    train_labels = ("pos", "neg")
    dev = SequenceDataset(tokens=(("c",),), labels=("other",), label_set=("other",))
    with pytest.raises(ValueError, match="unknown"):
        replace(dev, label_set=train_labels)
    tok = TokenDataset(tokens=(("x",),), labels=(("B-LOC",),),
                       label_set=("B-LOC",))
    with pytest.raises(ValueError, match="'B-LOC' is unknown to the training label set"):
        replace(tok, label_set=("O",))


def _class_ids(ds):
    return np.array([ds.label_set.index(lab) for lab in ds.labels])


def test_synth_determinism_and_splits():
    a = synth_task("separable", 100, k=2, seed=3)
    b = synth_task("separable", 100, k=2, seed=3)
    assert a == b
    dev = synth_task("separable", 100, k=2, seed=3, split="dev")
    assert dev.tokens != a.tokens


def test_synth_labels_balanced_and_named():
    ds = synth_task("separable", 120, k=3, seed=0)
    assert isinstance(ds, SequenceDataset)
    assert ds.label_set == ("class_0", "class_1", "class_2")
    counts = np.bincount(_class_ids(ds))
    assert counts.tolist() == [40, 40, 40]


def test_synth_token_lexicons_follow_classes():
    ds = synth_task("separable", 60, k=2, seed=5)
    for toks, lab in zip(ds.tokens, _class_ids(ds)):
        ids = [int(t[1:]) for t in toks]
        assert all(lab * 30 <= i < (lab + 1) * 30 for i in ids)


def test_synth_noisy_tokens_leak_across_lexicons():
    ds = synth_task("noisy", 200, k=2, seed=5)
    leaks = 0
    for toks, lab in zip(ds.tokens, _class_ids(ds)):
        ids = [int(t[1:]) for t in toks]
        leaks += sum(1 for i in ids if not lab * 30 <= i < (lab + 1) * 30)
    assert leaks > 0


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_task("weird", 100)
    with pytest.raises(ValueError):
        synth_task("separable", 15, k=2)
    with pytest.raises(ValueError):
        synth_task("separable", 100, split="validation")


def _repeated_conll(tmp_path):
    path = tmp_path / "repeated.conll"
    words = ["alpha", "beta", "gamma", "delta"]
    path.write_text("".join(f"{words[i % 4]} {'NOUN' if i % 3 else 'VERB'}\n"
                            + ("\n" if i % 5 == 4 else "") for i in range(60)),
                    encoding="utf-8")
    return parse_conll(path, token_column=0, label_column=1)


def _repeated_tsv(tmp_path):
    path = tmp_path / "repeated.tsv"
    path.write_text("".join(f"{'pos' if i % 2 else 'neg'}\tthe game, the goal! game\n"
                            for i in range(20)), encoding="utf-8")
    return parse_tsv(path)


@pytest.mark.parametrize("read", [_repeated_conll, _repeated_tsv,
                                  lambda tmp_path: synth_task("noisy", 60, k=3, seed=1)],
                         ids=["conll", "tsv", "synthetic"])
def test_a_task_holds_one_string_per_distinct_token_and_label(tmp_path, read):
    ds = read(tmp_path)
    tokens = [t for toks in ds.tokens for t in toks]
    labels = [lab for labs in ds.labels for lab in labs] if isinstance(
        ds, TokenDataset) else list(ds.labels)
    for strings in (tokens, labels):
        assert len(set(strings)) < len(strings)  # every value repeats
        assert len({id(s) for s in strings}) == len(set(strings))


def test_resolve_case_fold():
    assert [resolve_case_fold(choice, task_format) for task_format in ("text", "tsv", "conll")
            for choice in ("on", "off", "auto")] == [True, False, True] * 2 + [True, False, False]
    with pytest.raises(KeyError):  # the parser and RunSpec refuse it first
        resolve_case_fold("maybe", "tsv")
