import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from covsum.corpus import (
    CorpusError,
    Document,
    Sentence,
    build_vocabulary,
    load_bundled_corpus,
    load_corpus,
    save_corpus,
    tokenize,
)

from conftest import make_doc


def test_tokenize_strips_punctuation_and_lowercases():
    assert tokenize("The cat, the DOG!") == ["the", "cat", "the", "dog"]
    assert tokenize("  (hello)   'world'  ") == ["hello", "world"]
    assert tokenize("...") == []
    assert tokenize("") == []


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("it's state-of-the-art") == ["it's", "state-of-the-art"]


@given(st.text())
def test_tokenize_idempotent(text):
    toks = tokenize(text)
    assert tokenize(" ".join(toks)) == toks


@given(st.text())
def test_tokenize_output_clean(text):
    for tok in tokenize(text):
        assert tok == tok.lower()
        assert not any(c.isspace() for c in tok)


def test_document_invariants():
    with pytest.raises(CorpusError):
        Document(id="x", sentences=())
    with pytest.raises(CorpusError):
        Sentence(0, ())
    with pytest.raises(CorpusError):
        # sentence indices must match their positions
        Document(id="x", sentences=(Sentence(1, ("a",)),))


def test_word_count_and_all_tokens():
    doc = make_doc("d", [["a", "b"], ["c"]])
    assert doc.word_count == 3
    assert doc.all_tokens() == ["a", "b", "c"]


def test_round_trip(tmp_path, tiny_docs):
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_docs, path)
    assert load_corpus(path) == tiny_docs


def test_load_raw_sentences(tmp_path):
    path = tmp_path / "raw.jsonl"
    path.write_text(json.dumps({"id": "r", "raw_sentences": ["The cat.", "A dog!"]}) + "\n")
    (doc,) = load_corpus(path)
    assert doc.sentences[0].tokens == ("the", "cat")
    assert doc.sentences[1].tokens == ("a", "dog")


def test_load_errors_name_the_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "ok", "sentences": [["a"]]}\nnot json\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)

    path.write_text('{"sentences": [["a"]]}\n')
    with pytest.raises(CorpusError, match="line 1.*id"):
        load_corpus(path)

    path.write_text('{"id": "x", "sentences": [[]]}\n')
    with pytest.raises(CorpusError, match="no tokens"):
        load_corpus(path)

    path.write_text('{"id": "x", "sentences": [["a b"]]}\n')
    with pytest.raises(CorpusError, match="whitespace"):
        load_corpus(path)


def test_duplicate_ids_name_both_lines(tmp_path):
    path = tmp_path / "dup.jsonl"
    lines = [
        {"id": "a", "sentences": [["x"]]},
        {"id": "b", "sentences": [["y"]]},
        {"id": "a", "sentences": [["z"]]},
    ]
    path.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
    with pytest.raises(CorpusError, match=r"line 3: duplicate document id 'a' \(first on line 1\)"):
        load_corpus(path)


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.jsonl"
    path.write_text('\n{"id": "x", "sentences": [["a"]]}\n\n')
    assert len(load_corpus(path)) == 1


def test_vocabulary_ids_and_doc_freq(tiny_docs):
    vocab = build_vocabulary(tiny_docs)
    # first-seen order within and across documents
    assert vocab.term_to_id["cats"] == 0
    assert vocab.term_to_id["purr"] == 1
    # "cats" occurs in two sentences of d0 but only one document
    assert vocab.doc_freq[vocab.term_to_id["cats"]] == 1
    assert vocab.num_docs == 2
    assert vocab.size == len(vocab.term_to_id)
    assert vocab.ids(["cats", "unknown", "rain"]) == [
        vocab.term_to_id["cats"],
        vocab.term_to_id["rain"],
    ]


def test_vocabulary_reference_only_terms():
    doc = make_doc("d", [["body"]], refs=[[["gold", "body"]]])
    vocab = build_vocabulary([doc])
    assert "gold" in vocab.term_to_id
    assert vocab.doc_freq[vocab.term_to_id["gold"]] == 1


def test_vocabulary_empty_corpus():
    with pytest.raises(CorpusError):
        build_vocabulary([])


def test_bundled_corpus_loads():
    docs = load_bundled_corpus()
    assert len(docs) == 20
    assert all(doc.references for doc in docs)
    ids = [doc.id for doc in docs]
    assert len(set(ids)) == 20
