from pathlib import Path

import numpy as np

import covsum
from covsum.corpus import save_corpus
from covsum.selfcheck import load_bundled_corpus
from covsum.synthetic import random_documents

BUNDLED = Path(covsum.__file__).parent / "data" / "selftest_corpus.jsonl"


def test_selftest_corpus_shape():
    docs = load_bundled_corpus()
    assert len(docs) == 20
    for doc in docs:
        assert len(doc.references) == 2
        majority = doc.sentences[0]
        # the majority block is three verbatim copies up front
        assert doc.sentences[1] == majority
        assert doc.sentences[2] == majority
        ref_sents = {ref.sentences for ref in doc.references}
        assert all(majority in pair for pair in ref_sents)
        # both references hold the same two sentences, in both orders
        (a, b), (c, d) = ref_sents
        assert {a, b} == {c, d} and (a, b) != (c, d)


def test_selftest_vocabularies_are_disjoint():
    docs = load_bundled_corpus()
    seen: set[str] = set()
    for doc in docs:
        terms = set(doc.all_tokens())
        assert not (terms & seen)
        seen |= terms


def test_random_documents_deterministic_and_bounded():
    a = random_documents(12, seed=42)
    b = random_documents(12, seed=42)
    assert a == b
    assert a != random_documents(12, seed=43)
    for doc in a:
        assert 1 <= len(doc.sentences) <= 8
        for sent in doc.sentences:
            assert 1 <= len(sent) <= 6
            assert all(t.startswith("t") for t in sent)


def test_random_documents_cover_shared_vocab():
    docs = random_documents(50, seed=0, vocab_size=12)
    terms = {t for d in docs for t in d.all_tokens()}
    assert terms <= {f"t{i}" for i in range(12)}
    assert len(terms) == 12  # 50 docs comfortably cover 12 terms


def test_selftest_docs_have_unique_ids():
    docs = load_bundled_corpus()
    assert len({d.id for d in docs}) == len(docs)


def test_saving_the_bundled_corpus_rewrites_its_bytes(tmp_path):
    # the shipped file is in the canonical form save_corpus writes
    save_corpus(load_bundled_corpus(), tmp_path / "copy.jsonl")
    assert (tmp_path / "copy.jsonl").read_bytes() == BUNDLED.read_bytes()


def test_random_documents_word_counts_match():
    for doc in random_documents(5, seed=7):
        assert doc.word_count == sum(len(s) for s in doc.sentences)
        assert np.array(doc.word_count) >= len(doc.sentences)
