import json
import operator
import os
import sys
import tempfile
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covsum.corpus import (
    _SPACE,
    CorpusError,
    Document,
    Sentence,
    build_vocabulary,
    load_corpus,
    save_corpus,
    tokenize,
)
from covsum.selfcheck import load_bundled_corpus

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


def test_failed_save_keeps_the_previous_file(tmp_path, tiny_docs):
    # A lone surrogate cannot be encoded, so the second document fails to
    # write after the first has been written.
    path = tmp_path / "corpus.jsonl"
    save_corpus(tiny_docs, path)
    before = path.read_bytes()
    docs = [make_doc("a", [["x"]]), make_doc("b", [["\udcff"]])]
    with pytest.raises(UnicodeEncodeError):
        save_corpus(docs, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]  # no .part file


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

    # Each of these once escaped as TypeError, AttributeError, ValueError,
    # RecursionError or UnicodeDecodeError, or a string sentence loaded as
    # one token per character.
    bad = {
        b'{"id": "x", "sentences": ["ab"]}': "sentence 0 must be a list",
        b'{"id": "x", "sentences": [["a", 1]]}': "not a string",
        b'{"id": "x", "raw_sentences": [1]}': "must hold strings",
        b'{"id": "x", "sentences": [["a"]], "references": null}': "'references' must be a list",
        b'{"id": "x", "sentences": [["a"]], "references": [["b"]]}': "reference 0 sentence 0",
        b'{"id": "x", "sentences": [["a"]], "references": [[["b"], []]]}':
            "reference 0 sentence 1 has no tokens",
        b'{"id": "x", "sentences": [["a"]], "references": ["b"]}': "reference 0 must be a",
        b'{"id": "x", "raw_sentences": []}': "'raw_sentences' must be a non-empty list",
        b'{"id": "x", "sentences": [["\xff"]]}': "not valid UTF-8",
        b'{"id": "x\\ud800", "sentences": [["a"]]}': "not valid UTF-8",
        b"1" * 5000: "unreadable JSON",
        b"[" * 100_000: "unreadable JSON",
    }
    for data, message in bad.items():
        path.write_bytes(b'{"id": "ok", "sentences": [["a"]]}\n' + data + b"\n")
        with pytest.raises(CorpusError, match=f"line 2: .*{message}"):
            load_corpus(path)


def test_bad_tokens_are_named_in_sentences_and_references(tmp_path):
    # A bad token is named alone, and first among later bad tokens of every
    # other sort.
    path = tmp_path / "bad.jsonl"
    cases = {
        "1": "token 1 is not a string",
        "null": "token None is not a string",
        '""': "empty token",
        json.dumps("b\u3000c"): "token " + repr("b\u3000c") + " contains whitespace",
    }
    for (token, message), tokens in product(cases.items(), ('["A", {}, "d"]',
                                                            '["A", {}, "d e", 2, ""]')):
        tokens = tokens.format(token)
        for record in (
            f'{{"id": "x", "sentences": [["a"], {tokens}]}}',
            f'{{"id": "x", "sentences": [["a"]], "references": [[["a"]], [["b"], {tokens}]]}}',
        ):
            path.write_text('{"id": "ok", "sentences": [["a"]]}\n' + record + "\n")
            with pytest.raises(CorpusError) as exc:
                load_corpus(path)
            assert str(exc.value) == f"line 2: {message}"


def test_token_whitespace_check_is_isspace():
    # load_corpus refuses a token containing a character str.isspace() accepts
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    assert "".join(_SPACE.findall(everything)) == "".join(filter(str.isspace, everything))


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


def test_line_numbers_count_every_kind_of_line_end(tmp_path):
    # "\r\n" and a lone "\r" each end a line, as universal newlines read them;
    # other line breaks of str.splitlines, inside a JSON string, do not.
    path = tmp_path / "ends.jsonl"
    cases = {
        b'{"id": "a", "sentences": [["x"]]}\r\n{"id": "b", "sentences": [["y"]]}\r\nnot json\r\n':
            "line 3: invalid JSON",
        b'{"id": "a", "sentences": [["x"]]}\n{"id": "b",\r"sentences": [["y"]]}\n':
            "line 2: invalid JSON",
        b'\r{"id": "a", "sentences": [["x"]]}\r\n{"id": "a", "sentences": [["y"]]}\n':
            r"line 3: duplicate document id 'a' \(first on line 2\)",
        '{"id": "a", "raw_sentences": ["x\u2028y\x85z"]}\n{"id": "a", "sentences": [["y"]]}\n'
        .encode(): r"line 2: duplicate document id 'a' \(first on line 1\)",
    }
    for data, message in cases.items():
        path.write_bytes(data)
        with pytest.raises(CorpusError, match=message):
            load_corpus(path)


def test_load_reads_the_file_on_every_call(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "sentences": [["x"]]}\n')
    (first,) = load_corpus(path)
    stat = path.stat()
    path.write_text('{"id": "b", "sentences": [["y"]]}\n')  # as long, same mtime
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    (second,) = load_corpus(path)
    assert (first.id, second.id) == ("a", "b")


def test_a_refused_rewrite_keeps_the_last_parse(tmp_path):
    path = tmp_path / "c.jsonl"
    good = '{"id": "a", "sentences": [["x"]]}\n{"id": "b", "sentences": [["y"]]}\n'
    path.write_text(good)
    docs = load_corpus(path)
    path.write_text(good + "not json\n")
    with pytest.raises(CorpusError, match="line 3: invalid JSON"):
        load_corpus(path)
    path.write_text(good)
    again = load_corpus(path)
    assert again == docs and all(map(operator.is_, again, docs))


def test_a_returned_list_is_the_callers_own(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"id": "a", "sentences": [["x"]]}\n{"id": "b", "sentences": [["y"]]}\n')
    docs = load_corpus(path)
    docs.reverse()
    docs.pop()
    assert [doc.id for doc in load_corpus(path)] == ["a", "b"]


def test_vocabulary_of_the_loaded_documents_is_built_once(tmp_path, tiny_docs):
    path = tmp_path / "c.jsonl"
    save_corpus(tiny_docs, path)
    docs = load_corpus(path)
    vocab = build_vocabulary(docs)
    assert build_vocabulary(load_corpus(path)) is vocab
    today = build_vocabulary(tiny_docs)  # equal documents, other objects
    assert today == vocab and today is not vocab
    # Anything but the loaded objects in their order is counted afresh.
    for part, same in ((docs[:1], tiny_docs[:1]), (docs[::-1], tiny_docs[::-1])):
        fresh = build_vocabulary(part)
        assert fresh is not vocab and fresh == build_vocabulary(same)
    assert build_vocabulary(docs) is vocab
    copy = tmp_path / "copy.jsonl"
    copy.write_text(path.read_text() + "\n")  # other text, the same documents
    parsed = load_corpus(copy)
    assert parsed == docs and not any(map(operator.is_, parsed, docs))
    fresh = build_vocabulary(parsed)
    assert fresh is not vocab and fresh == vocab
    assert build_vocabulary(docs) is not vocab


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


def test_vocabulary_doc_freq_array_is_a_read_only_copy(tiny_docs):
    vocab, other = build_vocabulary(tiny_docs), build_vocabulary(tiny_docs)
    df = vocab.doc_freq_array
    assert df.dtype == np.float64 and df.tolist() == list(vocab.doc_freq)
    assert vocab.doc_freq_array is df  # made once
    with pytest.raises(ValueError):
        df[0] = 2.0
    # equality and repr ignore it: only vocab's array has been built
    assert "doc_freq_array" not in vars(other)
    assert vocab == other and repr(vocab) == repr(other)


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


# --- fuzzing -----------------------------------------------------------------

json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
)
json_value = st.recursive(
    json_scalar,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# Tokens as a corpus might hold them, plus empty, spaced, cased and lone-surrogate ones.
token = st.one_of(
    st.text(max_size=5),
    st.sampled_from(["a", "B", "a b", "", " ", "x\ud800", "\udfff", "\x85"]),
    json_scalar,
)
token_lists = st.one_of(
    st.lists(st.one_of(st.lists(token, max_size=3), json_value), max_size=3), json_value
)
raw_sentences = st.one_of(
    st.lists(st.one_of(st.text(max_size=12), json_value), max_size=3), json_value
)
record = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.text(max_size=4), st.just("\ud800"), json_value),
        "sentences": token_lists,
        "raw_sentences": raw_sentences,
        "references": st.one_of(st.lists(token_lists, max_size=2), json_value),
    },
)
odd_lines = ["", "  ", "[" * 100_000, "1" * 5000, "\ufeff{}", '{"id": "x",\r"sentences": [["a"]]}']
line = st.one_of(
    st.tuples(record, st.booleans()).map(lambda r: json.dumps(r[0], ensure_ascii=r[1])),
    json_value.map(json.dumps),
    st.text(max_size=20),
    st.sampled_from(odd_lines),
).map(lambda text: text.encode("utf-8", "surrogatepass"))
corpus_bytes = st.lists(st.one_of(line, st.binary(max_size=20)), max_size=4).map(b"\n".join)


@settings(max_examples=400, deadline=None)
@given(corpus_bytes)
def test_any_file_is_refused_or_round_trips(data):
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "in.jsonl"), Path(tmp, "out.jsonl")
        path.write_bytes(data)
        try:
            docs = load_corpus(path)
        except CorpusError as exc:
            with pytest.raises(CorpusError) as second:
                load_corpus(path)
            assert str(second.value) == str(exc)
            return
        assert load_corpus(path) == docs
        save_corpus(docs, again)
        assert load_corpus(again) == docs
