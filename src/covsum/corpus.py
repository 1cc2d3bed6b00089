"""Corpus loading, tokenization, and vocabulary construction.

Corpus files are UTF-8 JSON Lines, one document per line:

    {"id": "...", "sentences": [["tok", ...], ...],
     "references": [[["tok", ...], ...], ...]}

``references`` is optional and only needed for evaluation. A document may
carry ``"raw_sentences": ["text", ...]`` instead of ``"sentences"``, in which
case each string is run through :func:`tokenize`.

A sentence is a tuple of tokens, in a :class:`Document` as in a
:class:`ReferenceSummary`. :func:`save_corpus` writes only documents that
load back unchanged: unique non-empty ids, and non-empty, lowercase,
whitespace-free tokens.
"""

from __future__ import annotations

import json
import operator
import re
import unicodedata
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from pathlib import Path

from .files import written


class CorpusError(ValueError):
    """Raised for malformed corpus files or invariant violations."""


def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Split ``text`` on whitespace into lowercased tokens.

    Leading and trailing punctuation is stripped from each piece; pieces
    that become empty are dropped. No stemming or stopword removal.
    """
    tokens = []
    for piece in text.split():
        start, end = 0, len(piece)
        while start < end and _is_punct(piece[start]):
            start += 1
        while end > start and _is_punct(piece[end - 1]):
            end -= 1
        if start < end:
            tokens.append(piece[start:end].lower())
    return tokens


# Matches exactly the characters for which str.isspace() is true, and is
# several times faster than testing them one by one.
_SPACE = re.compile(r"\s")


def _check_token(tok: str, where: str) -> str:
    if not isinstance(tok, str):
        raise CorpusError(f"{where}: token {tok!r} is not a string")
    if not tok:
        raise CorpusError(f"{where}: empty token")
    if _SPACE.search(tok):
        raise CorpusError(f"{where}: token {tok!r} contains whitespace")
    return tok.lower()


@dataclass(frozen=True)
class ReferenceSummary:
    """A gold summary, stored as a sequence of token lists."""

    sentences: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.sentences or any(not s for s in self.sentences):
            raise CorpusError("reference summary must have non-empty sentences")


@dataclass(frozen=True)
class Document:
    """A document to be summarized, its sentences as token tuples, plus any
    reference summaries."""

    id: str
    sentences: tuple[tuple[str, ...], ...]
    references: tuple[ReferenceSummary, ...] = ()

    def __post_init__(self) -> None:
        if not self.sentences:
            raise CorpusError(f"document {self.id!r}: no sentences")
        for i, sent in enumerate(self.sentences):
            if not sent:
                raise CorpusError(f"document {self.id!r}: sentence {i} has no tokens")

    @property
    def word_count(self) -> int:
        return sum(map(len, self.sentences))

    def all_tokens(self) -> list[str]:
        return [t for s in self.sentences for t in s]


@dataclass(frozen=True)
class Vocabulary:
    """Dense term ids plus per-term document frequencies.

    ``doc_freq[i]`` counts documents (never references) containing term ``i``;
    terms that appear only in reference summaries are floored at 1 so their
    IDF stays finite. ``doc_freq_array``: the same, read-only float64, made once.
    """

    term_to_id: dict[str, int]
    doc_freq: tuple[int, ...]
    num_docs: int

    def __post_init__(self) -> None:
        if len(self.term_to_id) != len(self.doc_freq):
            raise CorpusError("term_to_id and doc_freq sizes disagree")
        if any(df < 1 or df > self.num_docs for df in self.doc_freq):
            raise CorpusError("doc_freq entries must lie in [1, num_docs]")

    @property
    def size(self) -> int:
        return len(self.doc_freq)

    @cached_property
    def doc_freq_array(self):
        import numpy as np  # here: imported with the module, it raised set-up peak RSS 0.5 MiB

        df = np.array(self.doc_freq, dtype=np.float64)
        df.flags.writeable = False
        return df

    def ids(self, tokens: Iterable[str]) -> list[int]:
        """Map tokens to term ids, silently skipping out-of-vocabulary ones."""
        t2i = self.term_to_id
        return [t2i[t] for t in tokens if t in t2i]


def _parse_document(record: dict, line_no: int) -> Document:
    where = f"line {line_no}"
    if not isinstance(record, dict):
        raise CorpusError(f"{where}: expected a JSON object")
    doc_id = record.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"{where}: missing or invalid 'id'")

    if "sentences" in record:
        raw = record["sentences"]
        if not isinstance(raw, list) or not raw:
            raise CorpusError(f"{where}: 'sentences' must be a non-empty list")
        sent_tokens = _token_lists(raw, where, "sentence")
    elif "raw_sentences" in record:
        raw = record["raw_sentences"]
        if not isinstance(raw, list) or not raw:
            raise CorpusError(f"{where}: 'raw_sentences' must be a non-empty list")
        if not all(isinstance(text, str) for text in raw):
            raise CorpusError(f"{where}: 'raw_sentences' must hold strings")
        sent_tokens = [tuple(tokenize(text)) for text in raw]
    else:
        raise CorpusError(f"{where}: missing 'sentences' key")

    for i, toks in enumerate(sent_tokens):
        if not toks:
            raise CorpusError(f"{where}: sentence {i} has no tokens")

    refs = record.get("references", [])
    if not isinstance(refs, list):
        raise CorpusError(f"{where}: 'references' must be a list")
    references = []
    for r, ref in enumerate(refs):
        if not isinstance(ref, list) or not ref:
            raise CorpusError(f"{where}: reference {r} must be a non-empty list")
        sents = _token_lists(ref, where, f"reference {r} sentence")
        for i, toks in enumerate(sents):
            if not toks:
                raise CorpusError(f"{where}: reference {r} sentence {i} has no tokens")
        references.append(ReferenceSummary(tuple(sents)))

    # A lone surrogate, from a \ud800 escape or an undecodable byte, has no
    # UTF-8 form, so the document could not be written back.
    ref_tokens = chain.from_iterable(chain.from_iterable(r.sentences for r in references))
    try:
        "".join(chain([doc_id], chain.from_iterable(sent_tokens), ref_tokens)).encode("utf-8")
    except UnicodeEncodeError:
        raise CorpusError(f"{where}: text is not valid UTF-8") from None

    return Document(id=doc_id, sentences=tuple(sent_tokens), references=tuple(references))


def _token_lists(raw: list, where: str, what: str) -> list[tuple[str, ...]]:
    """Check that every item of ``raw`` is a list of tokens; lowercase them."""
    for i, sent in enumerate(raw):
        if not isinstance(sent, list):
            raise CorpusError(f"{where}: {what} {i} must be a list of tokens")
    lists = []
    for sent in raw:
        try:  # "".join refuses a token that is not a string
            clean = "" not in sent and not _SPACE.search("".join(sent))
        except TypeError:
            clean = False
        # token by token only if a check failed, to name the first bad token
        lists.append(tuple(map(str.lower, sent) if clean else (_check_token(t, where) for t in sent)))
    return lists


# The last corpus text that parsed, its documents and, once built, their
# vocabulary: a process running several stages on one file parses it and
# counts its terms once. The tuple is replaced whole, never edited, so a
# reader always sees one text with its own documents.
_last: tuple[str | None, tuple[Document, ...], Vocabulary | None] = (None, (), None)


def load_corpus(path: str | Path) -> list[Document]:
    """Read a JSONL corpus file into Documents, in file order.

    Raises :class:`CorpusError` naming the offending line for malformed
    records, and both lines for a repeated document id; blank lines are
    skipped. The file is read on every call. Text equal to the last text
    that parsed gives a new list of that parse's documents, which are
    immutable; they stay in memory until other text parses.
    """
    global _last
    # Undecodable bytes become lone surrogates, refused with the line's number.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        text = fh.read()
    last_text, last_docs, _ = _last
    if text == last_text:
        return list(last_docs)
    docs = []
    first_line: dict[str, int] = {}
    # Universal newlines turned "\r" and "\r\n" into "\n": these are the file's lines.
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
        except (ValueError, RecursionError) as exc:  # a huge integer, deep nesting
            raise CorpusError(f"line {line_no}: unreadable JSON ({exc})") from None
        doc = _parse_document(record, line_no)
        seen = first_line.setdefault(doc.id, line_no)
        if seen != line_no:
            raise CorpusError(
                f"line {line_no}: duplicate document id {doc.id!r} (first on line {seen})"
            )
        docs.append(doc)
    _last = (text, tuple(docs), None)
    return docs


def save_corpus(docs: Sequence[Document], path: str | Path) -> None:
    """Write documents back out in the canonical JSONL schema. The file is
    replaced whole, so a failed write leaves the previous file as it was.
    Documents :func:`load_corpus` would refuse or read back differently are
    refused before anything is written (:func:`_check_savable`)."""
    _check_savable(docs)
    with written(path) as part, open(part, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {
                "id": doc.id,
                "sentences": [list(s) for s in doc.sentences],
            }
            if doc.references:
                record["references"] = [
                    [list(sent) for sent in ref.sentences] for ref in doc.references
                ]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def _check_savable(docs: Sequence[Document]) -> None:
    """Refuse a repeated or empty id, a sentence that is not a tuple, or a
    token that is empty, holds whitespace or is not lowercase, naming the
    document, the sentence or reference sentence, and the token."""
    seen: set[str] = set()
    for doc in docs:
        if not isinstance(doc.id, str) or not doc.id:
            raise CorpusError(f"document id {doc.id!r} is not a non-empty string")
        if doc.id in seen:
            raise CorpusError(f"document {doc.id!r} appears twice")
        seen.add(doc.id)
        refs = ((f"reference {r} sentence", ref.sentences) for r, ref in enumerate(doc.references))
        for what, sents in chain([("sentence", doc.sentences)], refs):
            for i, sent in enumerate(sents):
                where = f"document {doc.id!r} {what} {i}"
                if not isinstance(sent, tuple):
                    raise CorpusError(f"{where}: not a tuple of tokens")
                for tok in sent:
                    if _check_token(tok, where) != tok:
                        raise CorpusError(f"{where}: token {tok!r} is not lowercase")


def build_vocabulary(docs: Sequence[Document]) -> Vocabulary:
    """Assign dense term ids and count per-term document frequencies.

    Every token occurring in a document body or a reference summary gets an
    id (first-seen order). Document frequency counts each document at most
    once and ignores references; reference-only terms get doc_freq 1.
    ``docs`` holding exactly the documents of the last :func:`load_corpus`
    parse, the same objects in order, get one Vocabulary, built once.
    """
    global _last
    if not docs:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    text, last_docs, vocab = _last
    loaded = len(docs) == len(last_docs) and all(map(operator.is_, docs, last_docs))
    if loaded and vocab is not None:
        return vocab

    term_to_id: dict[str, int] = {}
    doc_freq: list[int] = []

    for doc in docs:
        seen: set[int] = set()
        for sent in doc.sentences:
            for tok in sent:
                tid = term_to_id.get(tok)
                if tid is None:
                    tid = len(doc_freq)
                    term_to_id[tok] = tid
                    doc_freq.append(0)
                seen.add(tid)
        for tid in seen:
            doc_freq[tid] += 1

    for doc in docs:
        for ref in doc.references:
            for sent in ref.sentences:
                for tok in sent:
                    if tok not in term_to_id:
                        term_to_id[tok] = len(doc_freq)
                        doc_freq.append(1)

    vocab = Vocabulary(term_to_id=term_to_id, doc_freq=tuple(doc_freq), num_docs=len(docs))
    if loaded:
        _last = (text, last_docs, vocab)
    return vocab
