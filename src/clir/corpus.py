"""Bilingual document collections, queries, and the pluggable text analyzer.

Collections are JSON-lines files, one document per line. A document may name a
comparable document in the other language via ``pair_id``; those links are the
human-translation channel used by the second retrieval stage.
"""

import logging
import string
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse, repeat

from clir.errors import ConfigError, IntegrityError, NoPairError, NotFoundError, ParseError
from clir.files import read_json_lines

logger = logging.getLogger(__name__)

WHITESPACE_WORD = "whitespace-word"
CHARACTER_BIGRAM = "character-bigram"

_EDGE_CHARS = string.punctuation


@dataclass(slots=True)
class Document:
    """One collection entry. Only title, keywords and abstract are indexable."""

    doc_id: str
    lang: str
    title: str = ""
    keywords: list = field(default_factory=list)
    abstract: str = ""
    pair_id: str | None = None


@dataclass(slots=True)
class Query:
    query_id: str
    lang: str
    description: str


@dataclass(frozen=True)
class AnalyzerConfig:
    """How raw text is turned into terms for one language.

    ``tokenizer_kind`` is either whitespace-word (split on whitespace, strip
    punctuation from token edges) or character-bigram (sliding window over each
    whitespace-free run, the dependency-free default for CJK text). Both
    lowercase the text first. The config is frozen, so equal settings make
    one hashable key, even from two distinct objects.
    """

    lang: str
    stopword_list: frozenset = frozenset()
    tokenizer_kind: str = WHITESPACE_WORD
    min_token_len: int = 1

    def __post_init__(self):
        if self.tokenizer_kind not in (WHITESPACE_WORD, CHARACTER_BIGRAM):
            raise ConfigError(f"unknown tokenizer kind: {self.tokenizer_kind!r}")
        if type(self.min_token_len) is not int or self.min_token_len < 1:  # a bool is refused
            raise ConfigError(f"min_token_len must be an integer >= 1, not {self.min_token_len!r}")
        if self.tokenizer_kind == CHARACTER_BIGRAM and self.min_token_len != 1:
            raise ConfigError("character-bigram tokenization requires min_token_len = 1")
        object.__setattr__(self, "stopword_list", frozenset(self.stopword_list))
        if not all(isinstance(word, str) for word in self.stopword_list):
            raise ConfigError("every stopword must be a string")


@dataclass(slots=True)
class TermVector:
    """Term frequencies of one text."""

    counts: dict

    @classmethod
    def from_tokens(cls, tokens):
        return cls(dict(Counter(tokens)))

    @classmethod
    def from_counts(cls, counts):
        return cls({t: int(f) for t, f in counts.items() if f > 0})


def tokenize(text, cfg):
    """Return the ordered token stream of ``text`` under ``cfg``.

    This is the order-preserving half of the analyzer; ``analyze`` folds the
    stream into a TermVector. Phrase matching in query translation needs the
    ordered form.
    """
    text = text.lower()
    if cfg.tokenizer_kind == CHARACTER_BIGRAM:
        tokens = []
        for run in text.split():
            if len(run) == 1:
                tokens.append(run)
            else:
                tokens.extend(run[i : i + 2] for i in range(len(run) - 1))
        return [t for t in tokens if t not in cfg.stopword_list]

    tokens = map(str.strip, text.split(), repeat(_EDGE_CHARS))
    min_len, stopwords = cfg.min_token_len, cfg.stopword_list
    tokens = filter(None, tokens) if min_len == 1 else (t for t in tokens if len(t) >= min_len)
    return list(filterfalse(stopwords.__contains__, tokens) if stopwords else tokens)


def analyze(text, cfg):
    """Analyze ``text`` into a TermVector. Total: empty input gives an empty vector."""
    return TermVector.from_tokens(tokenize(text, cfg))


def check_run_token(text, what="run tag"):
    """``text`` as one field of a run line; ValueError if it is empty or
    holds whitespace, which would split the line into other fields."""
    if text.split() != [text]:
        raise ValueError(f"{what} must be non-empty and hold no whitespace, got {text!r}")
    return text


def indexable_text(doc):
    """Title, keywords and abstract joined with single spaces; other fields are not indexed."""
    parts = [doc.title, *doc.keywords, doc.abstract]
    return " ".join(p for p in parts if p)


class Corpus:
    """An immutable set of documents with id lookup.

    Every doc_id must pass ``check_run_token``, so that a run file can hold
    it. With ``declared_langs`` given, a document in any other language is
    refused; with None, any language is accepted.
    """

    def __init__(self, documents, declared_langs=None):
        self._docs = {}
        for doc in documents:
            try:
                check_run_token(doc.doc_id, "doc id")
            except ValueError:
                raise IntegrityError(f"document with empty id or whitespace in its id: "
                                     f"{doc.doc_id!r}") from None
            if doc.doc_id in self._docs:
                raise IntegrityError(f"duplicate doc_id {doc.doc_id!r}")
            if declared_langs is not None and doc.lang not in declared_langs:
                raise IntegrityError(
                    f"document {doc.doc_id!r} has undeclared language {doc.lang!r}"
                )
            self._docs[doc.doc_id] = doc

    def __len__(self):
        return len(self._docs)

    def __iter__(self):
        return iter(self._docs.values())

    @cached_property
    def shared_texts(self):
        """The texts that more than one field of the collection holds, a
        title, keyword or abstract of one document or of several; computed
        once, on first use."""
        seen, shared = set(), set()
        for text in chain.from_iterable((d.title, *d.keywords, d.abstract) for d in self):
            (shared if text in seen else seen).add(text)
        return frozenset(shared)

    def get(self, doc_id):
        try:
            return self._docs[doc_id]
        except KeyError:
            raise NotFoundError(f"no document {doc_id!r}") from None

    def filter_lang(self, lang):
        """Subset of one language. Pair links may point outside the subset."""
        return Corpus(d for d in self if d.lang == lang)

    def dangling_pairs(self):
        """(doc_id, pair_id) for links that are missing or point to the same language."""
        bad = []
        for doc in self:
            if doc.pair_id is None:
                continue
            target = self._docs.get(doc.pair_id)
            if target is None or target.lang == doc.lang:
                bad.append((doc.doc_id, doc.pair_id))
        return bad


def pair_lookup(corpus, doc_id):
    """Resolve the comparable document of ``doc_id`` in the other language."""
    doc = corpus.get(doc_id)
    if doc.pair_id is None:
        raise NoPairError(f"document {doc_id!r} has no comparable pair")
    try:
        target = corpus.get(doc.pair_id)
    except NotFoundError:
        raise NoPairError(
            f"document {doc_id!r} links to missing pair {doc.pair_id!r}"
        ) from None
    if target.lang == doc.lang:
        raise NoPairError(
            f"pair of {doc_id!r} is {doc.pair_id!r} but shares its language"
        )
    return target


def _require_str(record, key, path, line_no, allow_empty=False):
    value = record.get(key)
    if not isinstance(value, str) or (not allow_empty and not value):
        raise ParseError(f"field {key!r} missing or not a non-empty string", path, line_no)
    return value


def load_corpus(path):
    """Load a JSON-lines collection, one document object per line.

    Duplicate ids are fatal; the languages are those the documents carry.
    Unresolved pair links are only reported (see ``Corpus.dangling_pairs``).
    Ids, pair ids, languages and keywords are one string object per distinct
    value, so a pair id is its pair's doc id, whichever line comes first.
    """
    line_no = None
    share = {}.setdefault

    def documents():
        nonlocal line_no
        for line_no, record in read_json_lines(path):
            doc_id = _require_str(record, "id", path, line_no)
            lang = _require_str(record, "lang", path, line_no)
            title = _require_str(record, "title", path, line_no, allow_empty=True)
            abstract = _require_str(record, "abstract", path, line_no, allow_empty=True)
            keywords = record.get("keywords")
            if not isinstance(keywords, list) or any(not isinstance(k, str) for k in keywords):
                raise ParseError("field 'keywords' must be an array of strings", path, line_no)
            pair_id = record.get("pair_id")
            if pair_id is not None and (not isinstance(pair_id, str) or not pair_id):
                raise ParseError("field 'pair_id' must be a non-empty string", path, line_no)
            yield Document(doc_id=share(doc_id, doc_id), lang=share(lang, lang), title=title,
                           keywords=[share(k, k) for k in keywords], abstract=abstract,
                           pair_id=None if pair_id is None else share(pair_id, pair_id))
    try:
        corpus = Corpus(documents())
    except IntegrityError as exc:
        raise IntegrityError(f"{exc} at {path}:{line_no}") from None
    dangling = corpus.dangling_pairs()
    if dangling:
        logger.warning("%s: %d unresolved pair link(s), e.g. %s", path, len(dangling), dangling[0])
    return corpus


def load_queries(path):
    """Load a JSON-lines query file ({id, lang, description} per line)."""
    queries = []
    seen = set()
    for line_no, record in read_json_lines(path):
        query_id = _require_str(record, "id", path, line_no)
        lang = _require_str(record, "lang", path, line_no)
        description = _require_str(record, "description", path, line_no)
        if query_id in seen:
            raise IntegrityError(f"duplicate query id {query_id!r} at {path}:{line_no}")
        seen.add(query_id)
        queries.append(Query(query_id=query_id, lang=lang, description=description))
    return queries
