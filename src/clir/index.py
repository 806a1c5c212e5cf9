"""Inverted index over the target-language collection and first-stage retrieval.

Weighting is augmented term frequency times log inverse document frequency with
cosine normalization, applied to queries and documents alike. Natural log
throughout, so saved scores are bit-reproducible.

A saved index (format ``clir-index-v2``) holds only the analyzer settings and
each document's term counts in token order. Document frequencies, document
norms and the weighted postings are derived from those counts by one function,
on build and on load alike, so a loaded index equals the built one.
"""

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from clir.corpus import AnalyzerConfig, analyze, indexable_text
from clir.errors import ConfigError, IntegrityError
from clir.files import read_json

INDEX_FORMAT = "clir-index-v2"


@dataclass
class ScoredDoc:
    doc_id: str
    score: float


@dataclass
class RankedList:
    """Scored documents in rank order (scores non-increasing, ids distinct)."""

    query_id: str
    entries: list


@dataclass
class InvertedIndex:
    """Term counts of the indexed documents and the tables derived from them."""

    analyzer: AnalyzerConfig
    documents: dict  # doc_id -> {term: tf} in token order; empty documents included
    df: dict  # term -> number of documents containing it
    doc_norms: dict  # doc_id -> Euclidean norm of its weighted vector (non-empty documents)
    postings: dict  # term -> (doc_ids ascending, array('d') of their weight_atc weights)

    @property
    def lang(self):
        return self.analyzer.lang

    @property
    def num_docs(self):
        return len(self.documents)


def weight_atc(tf, max_tf, df, num_docs):
    """Augmented-TF times log-IDF weight of one term occurrence.

    Callers guarantee 1 <= tf <= max_tf and 1 <= df <= num_docs. Cosine
    normalization is applied at vector level, not here.
    """
    return (0.5 + 0.5 * tf / max_tf) * math.log(num_docs / df)


def _derive(documents, analyzer):
    """The index over ``documents`` (doc_id -> {term: tf}, tf >= 1).

    Each norm is summed in the document's own term order, so it does not
    depend on how the index was obtained. Documents are visited in ascending
    doc_id order, which leaves every posting list sorted by doc_id.
    """
    num_docs = len(documents)
    df = dict(Counter(chain.from_iterable(documents.values())))
    postings = {term: ([], array("d")) for term in df}
    doc_norms = {}
    for doc_id in sorted(documents):
        counts = documents[doc_id]
        if not counts:
            continue
        max_tf = max(counts.values())
        sq = 0.0
        for term, tf in counts.items():
            w = weight_atc(tf, max_tf, df[term], num_docs)
            doc_ids, weights = postings[term]
            doc_ids.append(doc_id)
            weights.append(w)
            sq += w * w
        doc_norms[doc_id] = math.sqrt(sq)
    return InvertedIndex(
        analyzer=analyzer,
        documents=documents,
        df=df,
        doc_norms=doc_norms,
        postings=postings,
    )


def build_index(corpus, cfg):
    """Index every document of ``corpus``, which must be monolingual in ``cfg.lang``.

    Documents that analyze to nothing still count toward ``num_docs`` but get
    no postings.
    """
    if len(corpus) == 0:
        raise ConfigError("empty collection: document frequency needs at least one document")
    for doc in corpus:
        if doc.lang != cfg.lang:
            raise ConfigError(
                f"document {doc.doc_id!r} is {doc.lang!r} but the index language is {cfg.lang!r}"
            )
    return _derive({doc.doc_id: analyze(indexable_text(doc), cfg).counts for doc in corpus}, cfg)


def weighted_query(index, query_terms):
    """Weight a query TermVector against the index statistics.

    Terms absent from the collection carry no usable document frequency and are
    dropped; terms present in every document weigh zero and are dropped too.
    """
    weights = {}
    for term, tf in query_terms.counts.items():
        df = index.df.get(term)
        if not df:
            continue
        w = weight_atc(tf, query_terms.max_tf, df, index.num_docs)
        if w > 0.0:
            weights[term] = w
    return weights


def search(index, query_terms, top_n, query_id=""):
    """First-stage retrieval: top ``top_n`` documents by cosine similarity.

    Scores accumulate term at a time into one dot product per document. Every
    positive score becomes a plain ``(-score, doc_id)`` pair; the pairs are
    sorted as they are, with no key function, and only the ``top_n`` kept
    become ``ScoredDoc`` entries. A heap selection was slower than this sort
    at depth 1000. Zero-scoring documents are omitted, so the result may be
    shorter than ``top_n``. Ties break by ascending doc_id for deterministic
    runs, so a shallower search is a prefix of a deeper one.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    qw = weighted_query(index, query_terms)
    if not qw:
        return RankedList(query_id=query_id, entries=[])
    qnorm = math.sqrt(sum(w * w for w in qw.values()))

    dots = {}
    for term, w in qw.items():
        doc_ids, weights = index.postings[term]
        for doc_id, dw in zip(doc_ids, weights):
            dots[doc_id] = dots.get(doc_id, 0.0) + w * dw

    doc_norms = index.doc_norms
    ranked = []
    append = ranked.append
    for doc_id, dot in dots.items():
        denom = qnorm * doc_norms[doc_id]
        if denom == 0.0:
            continue
        score = min(dot / denom, 1.0)
        if score > 0.0:
            append((-score, doc_id))
    ranked.sort()
    return RankedList(
        query_id=query_id,
        entries=[ScoredDoc(doc_id, -neg) for neg, doc_id in ranked[:top_n]],
    )


# keys of a saved index's analyzer settings, with the JSON types they hold
_ANALYZER_TYPES = {
    "lang": str,
    "lowercase": bool,
    "stopword_list": list,
    "tokenizer_kind": str,
    "min_token_len": int,
}


def save_index(index, path):
    """Persist an index as JSON. Loading it back reproduces searches exactly.

    Keys are written in insertion order, never sorted: each document's term
    counts keep their token order, which fixes the summation order of its norm.
    The payload is encoded before ``path`` is opened, so an index holding text
    that is not UTF-8 (a lone surrogate) raises IntegrityError naming ``path``
    and leaves any file there untouched.
    """
    if index.analyzer.stemmer is not None:
        raise ConfigError("an index built with a custom stemmer cannot be persisted")
    analyzer = {key: getattr(index.analyzer, key) for key in _ANALYZER_TYPES}
    analyzer["stopword_list"] = sorted(analyzer["stopword_list"])
    payload = {"format": INDEX_FORMAT, "analyzer": analyzer, "documents": index.documents}
    try:
        data = json.dumps(payload, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise IntegrityError(f"{path}: cannot write {bad!r}: it is not UTF-8 text") from None
    with open(path, "wb") as fh:
        fh.write(data)


def _check_types(record, types, path, prefix=""):
    for key, kind in types.items():
        if not isinstance(record.get(key), kind):
            raise IntegrityError(f"{path}: {prefix}{key!r} missing or not a JSON {kind.__name__}")


def load_index(path):
    """Read an index written by ``save_index`` and derive its tables.

    A file that is not UTF-8 JSON raises ParseError naming it. The structure
    is checked before use: a file that is not a ``clir-index-v2`` file (an
    older format among them; rebuild it with ``clir index``), misses a key,
    holds a value of the wrong type, lists no document, or holds a term count
    that is not a positive integer raises IntegrityError naming it.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise IntegrityError(f"{path}: not a {INDEX_FORMAT} file; rebuild it with `clir index`")
    _check_types(payload, {"analyzer": dict, "documents": dict}, path)
    analyzer = payload["analyzer"]
    _check_types(analyzer, _ANALYZER_TYPES, path, prefix="analyzer ")
    try:
        cfg = AnalyzerConfig(**{key: analyzer[key] for key in _ANALYZER_TYPES})
    except (ConfigError, TypeError) as exc:
        raise IntegrityError(f"{path}: bad analyzer settings: {exc}") from None
    documents = payload["documents"]
    if not documents:
        raise IntegrityError(f"{path}: 'documents' lists no document")
    for doc_id, counts in documents.items():
        if not isinstance(counts, dict) or not all(
            type(tf) is int and tf > 0 for tf in counts.values()
        ):
            raise IntegrityError(
                f"{path}: term counts of document {doc_id!r} are not a JSON object "
                "of positive integers"
            )
    return _derive(documents, cfg)
