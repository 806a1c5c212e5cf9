"""Inverted index over the target-language collection and first-stage retrieval.

Weighting is augmented term frequency times log inverse document frequency with
cosine normalization, applied to queries and documents alike. Natural log
throughout, so saved scores are bit-reproducible.

A saved index (format ``clir-index-v2``) holds only the analyzer settings and
each document's term counts in token order. Document frequencies are counted
from them when the index is made. Document norms and the weighted postings are
derived from them by one function, once per index: ``load_index`` derives them
before it returns, because every command that loads an index searches it, and
a built index derives them at its first search, so ``clir index``, which only
saves, never does. Either way the tables are bit-identical.

In memory each document is known by its ordinal, its position in ascending
doc_id order. Postings hold ordinals and the norms are one dense list, so
``search`` accumulates dot products in a flat list and scores every document
with builtins iterating in C. Ordinal order is doc_id order, so ties break the
same either way.
"""

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, repeat
from operator import mul, neg, truediv

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
    """Term counts of the indexed documents and the tables derived from them.

    ``df`` is counted on construction. ``doc_ids``, ``doc_norms`` and
    ``postings`` are derived together on first use and kept.
    """

    analyzer: AnalyzerConfig
    documents: dict  # doc_id -> {term: tf} in token order; empty documents included
    df: dict = field(init=False)  # term -> number of documents containing it

    def __post_init__(self):
        self.df = dict(Counter(chain.from_iterable(self.documents.values())))

    @property
    def lang(self):
        return self.analyzer.lang

    @property
    def num_docs(self):
        return len(self.documents)

    @cached_property
    def _tables(self):
        return _derive(self.documents, self.df)

    @property
    def doc_ids(self):
        """Ordinal -> doc_id, ascending."""
        return self._tables[0]

    @property
    def doc_norms(self):
        """Ordinal -> Euclidean norm of its weighted vector; inf where that is 0."""
        return self._tables[1]

    @property
    def postings(self):
        """Term -> (list of ordinals ascending, array('d') of their weight_atc weights)."""
        return self._tables[2]


def _tf_factor(tf, max_tf):
    return 0.5 + 0.5 * tf / max_tf


def _idf_factor(df, num_docs):
    return math.log(num_docs / df)


def weight_atc(tf, max_tf, df, num_docs):
    """Augmented-TF times log-IDF weight of one term occurrence.

    Callers guarantee 1 <= tf <= max_tf and 1 <= df <= num_docs. Cosine
    normalization is applied at vector level, not here.
    """
    return _tf_factor(tf, max_tf) * _idf_factor(df, num_docs)


def _derive(documents, df):
    """The doc_ids, norms and postings of ``documents`` (doc_id -> {term: tf},
    tf >= 1), whose document frequencies are ``df``.

    Each weight is ``weight_atc``'s product of the same two factors, the idf
    factor computed once per term and the tf factor once per distinct tf of
    a document. Each norm is summed in the document's own term order, so it
    does not depend on how the index was obtained. Documents are visited in
    ascending doc_id order and numbered in that order, which leaves every
    posting list sorted by ordinal. A norm of 0 (an empty document, or one
    whose every term is in every document) is stored as ``inf``, so that
    document's cosine is 0 and ``search`` drops it.
    """
    num_docs = len(documents)
    idf = {term: _idf_factor(n, num_docs) for term, n in df.items()}
    postings = {term: ([], array("d")) for term in df}
    doc_ids = sorted(documents)
    doc_norms = []
    for ordinal, doc_id in enumerate(doc_ids):
        counts = documents[doc_id]
        tfs = counts.values()
        max_tf = max(tfs, default=0)
        tf_factor = {tf: _tf_factor(tf, max_tf) for tf in set(tfs)}
        sq = 0.0
        for term, w in zip(counts, map(mul, map(tf_factor.__getitem__, tfs),
                                       map(idf.__getitem__, counts))):
            ordinals, weights = postings[term]
            ordinals.append(ordinal)
            weights.append(w)
            sq += w * w
        doc_norms.append(math.sqrt(sq) or math.inf)
    return doc_ids, doc_norms, postings


def build_index(corpus, cfg):
    """Index every document of ``corpus``, which must be monolingual in ``cfg.lang``.

    Documents that analyze to nothing still count toward ``num_docs`` but get
    no postings. The search tables are derived at the first search, so an
    index that is only saved never derives them.
    """
    if len(corpus) == 0:
        raise ConfigError("empty collection: document frequency needs at least one document")
    for doc in corpus:
        if doc.lang != cfg.lang:
            raise ConfigError(
                f"document {doc.doc_id!r} is {doc.lang!r} but the index language is {cfg.lang!r}"
            )
    return InvertedIndex(cfg, {doc.doc_id: analyze(indexable_text(doc), cfg).counts
                               for doc in corpus})


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

    Scores accumulate term at a time into one dot product per document
    ordinal, and every document's cosine is then computed at once. Sorting
    those floats alone gives the ``top_n``-th score; only the documents
    scoring at least that much, ties included, are sorted as
    ``(-score, ordinal)`` pairs and become ``ScoredDoc`` entries.
    Zero-scoring documents are omitted, so the result may be shorter than
    ``top_n``. Ties break by ascending doc_id (ordinal order is doc_id order)
    for deterministic runs, so a shallower search is a prefix of a deeper one.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    qw = weighted_query(index, query_terms)
    if not qw:
        return RankedList(query_id=query_id, entries=[])
    # summed left to right, like the document norms: builtin sum() of floats
    # is compensated from Python 3.12 on and would move the last bit
    sq = 0.0
    for w in qw.values():
        sq += w * w
    qnorm = math.sqrt(sq)

    acc = [0.0] * index.num_docs
    for term, w in qw.items():
        ordinals, weights = index.postings[term]
        for ordinal, dw in zip(ordinals, weights):
            acc[ordinal] += w * dw

    # cosines before the clamp to 1.0; min() is monotone, so the top_n-th
    # clamped score is the clamped top_n-th of these, and only the documents
    # kept by the cut need clamping
    scores = list(map(truediv, acc, map(mul, repeat(qnorm), index.doc_norms)))
    cut = min(sorted(scores, reverse=True)[min(top_n, len(scores)) - 1], 1.0)
    kept = list(compress(range(len(scores)),
                         map(cut.__le__ if cut > 0.0 else (0.0).__lt__, scores)))
    ranked = sorted(zip(map(neg, map(min, map(scores.__getitem__, kept), repeat(1.0))), kept))
    doc_ids = index.doc_ids
    return RankedList(
        query_id=query_id,
        entries=[ScoredDoc(doc_ids[ordinal], -negated) for negated, ordinal in ranked[:top_n]],
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
        if not isinstance(counts, dict) or counts and (
            set(map(type, counts.values())) != {int} or min(counts.values()) < 1
        ):
            raise IntegrityError(
                f"{path}: term counts of document {doc_id!r} are not a JSON object "
                "of positive integers"
            )
    index = InvertedIndex(cfg, documents)
    # derived now, not at the first search: every verb that loads an index searches it
    index.postings
    return index
