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
saves, never does. Either way the tables are bit-identical. A loaded index is
a search index: it keeps the tables, not the counts, so only a built index
can be saved.

In memory each document is known by its ordinal, its position in ascending
doc_id order. Postings hold ordinals and the norms are one dense list, so
``search`` accumulates dot products in a flat list and scores every document
with builtins iterating in C. Ordinal order is doc_id order, so ties break the
same either way.

A query term at the query's maximum tf weighs exactly its idf factor, which
``_derive`` keeps per term. The first search that weighs a term so keeps an
``array('d')`` of ``idf * weight`` per posting on the index, and later ones
add those products instead of multiplying again: at most one array per term,
8 bytes per posting, and none before the first search. The products are the
same float operations as ``w * weight``, so every score keeps its bits.
Dictionary translation keeps its choice per candidate list in ``choices``.

Only documents that can reach the top ``top_n`` are sorted: those at or above
a floor read, with a margin for sampling error, from every 8th score sorted,
when at least ``top_n`` reach it. Otherwise all documents are.
"""

import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import ge, mul, truediv

from clir.corpus import AnalyzerConfig, analyze, check_run_token, indexable_text
from clir.errors import ConfigError, IntegrityError
from clir.files import read_json, replacing

INDEX_FORMAT = "clir-index-v2"
_SAVE_CHUNK = 16  # documents that save_index encodes at a time


@dataclass(slots=True)
class ScoredDoc:
    doc_id: str
    score: float


@dataclass(slots=True)
class RerankedEntry:
    """One re-ranked document with both stage scores and their combination,
    as ``RankedList.entries`` shows it."""

    doc_id: str
    esim: float  # first-stage score
    jsim: float  # second-stage score
    sim: float  # combined score used for the final ordering

    @property
    def score(self):
        return self.sim


@dataclass(slots=True)
class RankedList:
    """Scored documents in rank order (scores non-increasing, ids distinct),
    kept as columns.

    ``doc_ids`` is a list, and ``scores`` a parallel ``array('d')`` that
    the given scores are copied into (a C double is 8 bytes, a float object
    32; an int becomes a float). A re-ranked head also has ``esims`` and
    ``jsims``, arrays too, each document's two stage scores, parallel to the
    first ``len(esims)`` positions, where ``scores`` holds the combined
    score. ``RankedList(query_id, entries)`` takes the columns from records:
    ``RerankedEntry`` records for the head, then ``ScoredDoc`` records.
    """

    query_id: str
    doc_ids: list
    scores: array
    esims: array
    jsims: array

    def __init__(self, query_id, entries=(), *, doc_ids=None, scores=(), esims=(), jsims=()):
        if doc_ids is None:
            head = [e for e in entries if not isinstance(e, ScoredDoc)]
            doc_ids, scores = [e.doc_id for e in entries], [e.score for e in entries]
            esims, jsims = [e.esim for e in head], [e.jsim for e in head]
        self.query_id, self.doc_ids = query_id, doc_ids
        self.scores, self.esims, self.jsims = (array("d", c) for c in (scores, esims, jsims))

    @property
    def entries(self):
        """The ranking as records, built afresh on each access and not kept:
        a ``RerankedEntry`` per re-ranked document, then a ``ScoredDoc`` each."""
        k = len(self.esims)
        return [*map(RerankedEntry, self.doc_ids[:k], self.esims, self.jsims, self.scores[:k]),
                *map(ScoredDoc, self.doc_ids[k:], self.scores[k:])]


class InvertedIndex:
    """Term counts of the indexed documents and the tables derived from them.

    ``df`` (term -> number of documents holding it) and ``num_docs`` are
    counted on construction. ``doc_ids``, ``doc_norms``, ``postings`` and
    ``idf`` are derived together on first use and kept. ``products`` starts
    empty: ``search`` keeps there, for each term it has weighed at exactly
    its idf factor, an ``array('d')`` of ``idf * weight`` parallel to the
    term's postings. ``choices`` (empty at first, not saved) maps a candidate
    list to the terms dictionary translation chose. ``documents`` maps each
    doc_id to its {term: tf} in token order, empty documents included, on a
    built index; a loaded index keeps no counts, and its ``documents`` is
    ``None``.
    """

    def __init__(self, analyzer, documents):
        self.analyzer = analyzer
        self.documents = documents
        self.num_docs = len(documents)
        self.df = dict(Counter(chain.from_iterable(documents.values())))
        self.products, self.choices = {}, {}

    @cached_property
    def _tables(self):
        documents = self.documents
        return _derive(((d, documents[d]) for d in sorted(documents)), self.df, self.num_docs)

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
        """Term -> (list of ordinals ascending, array('d') of their tf-idf weights)."""
        return self._tables[2]

    @property
    def idf(self):
        """Term -> its idf factor, log(num_docs / df)."""
        return self._tables[3]


def _tf_factor(tf, max_tf):
    return 0.5 + 0.5 * tf / max_tf


def _idf_factor(df, num_docs):
    return math.log(num_docs / df)


def weight_atc(tf, max_tf, df, num_docs):
    """Augmented-TF times log-IDF weight of one term occurrence: the
    definition that the tests hold the index's postings and query weights to.

    Callers guarantee 1 <= tf <= max_tf and 1 <= df <= num_docs. Cosine
    normalization is applied at vector level, not here.
    """
    return _tf_factor(tf, max_tf) * _idf_factor(df, num_docs)


def _derive(documents, df, num_docs):
    """The doc_ids, norms, postings and idf factors of ``documents``, the
    ``num_docs`` pairs (doc_id, {term: tf}), tf >= 1, in ascending doc_id
    order, whose document frequencies are ``df``.

    Each weight is the product of a tf factor and an idf factor, the idf
    factor computed once per term and the tf factor once per distinct tf of
    a document. Each norm is summed in the document's own term order, so it
    does not depend on how the index was obtained. Documents are numbered in
    the order given, which leaves every posting list sorted by ordinal, and
    each document's counts are read once, so a caller may release them as
    they go. A norm of 0 (an empty document, or one whose every term is in
    every document) is stored as ``inf``, so that document's cosine is 0 and
    ``search`` drops it.
    """
    idf = {term: _idf_factor(n, num_docs) for term, n in df.items()}
    postings = {term: ([], array("d")) for term in df}
    doc_ids = []
    doc_norms = []
    for ordinal, (doc_id, counts) in enumerate(documents):
        doc_ids.append(doc_id)
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
    return doc_ids, doc_norms, postings, idf


def build_index(corpus, cfg):
    """Index every document of ``corpus``, which must be monolingual in ``cfg.lang``.

    Documents that analyze to nothing still count toward ``num_docs`` but get
    no postings. Every document's counts key a term by the same string, the
    one from the first document in corpus order that holds it. The search
    tables are derived at the first search, so an index that is only saved
    never derives them.
    """
    if len(corpus) == 0:
        raise ConfigError("empty collection: document frequency needs at least one document")
    for doc in corpus:
        if doc.lang != cfg.lang:
            raise ConfigError(
                f"document {doc.doc_id!r} is {doc.lang!r} but the index language is {cfg.lang!r}"
            )
    terms = {}  # term -> the one string that keys it in every document's counts
    documents = {}
    for doc in corpus:
        counts = analyze(indexable_text(doc), cfg).counts
        documents[doc.doc_id] = dict(zip(map(terms.setdefault, counts, counts), counts.values()))
    return InvertedIndex(cfg, documents)


def weighted_query(index, query_terms):
    """Weight a query TermVector: each term's tf factor times the index's idf factor.

    Terms absent from the collection carry no usable document frequency and are
    dropped; terms present in every document weigh zero and are dropped too.
    """
    counts = query_terms.counts
    max_tf = max(counts.values(), default=0)
    idf = index.idf
    return {term: _tf_factor(tf, max_tf) * idf[term] for term, tf in counts.items()
            if idf.get(term)}


def search(index, query_terms, top_n, query_id=""):
    """First-stage retrieval: top ``top_n`` documents by cosine similarity.

    Scores accumulate term at a time into one dot product per document
    ordinal, and every document's cosine is then computed at once. A term
    weighed at exactly its idf factor adds the index's kept products, built
    at its first such search; any other weight multiplies its postings on
    the fly. One stable sort by score ranks the candidates ``_candidates``
    picks, the documents at or above a sampled floor (all of them when fewer
    than ``top_n`` reach it), and the first ``top_n`` become the columns.
    Zero-scoring documents are omitted, so the result may be shorter than
    ``top_n``. Ties break by ascending doc_id (ordinal order is doc_id
    order) for deterministic runs, so a shallower search is a prefix of a
    deeper one.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    qw = weighted_query(index, query_terms)
    if not qw:
        return RankedList(query_id)
    # summed left to right, like the document norms: builtin sum() of floats
    # is compensated from Python 3.12 on and would move the last bit
    sq = 0.0
    for w in qw.values():
        sq += w * w
    qnorm = math.sqrt(sq)

    acc = [0.0] * index.num_docs
    for term, w in qw.items():
        ordinals, weights = index.postings[term]
        if w == index.idf[term]:  # the term's tf is the query's maximum
            products = index.products.get(term)
            if products is None:
                products = index.products[term] = array("d", map(mul, repeat(w), weights))
        else:
            products = map(mul, repeat(w), weights)
        for ordinal, product in zip(ordinals, products):
            acc[ordinal] += product

    scores = list(map(truediv, acc, map(mul, repeat(qnorm), index.doc_norms)))
    # a stable sort: equal scores stay in ordinal order
    ranked = sorted(_candidates(scores, top_n), key=scores.__getitem__, reverse=True)
    # a cosine that rounds above 1.0 is clamped to 1.0, where it ties with
    # the other documents at 1.0 and ranks among them by ordinal
    clamped = 0
    while clamped < len(ranked) and scores[ranked[clamped]] >= 1.0:
        clamped += 1
    ranked[:clamped] = sorted(ranked[:clamped])
    top = ranked[:top_n]
    values = list(map(scores.__getitem__, top))
    values[:clamped] = repeat(1.0, min(clamped, len(values)))
    if values[-1] == 0.0:  # zero-scoring documents are left out
        del values[values.index(0.0):]
        del top[len(values):]
    return RankedList(query_id, doc_ids=list(map(index.doc_ids.__getitem__, top)), scores=values)


def _candidates(scores, top_n):
    """The ordinals, ascending, that a ranking of ``scores`` (non-negative
    cosines) must sort to find its first ``top_n``.

    The floor is the score at index ``k`` of every 8th score sorted, capped
    at 1.0. With ``k0 = top_n // 8 + 1``, about ``8 * (k0 + 1)`` scores reach
    the sample's score at ``k0``, give or take ``8 * sqrt(k0)``; ``k`` is
    ``k0 + ceil(3 * sqrt(k0))``, three such spreads deeper. If the floor is
    positive and at least ``top_n`` scores reach it, the top ``top_n`` and
    every score of 1.0 or more are among them, which are returned; if not,
    or if the sample is too short to hold index ``k``, every ordinal is.
    """
    n = len(scores)
    k = top_n // 8 + 1
    k += math.ceil(3 * math.sqrt(k))
    if 8 * k < n:  # the sample holds index k
        floor = min(sorted(scores[::8], reverse=True)[k], 1.0)
        if floor > 0.0:
            candidates = list(compress(range(n), map(ge, scores, repeat(floor))))
            if len(candidates) >= top_n:
                return candidates
    return range(n)


# keys of a saved index's analyzer settings, with the JSON types they hold;
# "lowercase" has no AnalyzerConfig field: the analyzer always lowercases
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
    Every string is checked before ``path`` is opened: text that is not
    UTF-8 (a lone surrogate) raises IntegrityError naming the path, and
    nothing is written. Documents are encoded ``_SAVE_CHUNK`` at a time
    through ``replacing``. A loaded index keeps no counts: ConfigError.
    """
    if index.documents is None:
        raise ConfigError(f"{path}: a loaded index keeps no term counts to save; "
                          "build the index with `clir index`")
    cfg = index.analyzer
    try:
        for text in chain((cfg.lang,), cfg.stopword_list, index.documents, index.df):
            text.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        raise IntegrityError(f"{path}: cannot write {bad!r}: it is not UTF-8 text") from None
    analyzer = {"lang": cfg.lang, "lowercase": True, "stopword_list": sorted(cfg.stopword_list),
                "tokenizer_kind": cfg.tokenizer_kind, "min_token_len": cfg.min_token_len}
    encode = json.JSONEncoder(ensure_ascii=False).encode
    items = iter(index.documents.items())
    head = {"format": INDEX_FORMAT, "analyzer": analyzer,
            "documents": dict(islice(items, _SAVE_CHUNK))}
    with replacing(path) as fh:
        fh.write(encode(head)[:-2])  # without the braces that close "documents" and the file
        while chunk := dict(islice(items, _SAVE_CHUNK)):
            fh.write(", " + encode(chunk)[1:-1])
        fh.write("}}")


def _check_types(record, types, path, prefix=""):
    for key, kind in types.items():
        if not isinstance(record.get(key), kind):
            raise IntegrityError(f"{path}: {prefix}{key!r} missing or not a JSON {kind.__name__}")


def load_index(path):
    """Read an index written by ``save_index`` and derive its tables.

    A file that is not UTF-8 JSON raises ParseError naming it. The structure
    is checked before use: a file that is not a ``clir-index-v2`` file (an
    older format among them; rebuild it with ``clir index``), misses a key,
    holds a value of the wrong type or an analyzer ``"lowercase"`` that is not
    true, lists no document, holds a doc_id that fails ``check_run_token``
    (no run file could hold it) or a term count that is not a positive
    integer raises IntegrityError naming it.
    """
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise IntegrityError(f"{path}: not a {INDEX_FORMAT} file; rebuild it with `clir index`")
    _check_types(payload, {"analyzer": dict, "documents": dict}, path)
    analyzer = payload["analyzer"]
    _check_types(analyzer, _ANALYZER_TYPES, path, prefix="analyzer ")
    settings = {key: analyzer[key] for key in _ANALYZER_TYPES}
    if not settings.pop("lowercase"):
        raise IntegrityError(f"{path}: analyzer 'lowercase' is false; rebuild it with `clir index`")
    try:
        cfg = AnalyzerConfig(**settings)
    except (ConfigError, TypeError) as exc:
        raise IntegrityError(f"{path}: bad analyzer settings: {exc}") from None
    documents = payload["documents"]
    if not documents:
        raise IntegrityError(f"{path}: 'documents' lists no document")
    for doc_id, counts in documents.items():
        try:
            check_run_token(doc_id, "doc id")
        except ValueError as exc:
            raise IntegrityError(f"{path}: {exc}") from None
        if not isinstance(counts, dict) or counts and (
            set(map(type, counts.values())) != {int} or min(counts.values()) < 1
        ):
            raise IntegrityError(
                f"{path}: term counts of document {doc_id!r} are not a JSON object "
                "of positive integers"
            )
    index = InvertedIndex(cfg, documents)
    # derived now, not at the first search: every verb that loads an index
    # searches it, and only searches it. Each document's counts are released
    # as they are read, and none is kept
    index._tables = _derive(((d, documents.pop(d)) for d in sorted(documents)),
                            index.df, index.num_docs)
    index.documents = None
    return index
