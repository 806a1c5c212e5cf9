"""Inverted index over the target-language collection and first-stage retrieval.

Weighting is augmented term frequency times log inverse document frequency with
cosine normalization, applied to queries and documents alike. Natural log
throughout, so saved scores are bit-reproducible.
"""

import json
import math
from dataclasses import dataclass

from clir.corpus import AnalyzerConfig, analyze, indexable_text
from clir.errors import ConfigError, IntegrityError

INDEX_FORMAT = "clir-index-v1"


@dataclass
class Posting:
    doc_id: str
    tf: int


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
    postings: dict  # term -> [Posting], sorted by doc_id
    df: dict  # term -> number of documents containing it
    num_docs: int
    max_tf: dict  # doc_id -> max term frequency in that document
    doc_norms: dict  # doc_id -> Euclidean norm of its weighted vector
    lang: str
    analyzer: AnalyzerConfig


def weight_atc(tf, max_tf, df, num_docs):
    """Augmented-TF times log-IDF weight of one term occurrence.

    Callers guarantee 1 <= tf <= max_tf and 1 <= df <= num_docs. Cosine
    normalization is applied at vector level, not here.
    """
    return (0.5 + 0.5 * tf / max_tf) * math.log(num_docs / df)


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

    vectors = {doc.doc_id: analyze(indexable_text(doc), cfg) for doc in corpus}
    num_docs = len(vectors)

    by_term = {}
    max_tf = {}
    for doc_id, vec in vectors.items():
        if not vec.counts:
            continue
        max_tf[doc_id] = vec.max_tf
        for term, tf in vec.counts.items():
            by_term.setdefault(term, []).append(Posting(doc_id, tf))

    postings = {}
    df = {}
    for term, plist in by_term.items():
        plist.sort(key=lambda p: p.doc_id)
        postings[term] = plist
        df[term] = len(plist)

    doc_norms = {}
    for doc_id, vec in vectors.items():
        if not vec.counts:
            continue
        sq = 0.0
        for term, tf in vec.counts.items():
            w = weight_atc(tf, vec.max_tf, df[term], num_docs)
            sq += w * w
        doc_norms[doc_id] = math.sqrt(sq)

    return InvertedIndex(
        postings=postings,
        df=df,
        num_docs=num_docs,
        max_tf=max_tf,
        doc_norms=doc_norms,
        lang=cfg.lang,
        analyzer=cfg,
    )


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

    Zero-scoring documents are omitted, so the result may be shorter than
    ``top_n``. Ties break by ascending doc_id for deterministic runs.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    qw = weighted_query(index, query_terms)
    if not qw:
        return RankedList(query_id=query_id, entries=[])
    qnorm = math.sqrt(sum(w * w for w in qw.values()))

    dots = {}
    for term, w in qw.items():
        idf = math.log(index.num_docs / index.df[term])
        for posting in index.postings[term]:
            dw = (0.5 + 0.5 * posting.tf / index.max_tf[posting.doc_id]) * idf
            dots[posting.doc_id] = dots.get(posting.doc_id, 0.0) + w * dw

    scored = []
    for doc_id, dot in dots.items():
        denom = qnorm * index.doc_norms[doc_id]
        if denom == 0.0:
            continue
        score = min(dot / denom, 1.0)
        if score > 0.0:
            scored.append(ScoredDoc(doc_id, score))
    scored.sort(key=lambda s: (-s.score, s.doc_id))
    return RankedList(query_id=query_id, entries=scored[:top_n])


def save_index(index, path):
    """Persist an index as JSON. Loading it back reproduces searches exactly."""
    if index.analyzer.stemmer is not None:
        raise ConfigError("an index built with a custom stemmer cannot be persisted")
    payload = {
        "format": INDEX_FORMAT,
        "lang": index.lang,
        "num_docs": index.num_docs,
        "analyzer": {
            "lang": index.analyzer.lang,
            "lowercase": index.analyzer.lowercase,
            "stopword_list": sorted(index.analyzer.stopword_list),
            "tokenizer_kind": index.analyzer.tokenizer_kind,
            "min_token_len": index.analyzer.min_token_len,
        },
        "postings": {t: [[p.doc_id, p.tf] for p in plist] for t, plist in index.postings.items()},
        "df": index.df,
        "max_tf": index.max_tf,
        "doc_norms": index.doc_norms,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, sort_keys=True)


# top-level and analyzer keys of a saved index, with the JSON types they hold
_PAYLOAD_TYPES = {
    "lang": str,
    "num_docs": int,
    "analyzer": dict,
    "postings": dict,
    "df": dict,
    "max_tf": dict,
    "doc_norms": dict,
}
_ANALYZER_TYPES = {
    "lang": str,
    "lowercase": bool,
    "stopword_list": list,
    "tokenizer_kind": str,
    "min_token_len": int,
}


def _check_types(record, types, path, prefix=""):
    for key, kind in types.items():
        if not isinstance(record.get(key), kind):
            raise IntegrityError(f"{path}: {prefix}{key!r} missing or not a JSON {kind.__name__}")


def load_index(path):
    """Read an index written by ``save_index``.

    The structure is checked before use: a file that is not such an index,
    misses a key, holds a value of the wrong type, or lacks the ``max_tf`` or
    ``doc_norms`` entry of a posted document raises IntegrityError naming it.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise IntegrityError(f"{path}: not a {INDEX_FORMAT} file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != INDEX_FORMAT:
        raise IntegrityError(f"{path}: not a {INDEX_FORMAT} file")
    _check_types(payload, _PAYLOAD_TYPES, path)
    if payload["num_docs"] < 1:
        raise IntegrityError(f"{path}: 'num_docs' must be positive")
    analyzer = payload["analyzer"]
    _check_types(analyzer, _ANALYZER_TYPES, path, prefix="analyzer ")
    try:
        cfg = AnalyzerConfig(
            lang=analyzer["lang"],
            lowercase=analyzer["lowercase"],
            stopword_list=frozenset(analyzer["stopword_list"]),
            tokenizer_kind=analyzer["tokenizer_kind"],
            min_token_len=analyzer["min_token_len"],
        )
    except (ConfigError, TypeError) as exc:
        raise IntegrityError(f"{path}: bad analyzer settings: {exc}") from None
    df = payload["df"]
    max_tf = payload["max_tf"]
    doc_norms = payload["doc_norms"]
    postings = {}
    posted = set()
    for term, plist in payload["postings"].items():
        try:
            entries = postings[term] = [Posting(doc_id, tf) for doc_id, tf in plist]
            posted.update(p.doc_id for p in entries)
        except (TypeError, ValueError):
            raise IntegrityError(f"{path}: malformed postings of {term!r}") from None
        if not all(type(p.tf) is int for p in entries):
            raise IntegrityError(f"{path}: non-integer term frequency in postings of {term!r}")
        if df.get(term) != len(entries):
            raise IntegrityError(f"{path}: document frequency of {term!r} disagrees with postings")
    if len(df) != len(postings):
        raise IntegrityError(f"{path}: document frequencies listed for terms without postings")
    for name, table, kinds in (("max_tf", max_tf, (int,)), ("doc_norms", doc_norms, (int, float))):
        missing = posted.difference(table)
        if missing:
            raise IntegrityError(f"{path}: {name} lacks posted document {min(map(str, missing))!r}")
        if not all(type(v) in kinds for v in table.values()):
            raise IntegrityError(f"{path}: {name} holds a non-numeric value")
    return InvertedIndex(
        postings=postings,
        df=df,
        num_docs=payload["num_docs"],
        max_tf=max_tf,
        doc_norms=doc_norms,
        lang=payload["lang"],
        analyzer=cfg,
    )
