"""Re-score back-translated documents against the original query and re-rank.

The second stage works on a handful of documents, so it keeps no index. Term
weights are 1 + ln(tf) times ln(N/n_t) where N is the size of the retrieved
set and n_t counts, within that set, the translated documents containing the
term. Similarity is the plain inner product; length normalization is
deliberately absent. The two stages' scores then combine as a weighted
geometric mean with a small floor replacing zeros.

``rerank`` reads the translated documents term-major, from a
``TranslatedDocs``: one ``{doc_id: tf}`` map per term. Only a query term can
contribute to the inner product, so for each query term, in query order, it
intersects the retrieved documents with that term's map, in C, walking the
smaller side: the intersection's size is n_t, and the term's contribution,
computed once per distinct tf, is added only where the term occurs. Every
document's score is thus summed in query order, which is the definition
``score_inner_product`` writes out. ``rerank`` then maps ``combine_scores``
over the two score columns and orders whole lists, and the result is the
ranking's columns in their final order: no record is made per document.
"""

import math
import sys
from dataclasses import dataclass
from itertools import groupby, repeat

from clir.corpus import analyze, indexable_text
from clir.index import RankedList

_MAX_SCORE = sys.float_info.max


@dataclass
class CombineParams:
    """Exponents of the geometric-mean combination and the zero-score floor."""

    alpha: float = 1.0
    beta: float = 1.0
    epsilon: float = 0.0001

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha, self.beta, self.epsilon))):
            raise ValueError("alpha, beta and epsilon must be finite")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be non-negative")


@dataclass
class RerankStats:
    """Collection statistics of the retrieved set, counted on translated text."""

    num_docs: int  # documents retrieved in the first stage
    df: dict  # term -> documents among those containing it


def rerank_tf(f):
    """Dampened term-frequency factor; an absent term contributes nothing."""
    if f <= 0:
        return 0.0
    return 1.0 + math.log(f)


def rerank_idf(stats, term):
    """ln(N / n_t) over the retrieved set. Undefined when no document has the term."""
    n = stats.df.get(term, 0)
    if n < 1:
        raise ValueError(f"term {term!r} occurs in none of the retrieved documents")
    return math.log(stats.num_docs / n)


def query_weights(query_terms, stats):
    """Each scorable query term's (weight, idf), in query order.

    The weight is ``rerank_tf(tf) * idf``. Terms with no support in the
    retrieved set are left out: they cannot match any counted document.
    """
    weights = {}
    for term, tf in query_terms.counts.items():
        if stats.df.get(term, 0) >= 1:
            idf = rerank_idf(stats, term)
            weights[term] = (rerank_tf(tf) * idf, idf)
    return weights


def score_inner_product(query_terms, doc_terms, stats):
    """Inner product of the weighted query and document vectors.

    Only shared terms with a ``query_weights`` entry contribute, summed in
    query order.
    """
    weights = query_weights(query_terms, stats)
    d = doc_terms.counts
    total = 0.0
    for term, (weight, idf) in weights.items():
        if term in d:
            total += weight * (rerank_tf(d[term]) * idf)
    return total


def combine_scores(esim, jsim, p):
    """Weighted geometric-mean combination of the two stage scores.

    A zero on either side would erase the other, so zeros are replaced by the
    small positive floor ``p.epsilon`` first. The result is always finite: a
    product beyond the float range saturates at the largest float. ``rerank``
    maps it over the head's two score columns. With large exponents it can
    underflow to 0.0 or saturate for several documents at once; ``rerank``
    orders such ties by the combination's logarithm.
    """
    try:
        score = ((esim if esim > 0.0 else p.epsilon) ** p.alpha
                 * (jsim if jsim > 0.0 else p.epsilon) ** p.beta)
    except OverflowError:
        return _MAX_SCORE
    return score if score < _MAX_SCORE else _MAX_SCORE


def _log_combined(esim, jsim, p):
    """alpha ln e + beta ln j with the floors of ``combine_scores``: the same
    order as the combination, without its underflow and saturation."""
    return (p.alpha * math.log(esim if esim > 0.0 else p.epsilon)
            + p.beta * math.log(jsim if jsim > 0.0 else p.epsilon))


def _order_ties(order, doc_ids, esims, jsims, sims, p):
    """Re-order each run of exactly equal combined scores by the logarithm,
    then doc_id; the logarithm is computed for tied entries only."""
    ordered = []
    for _, run in groupby(order, key=sims.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda i: (-_log_combined(esims[i], jsims[i], p), doc_ids[i]))
        ordered.extend(run)
    return ordered


def document_vector(doc, cfg):
    """Term vector of a query-language rendition, as the second stage scores it."""
    return analyze(indexable_text(doc), cfg)


class TranslatedDocs:
    """Term vectors of translated documents, kept term-major.

    ``postings`` maps each term to ``{doc_id: tf}`` over the documents
    holding it, and ``docs`` maps each doc_id to the seconds spent producing
    it. No per-document count dict is kept.
    """

    __slots__ = ("docs", "postings")

    def __init__(self):
        self.docs = {}
        self.postings = {}

    def add(self, doc_id, counts, seconds=0.0):
        """Store ``counts`` ({term: tf}, tf >= 1) as ``doc_id``'s vector."""
        postings = self.postings
        for term, tf in counts.items():
            column = postings.get(term)
            if column is None:
                postings[term] = {doc_id: tf}
            else:
                column[doc_id] = tf
        self.docs[doc_id] = seconds


def rerank(first_stage, translated_docs, source_query, cfg, p):
    """Re-order the first-stage retrieval by the combined score: a
    ``RankedList`` whose ``scores`` are the combined scores and whose
    ``esims`` and ``jsims`` are every document's two stage scores.

    ``translated_docs`` holds the query-language renditions: a
    ``TranslatedDocs``, which may hold documents beyond the retrieved ones,
    or a mapping from doc_id to the translated Document, whose
    ``document_vector`` under ``cfg`` is put in the same view first.
    Retrieved documents missing from it (failed translations) score zero in
    the second stage but stay in the list. Exact ties of the combined score
    break by its logarithm (see ``combine_scores``), then by ascending
    doc_id.
    """
    doc_ids = first_stage.doc_ids
    if not doc_ids:
        return RankedList(first_stage.query_id)

    store = translated_docs
    if not isinstance(store, TranslatedDocs):
        store = TranslatedDocs()
        for doc_id in doc_ids:
            doc = translated_docs.get(doc_id)
            if doc is not None:
                store.add(doc_id, document_vector(doc, cfg).counts)
    query_vec = analyze(source_query.description, cfg)
    n = len(doc_ids)
    positions = dict(zip(doc_ids, range(n)))
    postings = store.postings
    # the retrieved documents holding each query term; their number is its n_t
    holders = {}
    for term in query_vec.counts:
        column = postings.get(term)
        if column is not None and (held := positions.keys() & column.keys()):
            holders[term] = held
    stats = RerankStats(num_docs=n, df={term: len(held) for term, held in holders.items()})
    weights = query_weights(query_vec, stats)

    # Term at a time in query order, added only where the term occurs, as
    # score_inner_product adds them: each document receives its
    # contributions in query order, whatever order a set yields them in, so
    # each sum equals score_inner_product's bit for bit.
    jsims = [0.0] * n
    for term, (weight, idf) in weights.items():
        column = postings[term]
        table = {}  # tf -> contribution
        for doc_id in holders[term]:
            tf = column[doc_id]
            contribution = table.get(tf)
            if contribution is None:
                contribution = table[tf] = weight * (rerank_tf(tf) * idf)
            jsims[positions[doc_id]] += contribution

    esims = first_stage.scores.tolist()
    sims = list(map(combine_scores, esims, jsims, repeat(p)))
    order = sorted(range(n), key=sims.__getitem__, reverse=True)
    if len(set(sims)) < n:
        order = _order_ties(order, doc_ids, esims, jsims, sims, p)
    doc_ids, esims, jsims, sims = (list(map(column.__getitem__, order))
                                   for column in (doc_ids, esims, jsims, sims))
    return RankedList(first_stage.query_id, doc_ids=doc_ids, scores=sims, esims=esims, jsims=jsims)
