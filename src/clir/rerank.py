"""Re-score back-translated documents against the original query and re-rank.

The second stage works on a handful of documents, so it keeps no index. Term
weights are 1 + ln(tf) times ln(N/n_t) where N is the size of the retrieved
set and n_t counts, within that set, the translated documents containing the
term. Only a query term can contribute to the inner product, so ``rerank``
takes one column per query term, its frequency in every retrieved document:
n_t is counted on the column, the term's weight is computed once per query,
and the scores accumulate one column at a time through a table from frequency
to contribution, in builtins iterating in C. Similarity is the plain inner
product; length normalization is deliberately absent. The two stages' scores
then combine as a weighted geometric mean with a small floor replacing zeros.
The combination and the final order are computed on whole lists too, and a
``RerankedEntry`` is made only for each document in its final place.
"""

import math
import sys
from dataclasses import dataclass
from itertools import groupby, repeat
from operator import add, attrgetter, lt, mul

from clir.corpus import TermVector, analyze, indexable_text
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


@dataclass(slots=True)
class RerankedEntry:
    """One re-ranked document with both stage scores and their combination."""

    doc_id: str
    esim: float  # first-stage score
    jsim: float  # second-stage score
    sim: float  # combined score used for the final ordering

    @property
    def score(self):
        return self.sim


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


def score_inner_product(query_terms, doc_terms, stats, weights=None):
    """Inner product of the weighted query and document vectors.

    Only shared terms with a ``query_weights`` entry contribute, summed in
    the order of the smaller of the two vectors. ``weights``, the
    ``query_weights`` of ``query_terms`` under ``stats``, spares recomputing
    them for every document of one query.
    """
    if weights is None:
        weights = query_weights(query_terms, stats)
    d = doc_terms.counts
    total = 0.0
    # ``weights`` keeps the query's term order, so iterating it sums in that order
    for term in weights if len(query_terms.counts) <= len(d) else d:
        if term in weights and term in d:
            weight, idf = weights[term]
            total += weight * (rerank_tf(d[term]) * idf)
    return total


def _floored(score, p):
    return score if score > 0.0 else p.epsilon


def combine_scores(esim, jsim, p):
    """Weighted geometric-mean combination of the two stage scores.

    A zero on either side would erase the other, so zeros are replaced by the
    small positive floor ``p.epsilon`` first. The result is always finite: a
    product beyond the float range saturates at the largest float. With large
    exponents it can underflow to 0.0 or saturate for several documents at
    once; ``rerank`` orders such ties by the combination's logarithm.
    """
    try:
        score = _floored(esim, p) ** p.alpha * _floored(jsim, p) ** p.beta
    except OverflowError:
        return _MAX_SCORE
    return score if score < _MAX_SCORE else _MAX_SCORE


def _log_combined(esim, jsim, p):
    """alpha ln e + beta ln j with the floors of ``combine_scores``: the same
    order as the combination, without its underflow and saturation."""
    return p.alpha * math.log(_floored(esim, p)) + p.beta * math.log(_floored(jsim, p))


def _combine_all(esims, jsims, p):
    """``combine_scores`` of each pair, bit for bit, with builtins iterating in C.

    A power that overflows raises, and the whole list is then combined again
    one pair at a time. A product that is not below the largest float (inf,
    or NaN from an infinite score) saturates; ``min`` takes the largest
    float first, so a NaN saturates as it does in ``combine_scores``.
    """
    eps = p.epsilon
    # flooring every score costs less than looking for one that needs it
    e = map(pow, [s if s > 0.0 else eps for s in esims], repeat(p.alpha))
    j = map(pow, [s if s > 0.0 else eps for s in jsims], repeat(p.beta))
    try:
        sims = list(map(mul, e, j))
    except OverflowError:
        return list(map(combine_scores, esims, jsims, repeat(p)))
    if all(map(lt, sims, repeat(_MAX_SCORE))):
        return sims
    return list(map(min, repeat(_MAX_SCORE), sims))


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


def rerank(first_stage, translated_docs, source_query, cfg, p):
    """Re-order the first-stage retrieval by the combined score.

    ``translated_docs`` maps doc_id to the query-language rendition: the
    translated Document, or its ``document_vector`` under ``cfg``. Documents
    missing from it (failed translations) score zero in the second stage but
    stay in the list. Exact ties of the combined score break by its
    logarithm (see ``combine_scores``), then by ascending doc_id.
    """
    entries = first_stage.entries
    if not entries:
        return RankedList(query_id=first_stage.query_id, entries=[])

    doc_ids = list(map(attrgetter("doc_id"), entries))
    vectors = []
    for doc_id in doc_ids:
        doc = translated_docs.get(doc_id)
        if doc is not None and not isinstance(doc, TermVector):
            doc = document_vector(doc, cfg)
        vectors.append(doc)
    counts = [{} if vec is None else vec.counts for vec in vectors]
    query_vec = analyze(source_query.description, cfg)
    n = len(entries)
    # one column per query term: its tf in each document, 0 where absent
    columns = {term: list(map(dict.get, counts, repeat(term), repeat(0)))
               for term in query_vec.counts}
    df = {term: d for term, col in columns.items() if (d := n - col.count(0))}
    stats = RerankStats(num_docs=n, df=df)
    weights = query_weights(query_vec, stats)

    # Term at a time in query order: every contribution is >= 0, so adding
    # rerank_tf(0) = 0.0 for an absent term leaves each sum exact and equal to
    # score_inner_product's for a document at least as long as the query.
    jsims = [0.0] * n
    for term, (weight, idf) in weights.items():
        col = columns[term]
        table = {tf: weight * (rerank_tf(tf) * idf) for tf in set(col)}
        jsims = list(map(add, jsims, map(table.__getitem__, col)))
    # a shorter document sums in its own term order
    qlen = len(query_vec.counts)
    for i, vec in enumerate(vectors):
        if vec is not None and len(vec.counts) < qlen:
            jsims[i] = score_inner_product(query_vec, vec, stats, weights)

    esims = list(map(attrgetter("score"), entries))
    sims = _combine_all(esims, jsims, p)
    order = sorted(range(n), key=sims.__getitem__, reverse=True)
    if len(set(sims)) < n:
        order = _order_ties(order, doc_ids, esims, jsims, sims, p)
    reranked = [RerankedEntry(doc_ids[i], esims[i], jsims[i], sims[i]) for i in order]
    return RankedList(query_id=first_stage.query_id, entries=reranked)
