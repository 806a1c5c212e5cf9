"""Second-stage scoring: dampened tf, retrieved-set idf, inner-product
similarity, geometric-mean combination, and the full re-ranking pass."""

import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clir.corpus import AnalyzerConfig, Document, Query, TermVector, analyze
from clir.index import RankedList, RerankedEntry, ScoredDoc
from clir.rerank import (
    CombineParams,
    RerankStats,
    TranslatedDocs,
    combine_scores,
    document_vector,
    rerank,
    rerank_idf,
    rerank_tf,
    score_inner_product,
)

CFG = AnalyzerConfig(lang="en")

LN7_PLUS_1 = 2.9459101490553135
LN10 = 2.302585092994046
LN10_SQ = 5.301898110478399


# ------------------------------------------------------------- term weights


def test_tf_at_one_is_exactly_one():
    assert rerank_tf(1) == 1.0


def test_tf_at_seven():
    assert rerank_tf(7) == pytest.approx(LN7_PLUS_1, abs=1e-12)


def test_tf_of_absent_term_is_zero():
    assert rerank_tf(0) == 0.0
    assert rerank_tf(-3) == 0.0


def test_idf_ten_percent_support():
    stats = RerankStats(num_docs=100, df={"t": 10})
    assert rerank_idf(stats, "t") == pytest.approx(LN10, abs=1e-12)


def test_idf_full_support_is_exactly_zero():
    stats = RerankStats(num_docs=40, df={"t": 40})
    assert rerank_idf(stats, "t") == 0.0


def test_idf_unsupported_term_rejected():
    stats = RerankStats(num_docs=5, df={"t": 2})
    with pytest.raises(ValueError):
        rerank_idf(stats, "missing")


def test_inner_product_single_shared_term():
    q = TermVector.from_counts({"t": 1})
    d = TermVector.from_counts({"t": 1})
    stats = RerankStats(num_docs=10, df={"t": 1})
    assert score_inner_product(q, d, stats) == pytest.approx(LN10_SQ, abs=1e-12)


def test_inner_product_ignores_disjoint_and_unsupported_terms():
    q = TermVector.from_counts({"a": 2, "ghost": 1})
    d = TermVector.from_counts({"b": 3, "ghost": 1})
    stats = RerankStats(num_docs=10, df={"a": 1, "b": 1})
    assert score_inner_product(q, d, stats) == 0.0


# -------------------------------------------------------------- combination


def test_combine_unit_exponents_multiply():
    assert combine_scores(4.0, 9.0, CombineParams()) == 36.0


def test_combine_zero_second_stage_uses_floor():
    assert combine_scores(0.0, 5.0, CombineParams()) == pytest.approx(0.0005, abs=1e-12)
    assert combine_scores(5.0, 0.0, CombineParams()) == pytest.approx(0.0005, abs=1e-12)
    assert combine_scores(0.0, 0.0, CombineParams()) == pytest.approx(1e-8, abs=1e-20)


def test_combine_beta_zero_reduces_to_first_stage():
    rng = random.Random(7)
    p = CombineParams(alpha=1.0, beta=0.0)
    for _ in range(100):
        esim = rng.uniform(0.0, 2.0)
        jsim = rng.uniform(0.0, 50.0)
        want = esim if esim > 0.0 else p.epsilon
        assert combine_scores(esim, jsim, p) == pytest.approx(want, rel=1e-12)


def test_combine_fractional_exponents():
    p = CombineParams(alpha=0.5, beta=2.0)
    assert combine_scores(4.0, 9.0, p) == pytest.approx(162.0, rel=1e-12)


def test_combine_result_always_positive():
    rng = random.Random(8)
    for _ in range(200):
        p = CombineParams(alpha=rng.uniform(0, 3), beta=rng.uniform(0, 3))
        assert combine_scores(rng.uniform(0, 2), rng.uniform(0, 9), p) > 0.0


def test_combine_saturates_instead_of_overflowing():
    big = sys.float_info.max
    assert combine_scores(0.5, 30.0, CombineParams(beta=1000.0)) == big  # power overflows
    assert combine_scores(0.0, 0.0, CombineParams(beta=2.0, epsilon=1e300)) == big
    assert combine_scores(1e200, 1e200, CombineParams()) == big  # product overflows


def test_combine_monotone_in_each_argument():
    rng = random.Random(9)
    p = CombineParams(alpha=1.5, beta=0.5)
    for _ in range(100):
        lo, hi = sorted((rng.uniform(0.01, 5), rng.uniform(0.01, 5)))
        other = rng.uniform(0.01, 5)
        if lo == hi:
            continue
        assert combine_scores(lo, other, p) < combine_scores(hi, other, p)
        assert combine_scores(other, lo, p) < combine_scores(other, hi, p)


def test_combine_params_validation():
    with pytest.raises(ValueError):
        CombineParams(epsilon=0.0)
    with pytest.raises(ValueError):
        CombineParams(epsilon=-1e-4)
    with pytest.raises(ValueError):
        CombineParams(alpha=-0.1)
    with pytest.raises(ValueError):
        CombineParams(beta=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("alpha", "beta", "epsilon"):
            with pytest.raises(ValueError):
                CombineParams(**{name: bad})
    assert CombineParams().epsilon == 0.0001


def test_result_records_are_slotted():
    # one allocation per record: no per-instance __dict__, no extra attributes
    records = [ScoredDoc("d", 0.5), RankedList("q", []), RerankedEntry("d", 0.5, 2.0, 1.0),
               RankedList("q", doc_ids=["d"], scores=[1.0], esims=[0.5], jsims=[2.0]),
               TermVector.from_counts({})]
    for record in records:
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "extra"


def test_a_stored_document_keeps_no_count_dict():
    # term-major: a document is only its seconds; its counts live only in
    # the per-term maps
    store = TranslatedDocs()
    store.add("d1", dict(zip("bb aa".split(), (2, 1))), 0.25)
    store.add("d2", dict.fromkeys("aa cc".split(), 1))
    assert not hasattr(store, "__dict__")
    assert TranslatedDocs.__slots__ == ("docs", "postings")
    assert store.docs == {"d1": 0.25, "d2": 0.0}
    assert store.postings == {"bb": {"d1": 2}, "aa": {"d1": 1, "d2": 1}, "cc": {"d2": 1}}
    assert "d2" in store.docs and "d3" not in store.docs


def test_entry_score_property_exposes_combined_value():
    e = RerankedEntry(doc_id="d", esim=0.5, jsim=2.0, sim=1.0)
    assert e.score == 1.0


# --------------------------------------------------------- rerank vs oracle


def _oracle_rerank(entries, texts, query_text, p):
    # definitional re-scoring over plain Counters, kept independent of the
    # engine's code path
    n = len(entries)
    vecs = {d: Counter(texts[d].split()) for d, _ in entries if texts.get(d) is not None}
    df = Counter()
    for v in vecs.values():
        df.update(v.keys())
    q = Counter(query_text.split())
    rows = []
    for d, esim in entries:
        jsim = 0.0
        vec = vecs.get(d)
        if vec is not None:
            for t, fq in q.items():
                fd = vec.get(t, 0)
                if fd == 0 or df.get(t, 0) == 0:
                    continue
                idf = math.log(n / df[t])
                jsim += ((1 + math.log(fq)) * idf) * ((1 + math.log(fd)) * idf)
        e = esim if esim > 0 else p.epsilon
        j = jsim if jsim > 0 else p.epsilon
        rows.append((d, esim, jsim, e**p.alpha * j**p.beta))
    rows.sort(key=lambda r: (-r[3], r[0]))
    return rows


def _random_instance(rng):
    vocab = [f"t{i:02d}" for i in range(rng.randrange(4, 30))]
    num_docs = rng.randrange(1, 21)
    entries = []
    texts = {}
    scores = sorted({rng.uniform(0.05, 1.0) for _ in range(num_docs)}, reverse=True)
    while len(scores) < num_docs:
        scores.append(scores[-1] / 2)
    for i in range(num_docs):
        did = f"d{i:02d}"
        entries.append((did, scores[i]))
        if rng.random() < 0.2:
            texts[did] = None  # translation failed
        else:
            texts[did] = " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 13)))
    query_text = " ".join(rng.choice(vocab) for _ in range(rng.randrange(1, 7)))
    return entries, texts, query_text


def _run_engine(entries, texts, query_text, p):
    first = RankedList(
        query_id="q",
        entries=[ScoredDoc(doc_id=d, score=s) for d, s in entries],
    )
    translated = {
        d: Document(doc_id=d, lang="en", abstract=t)
        for d, t in texts.items()
        if t is not None
    }
    query = Query(query_id="q", lang="en", description=query_text)
    return rerank(first, translated, query, CFG, p)


def test_rerank_matches_definitional_oracle():
    rng = random.Random(20240818)
    for _ in range(50):
        entries, texts, query_text = _random_instance(rng)
        p = CombineParams(
            alpha=rng.choice([0.5, 1.0, 2.0]),
            beta=rng.choice([0.5, 1.0, 2.0]),
        )
        got = _run_engine(entries, texts, query_text, p)
        want = _oracle_rerank(entries, texts, query_text, p)
        assert [e.doc_id for e in got.entries] == [r[0] for r in want]
        for e, (d, esim, jsim, sim) in zip(got.entries, want):
            assert e.esim == pytest.approx(esim, abs=1e-9)
            assert e.jsim == pytest.approx(jsim, abs=1e-9)
            assert e.sim == pytest.approx(sim, abs=1e-9)
            assert e.sim > 0.0


def test_rerank_scaling_first_stage_preserves_order():
    rng = random.Random(31)
    for _ in range(20):
        entries, texts, query_text = _random_instance(rng)
        p = CombineParams()
        base = [e.doc_id for e in _run_engine(entries, texts, query_text, p).entries]
        for c in (0.1, 3.0, 1000.0):
            scaled = [(d, s * c) for d, s in entries]
            got = [e.doc_id for e in _run_engine(scaled, texts, query_text, p).entries]
            assert got == base


def test_rerank_beta_zero_keeps_first_stage_order():
    rng = random.Random(32)
    p = CombineParams(beta=0.0)
    for _ in range(20):
        entries, texts, query_text = _random_instance(rng)
        got = _run_engine(entries, texts, query_text, p)
        assert [e.doc_id for e in got.entries] == [d for d, _ in entries]


def test_rerank_missing_translations_stay_with_zero_second_stage():
    entries = [("da", 0.9), ("db", 0.8), ("dc", 0.7)]
    texts = {"da": "x y", "db": None, "dc": None}
    got = _run_engine(entries, texts, "x", CombineParams())
    assert {e.doc_id for e in got.entries} == {"da", "db", "dc"}
    by_id = {e.doc_id: e for e in got.entries}
    assert by_id["db"].jsim == 0.0
    assert by_id["dc"].jsim == 0.0
    assert by_id["db"].sim == pytest.approx(0.8 * 1e-4, rel=1e-12)


def test_rerank_ties_break_by_doc_id():
    # equal esim and no translations: every sim is identical
    entries = [("dz", 0.5), ("da", 0.5), ("dm", 0.5)]
    got = _run_engine(entries, {}, "x", CombineParams())
    assert [e.doc_id for e in got.entries] == ["da", "dm", "dz"]


def test_rerank_orders_underflowed_scores_by_their_logarithm():
    # with beta = 1000 every combined score underflows to 0.0; the documents
    # still rank by esim * jsim**1000: db (0.9, 0.28) above da (0.8, 0.16),
    # and dc, with no second-stage match, last
    entries = [("da", 0.8), ("db", 0.9), ("dc", 0.5)]
    texts = {"da": "t", "db": "t t", "dc": "u"}
    got = _run_engine(entries, texts, "t", CombineParams(beta=1000.0))
    assert [e.sim for e in got.entries] == [0.0, 0.0, 0.0]
    assert [e.doc_id for e in got.entries] == ["db", "da", "dc"]

    # tied and untied scores mixed: dd and db saturate (dd has the larger
    # jsim), da and de stay distinct and finite, dc and dg underflow to 0.0
    # and rank by esim
    entries = [("da", 0.8), ("db", 0.9), ("dc", 0.5), ("dd", 0.7), ("de", 0.6), ("dg", 0.4)]
    texts = {"da": "t", "db": "t t", "dc": "x", "dd": "u u u u u u u u", "de": "u", "dg": "y"}
    got = _run_engine(entries, texts, "t u", CombineParams(beta=1000.0))
    sims = [e.sim for e in got.entries]
    assert sims[0] == sims[1] == sys.float_info.max
    assert sims[1] > sims[2] > sims[3] > sims[4] == sims[5] == 0.0
    assert [e.doc_id for e in got.entries] == ["dd", "db", "da", "de", "dc", "dg"]


@pytest.mark.parametrize("entries, texts", [
    # 1e100 and 1.2069 ** 3000 are finite, their product is not
    ([("da", 1e100), ("db", 0.5), ("dc", 0.25)], {"da": "t", "db": "u", "dc": "u u"}),
    ([("da", math.inf), ("db", 0.5), ("dc", 0.25)], {"da": "t", "db": "u", "dc": "u u"}),
    # inf times 0.0001 ** 3000, which underflows to 0.0: NaN
    ([("da", math.inf), ("db", 0.5)], {"da": "u", "db": "t"}),
], ids=["finite-powers", "inf", "inf-times-zero"])
def test_rerank_saturates_as_combine_scores_does(entries, texts):
    p = CombineParams(beta=3000.0)
    got = _run_engine(entries, texts, "t", p)
    want = sorted(
        (-combine_scores(esim, jsim, p),
         -(p.alpha * math.log(esim) + p.beta * math.log(jsim if jsim > 0.0 else p.epsilon)),
         doc_id, esim, jsim)
        for doc_id, esim, jsim in zip(got.doc_ids, got.esims, got.jsims))
    assert got.scores[0] == sys.float_info.max
    assert [(e.doc_id, e.esim, e.jsim, e.sim) for e in got.entries] == [
        (doc_id, esim, jsim, -neg_sim) for neg_sim, _, doc_id, esim, jsim in want]
    assert sorted(zip(got.doc_ids, got.esims)) == entries


def test_rerank_empty_input():
    first = RankedList(query_id="q7", entries=[])
    out = rerank(first, {}, Query(query_id="q7", lang="en", description="x"),
                 CFG, CombineParams())
    assert out.query_id == "q7"
    assert out.entries == []


_VOCAB = ["a", "b", "c", "d", "e"]


@st.composite
def _rerank_cases(draw):
    """First-stage entries (esim ties likely), translations that may be
    missing, empty or shorter than the query, a query, and parameters."""
    n = draw(st.integers(1, 12))
    esims = sorted(draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, 3.0]),
                                 min_size=n, max_size=n)),
                   reverse=True)
    entries = [(f"d{i:02d}", esim) for i, esim in enumerate(esims)]
    texts = {
        doc_id: draw(st.none() | st.lists(st.sampled_from(_VOCAB), max_size=6).map(" ".join))
        for doc_id, _ in entries
    }
    query = " ".join(draw(st.lists(st.sampled_from(_VOCAB + ["z"]), min_size=1, max_size=8)))
    p = CombineParams(alpha=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1000.0])),
                      beta=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1000.0])))
    return entries, texts, query, p, draw(st.sampled_from(_FORMS))


# how rerank receives the translations: Documents, or a term-major store
# that also holds documents outside the head, as the store shared by the
# cells of a sweep does
_FORMS = ("documents", "store")
_BEYOND_HEAD = {"x00": "a b c d e", "x01": "a a", "x02": "e"}


def _defined_jsim(q, d, df, num_docs):
    # the weights written out, summed in query order
    total = 0.0
    for t in q:
        if t in d and df.get(t, 0) >= 1:
            idf = math.log(num_docs / df[t])
            total += ((1.0 + math.log(q[t])) * idf) * ((1.0 + math.log(d[t])) * idf)
    return total


@settings(max_examples=150, deadline=None)
@given(case=_rerank_cases())
# d03 is shorter than the query and still sums in query order, which here
# gives a different last bit than its own term order would
@example(case=([("d00", 0.9), ("d01", 0.9), ("d02", 0.5), ("d03", 0.2)],
               {"d00": "", "d01": "b d d", "d02": "c", "d03": "e c b"},
               "z z z d c b e", CombineParams(), "documents"))
# d01 is as long as the query and d02 a term shorter; both sum in query
# order, which gives each a different last bit than its own order would
@example(case=([("d00", 0.9), ("d01", 0.9), ("d02", 0.5), ("d03", 0.2)],
               {"d00": "d", "d01": "a b c d", "d02": "a c a d d", "d03": "b e b"},
               "d b d a c", CombineParams(), "store"))
# 3.0 ** 1000 overflows and saturates at the largest float while the other
# pairs combine to finite scores; d02's zero esim is floored
@example(case=([("d00", 3.0), ("d01", 0.9), ("d02", 0.0)],
               {"d00": "a", "d01": "a b", "d02": "b"}, "a b",
               CombineParams(alpha=1000.0), "documents"))
# every translation of the head failed
@example(case=([("d00", 0.9), ("d01", 0.5)], {"d00": None, "d01": None}, "a b",
               CombineParams(), "store"))
def test_rerank_equals_its_definition_bit_for_bit(case):
    # the definition: df counted over every term of every translated vector,
    # score_inner_product (checked against the weights written out), then the
    # order by combined score, its logarithm and doc_id
    entries, texts, query_text, p, form = case
    docs = {d: Document(doc_id=d, lang="en", abstract=t) for d, t in texts.items() if t is not None}
    vecs = {d: document_vector(doc, CFG) for d, doc in docs.items()}
    df = Counter()
    for vec in vecs.values():
        df.update(vec.counts.keys())
    stats = RerankStats(num_docs=len(entries), df=dict(df))
    query_vec = analyze(query_text, CFG)
    rows = []
    for doc_id, esim in entries:
        jsim = 0.0
        if doc_id in vecs:
            jsim = score_inner_product(query_vec, vecs[doc_id], stats)
            assert jsim == _defined_jsim(query_vec.counts, vecs[doc_id].counts, df,
                                         len(entries))
        sim = combine_scores(esim, jsim, p)
        log = p.alpha * math.log(esim if esim > 0.0 else p.epsilon) + p.beta * math.log(
            jsim if jsim > 0.0 else p.epsilon)
        rows.append((-sim, -log, doc_id, esim, jsim, sim))
    rows.sort()

    first = RankedList("q", [ScoredDoc(d, s) for d, s in entries])
    query = Query(query_id="q", lang="en", description=query_text)
    if form == "store":
        translated = TranslatedDocs()
        for doc_id, text in _BEYOND_HEAD.items():
            translated.add(doc_id, analyze(text, CFG).counts)
        for doc_id, vec in vecs.items():
            translated.add(doc_id, vec.counts)
    else:
        translated = docs
    got = rerank(first, translated, query, CFG, p)
    assert [(e.doc_id, e.esim, e.jsim, e.sim) for e in got.entries] == [r[2:] for r in rows]
    assert {e.doc_id for e in got.entries} == {d for d, _ in entries}
