"""Stage-one weighting, inverted-index construction, search, and persistence.

The search tests compare the inverted-index path against an exhaustive
re-scoring of every document written directly from the weighting definition,
with no shared data structures.
"""

import json
import math
import random
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clir.index
from clir.corpus import (
    CHARACTER_BIGRAM,
    WHITESPACE_WORD,
    AnalyzerConfig,
    Corpus,
    Document,
    TermVector,
    analyze,
)
from clir.errors import ConfigError, IntegrityError
from clir.index import (
    build_index,
    load_index,
    save_index,
    search,
    weight_atc,
    weighted_query,
)

CFG = AnalyzerConfig(lang="en")


def _corpus_from_texts(texts: dict[str, str], lang="en") -> Corpus:
    docs = [Document(doc_id=d, lang=lang, abstract=t) for d, t in texts.items()]
    return Corpus(docs, [lang])


def _query_vec(text: str) -> TermVector:
    return analyze(text, CFG)


def test_weight_atc_zero_idf_single_doc():
    assert weight_atc(3, 3, 1, 1) == 0.0


def test_weight_atc_full_tf_factor():
    # tf at the document maximum makes the augmented factor exactly 1
    for df, num_docs in [(1, 8), (3, 9), (5, 100)]:
        assert weight_atc(4, 4, df, num_docs) == pytest.approx(math.log(num_docs / df), abs=1e-12)


def test_weight_atc_frozen_value():
    # 0.625 * ln 8, evaluated independently and frozen
    assert weight_atc(1, 4, 1, 8) == pytest.approx(1.2996509635498974, abs=1e-9)


def test_build_index_counts():
    index = build_index(
        _corpus_from_texts({"d3": "c", "d1": "a a b", "d2": "b c"}), CFG
    )
    assert index.num_docs == 3
    assert index.documents == {"d1": {"a": 2, "b": 1}, "d2": {"b": 1, "c": 1}, "d3": {"c": 1}}
    # ordinals number the documents in ascending doc_id order
    assert index.doc_ids == ["d1", "d2", "d3"]
    ordinals, weights = index.postings["a"]
    assert list(ordinals) == [0]
    assert list(weights) == [weight_atc(2, 2, 1, 3)]
    assert index.df == {"a": 1, "b": 2, "c": 2}
    for term, (ordinals, weights) in index.postings.items():
        assert index.df[term] == len(ordinals) == len(weights)
        assert list(ordinals) == sorted(set(ordinals))
    assert len(index.doc_norms) == 3
    assert all(0.0 < norm < math.inf for norm in index.doc_norms)


def test_build_index_rejects_empty_collection():
    with pytest.raises(ConfigError, match="empty collection"):
        build_index(Corpus([], ["en"]), CFG)


def test_build_index_rejects_language_mismatch():
    corpus = Corpus([Document(doc_id="j1", lang="ja", abstract="x")], ["ja"])
    with pytest.raises(ConfigError):
        build_index(corpus, CFG)


def test_empty_document_counts_toward_num_docs_only():
    index = build_index(_corpus_from_texts({"d2": "", "d1": "a"}), CFG)
    assert index.num_docs == 2
    assert index.documents["d2"] == {}
    assert index.doc_ids == ["d1", "d2"]
    # a norm of 0 is stored as inf, so the document's cosine is 0
    assert index.doc_norms[1] == math.inf
    assert all(1 not in ordinals for ordinals, _ in index.postings.values())


def test_search_single_match_ranks_first():
    index = build_index(_corpus_from_texts({"d1": "rare b", "d2": "b c", "d3": "c b"}), CFG)
    ranked = search(index, _query_vec("rare"), 10)
    assert ranked.entries[0].doc_id == "d1"


def test_search_unknown_terms_empty():
    index = build_index(_corpus_from_texts({"d1": "a b"}), CFG)
    assert search(index, _query_vec("zz qq"), 5).entries == []


def test_search_term_in_every_document_scores_zero():
    # idf ln(N/N) = 0, so a query of only that term matches nothing
    index = build_index(_corpus_from_texts({"d1": "common a", "d2": "common b"}), CFG)
    assert search(index, _query_vec("common"), 5).entries == []


def test_search_ties_break_by_doc_id():
    index = build_index(
        _corpus_from_texts({"db": "a x", "da": "a x", "dc": "y z"}), CFG
    )
    ranked = search(index, _query_vec("a"), 5)
    assert [e.doc_id for e in ranked.entries] == ["da", "db"]


def test_search_truncates_to_top_n():
    texts = {f"d{i}": "a filler" + str(i) for i in range(5)}
    texts["d9"] = "other"
    index = build_index(_corpus_from_texts(texts), CFG)
    assert len(search(index, _query_vec("a"), 3).entries) == 3


def test_search_rejects_nonpositive_depth():
    index = build_index(_corpus_from_texts({"d1": "a"}), CFG)
    with pytest.raises(ValueError):
        search(index, _query_vec("a"), 0)


def _oracle_rank(doc_tokens: dict[str, list[str]], query_tokens: list[str], top_n: int):
    """Exhaustive scoring straight from the definition: augmented TF times
    natural-log IDF on both sides, full cosine, no inverted file."""
    num_docs = len(doc_tokens)
    counts = {d: Counter(ts) for d, ts in doc_tokens.items()}
    df = Counter()
    for c in counts.values():
        for t in c:
            df[t] += 1

    def weigh(c):
        if not c:
            return {}
        m = max(c.values())
        return {t: (0.5 + 0.5 * f / m) * math.log(num_docs / df[t]) for t, f in c.items()}

    qc = Counter(query_tokens)
    if not qc:
        return []
    qm = max(qc.values())
    qw = {
        t: (0.5 + 0.5 * f / qm) * math.log(num_docs / df[t])
        for t, f in qc.items()
        if df.get(t)
    }
    qn = math.sqrt(sum(w * w for w in qw.values()))
    out = []
    for d, c in counts.items():
        dw = weigh(c)
        dn = math.sqrt(sum(w * w for w in dw.values()))
        dot = sum(w * dw.get(t, 0.0) for t, w in qw.items())
        if qn > 0.0 and dn > 0.0 and dot > 0.0:
            out.append((d, dot / (qn * dn)))
    out.sort(key=lambda x: (-x[1], x[0]))
    return out[:top_n]


def _random_instance(rng):
    vocab = [f"t{i:02d}" for i in range(12)]
    num_docs = rng.randrange(1, 51)
    doc_tokens = {
        f"d{i:02d}": [rng.choice(vocab) for _ in range(rng.randrange(0, 16))]
        for i in range(num_docs)
    }
    query = [rng.choice(vocab + ["zz"]) for _ in range(rng.randrange(1, 7))]
    return doc_tokens, query


def test_search_matches_exhaustive_oracle():
    rng = random.Random(20240817)
    for _ in range(50):
        doc_tokens, query = _random_instance(rng)
        top_n = rng.randrange(1, 60)
        index = build_index(
            _corpus_from_texts({d: " ".join(ts) for d, ts in doc_tokens.items()}), CFG
        )
        got = search(index, TermVector.from_tokens(query), top_n)
        want = _oracle_rank(doc_tokens, query, top_n)
        assert [e.doc_id for e in got.entries] == [d for d, _ in want]
        for entry, (_, score) in zip(got.entries, want):
            assert entry.score == pytest.approx(score, abs=1e-9)
            assert 0.0 <= entry.score <= 1.0


def test_search_prefix_truncation_property():
    rng = random.Random(11)
    for _ in range(20):
        doc_tokens, query = _random_instance(rng)
        index = build_index(
            _corpus_from_texts({d: " ".join(ts) for d, ts in doc_tokens.items()}), CFG
        )
        full = search(index, TermVector.from_tokens(query), 60).entries
        for n in (1, 3, 10):
            assert search(index, TermVector.from_tokens(query), n).entries == full[:n]


def test_search_repeat_submission_identical():
    index = build_index(_corpus_from_texts({"d1": "a b", "d2": "b c", "d3": "a c"}), CFG)
    first = search(index, _query_vec("a b c"), 10)
    second = search(index, _query_vec("a b c"), 10)
    assert first == second


def test_index_round_trip_preserves_search(tmp_path):
    texts = {"d1": "alpha beta", "d2": "beta gamma gamma", "d3": "delta", "d4": ""}
    index = build_index(_corpus_from_texts(texts), CFG)
    path = tmp_path / "idx.json"
    save_index(index, path)
    loaded = load_index(path)
    for q in ("alpha", "beta gamma", "delta zz", "nothing"):
        assert search(loaded, _query_vec(q), 10) == search(index, _query_vec(q), 10)
    assert loaded.analyzer == index.analyzer


def test_save_index_rejects_stemmer():
    cfg = AnalyzerConfig(lang="en", stemmer=lambda t: t)
    index = build_index(
        Corpus([Document(doc_id="d1", lang="en", abstract="a")], ["en"]), cfg
    )
    with pytest.raises(ConfigError):
        save_index(index, "/dev/null")


# an index file of the first format: postings and the tables derived from them
_V1_PAYLOAD = {
    "format": "clir-index-v1",
    "lang": "en",
    "num_docs": 2,
    "analyzer": {"lang": "en", "lowercase": True, "min_token_len": 1,
                 "stopword_list": [], "tokenizer_kind": "whitespace-word"},
    "postings": {"a": [["d1", 1]], "b": [["d2", 1]]},
    "df": {"a": 1, "b": 1},
    "max_tf": {"d1": 1, "d2": 1},
    "doc_norms": {"d1": 0.6931471805599453, "d2": 0.6931471805599453},
}


def test_save_index_leaves_the_file_untouched_on_text_it_cannot_encode(tmp_path):
    path = tmp_path / "ix.json"
    path.write_bytes(b"an earlier index")
    index = build_index(_corpus_from_texts({"d1": "alpha \ud800"}), CFG)
    with pytest.raises(IntegrityError, match="ix.json"):
        save_index(index, path)
    assert path.read_bytes() == b"an earlier index"


def test_load_index_rejects_wrong_format(tmp_path):
    path = tmp_path / "idx.json"
    for payload in ({"format": "something-else"}, _V1_PAYLOAD, []):
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IntegrityError, match="rebuild it with `clir index`") as exc_info:
            load_index(path)
        assert str(path) in str(exc_info.value)


def test_load_index_rejects_inconsistent_df(tmp_path):
    # document frequencies are not stored: they follow the term counts, and a
    # count no frequency can follow from is rejected
    index = build_index(_corpus_from_texts({"d1": "a", "d2": "a b"}), CFG)
    path = tmp_path / "idx.json"
    save_index(index, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    del payload["documents"]["d2"]["a"]
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert load_index(path).df == {"a": 1, "b": 1}
    payload["documents"]["d2"]["a"] = 0
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match="'d2'"):
        load_index(path)


def _saved_payload(tmp_path):
    index = build_index(_corpus_from_texts({"d1": "a", "d2": "a b", "d3": "c"}), CFG)
    path = tmp_path / "idx.json"
    save_index(index, path)
    return path, json.loads(path.read_text(encoding="utf-8"))


def test_load_index_rejects_missing_analyzer(tmp_path):
    path, payload = _saved_payload(tmp_path)
    cases = [({k: v for k, v in payload.items() if k != key}, repr(key))
             for key in ("analyzer", "documents")]
    cases.append(({**payload, "documents": {}}, "'documents'"))
    for broken, message in cases:
        path.write_text(json.dumps(broken), encoding="utf-8")
        with pytest.raises(IntegrityError, match=message) as exc_info:
            load_index(path)
        assert str(path) in str(exc_info.value)


def test_load_index_rejects_truncated_doc_norms(tmp_path):
    # every norm is derived from its document's term counts, so damaged
    # counts are rejected rather than yielding a wrong or missing norm
    path, payload = _saved_payload(tmp_path)
    index = load_index(path)
    assert index.doc_ids == ["d1", "d2", "d3"]
    assert all(map(math.isfinite, index.doc_norms))
    for counts in (None, ["a", "b"], "a b", {"a": 0}, {"a": -1}, {"a": 1.5},
                   {"a": True}, {"a": 1, "b": "2"}):
        payload["documents"]["d2"] = counts
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IntegrityError, match="'d2'") as exc_info:
            load_index(path)
        assert str(path) in str(exc_info.value)


_WORDS = st.text(alphabet="abcde", min_size=1, max_size=3)
_WORD_TEXT = st.lists(_WORDS, max_size=8).map(" ".join)
_BIGRAM_TEXT = st.text(alphabet="あいうえお ", max_size=10)


@st.composite
def _corpora(draw):
    """A small corpus (empty documents allowed, doc_ids in no particular
    order), its analyzer, and a few queries in the same alphabet."""
    kind = draw(st.sampled_from([WHITESPACE_WORD, CHARACTER_BIGRAM]))
    texts = _WORD_TEXT if kind == WHITESPACE_WORD else _BIGRAM_TEXT
    docs = draw(st.dictionaries(st.text(alphabet="dxz019", min_size=1, max_size=3), texts,
                                min_size=1, max_size=12))
    queries = draw(st.lists(texts, min_size=1, max_size=3))
    return AnalyzerConfig(lang="xx", tokenizer_kind=kind), docs, queries


def _tables(index):
    """The derived tables, every float as its exact bits."""
    return (index.doc_ids, [norm.hex() for norm in index.doc_norms],
            {t: (ordinals, weights.tobytes()) for t, (ordinals, weights) in index.postings.items()})


def _oracle_tables(documents):
    """The derived tables written out from the definition: one ``weight_atc``
    call per posting, each norm summed in its document's term order."""
    num_docs = len(documents)
    df = Counter(t for counts in documents.values() for t in counts)
    doc_ids = sorted(documents)
    norms = []
    postings = {}
    for ordinal, doc_id in enumerate(doc_ids):
        counts = documents[doc_id]
        max_tf = max(counts.values(), default=0)
        sq = 0.0
        for term, tf in counts.items():
            w = weight_atc(tf, max_tf, df[term], num_docs)
            ordinals, weights = postings.setdefault(term, ([], []))
            ordinals.append(ordinal)
            weights.append(w)
            sq += w * w
        norms.append((math.sqrt(sq) or math.inf).hex())
    return doc_ids, norms, {t: (o, array("d", w).tobytes()) for t, (o, w) in postings.items()}


@settings(max_examples=60, deadline=None)
@given(case=_corpora())
def test_save_and_load_give_identical_searches(tmp_path_factory, case):
    cfg, docs, queries = case
    built = build_index(_corpus_from_texts(docs, lang="xx"), cfg)
    first = tmp_path_factory.mktemp("idx") / "first.json"
    save_index(built, first)
    loaded = load_index(first)

    # the built index derives its tables here, on first use, the loaded one
    # derived them on load
    assert _tables(built) == _tables(loaded) == _oracle_tables(built.documents)
    assert loaded.df == built.df
    for text in queries:
        terms = analyze(text, cfg)
        for depth in (1, 3, 100):
            assert search(loaded, terms, depth) == search(built, terms, depth)
    again = first.with_name("again.json")
    save_index(loaded, again)
    assert again.read_bytes() == first.read_bytes()


def test_tables_are_derived_once_where_they_are_used(tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return derive(*args)

    derive = clir.index._derive
    monkeypatch.setattr(clir.index, "_derive", counted)
    corpus = _corpus_from_texts({"d1": "a a b", "d2": "b c", "d3": ""})
    query = _query_vec("a c")
    path = tmp_path / "idx.json"

    # building and saving, all `clir index` does, derives nothing
    save_index(build_index(corpus, CFG), path)
    assert calls == []
    # loading derives once, before it returns, and searching derives no more
    loaded = load_index(path)
    assert len(calls) == 1
    for depth in (1, 10):
        search(loaded, query, depth)
    assert len(calls) == 1
    # a built index derives at its first search, once
    built = build_index(corpus, CFG)
    assert len(calls) == 1
    assert search(built, query, 10) == search(loaded, query, 10)
    search(built, query, 1)
    assert len(calls) == 2


def _exhaustive_ranking(index, terms):
    """Every document with a positive cosine, each scored on its own from its
    term counts in the engine's summation order, sorted by (-score, doc_id)."""
    qw = weighted_query(index, terms)
    if not qw:
        return []
    sq = 0.0
    for w in qw.values():
        sq += w * w
    qnorm = math.sqrt(sq)
    ranked = []
    for doc_id, counts in index.documents.items():
        max_tf = max(counts.values(), default=0)
        weights = {t: weight_atc(tf, max_tf, index.df[t], index.num_docs)
                   for t, tf in counts.items()}
        norm_sq = 0.0
        for w in weights.values():
            norm_sq += w * w
        dot = 0.0
        for term, w in qw.items():
            if term in weights:
                dot += w * weights[term]
        denom = qnorm * math.sqrt(norm_sq)
        score = min(dot / denom, 1.0) if denom else 0.0
        if score > 0.0:
            ranked.append((-score, doc_id))
    return [(doc_id, -neg) for neg, doc_id in sorted(ranked)]


@settings(max_examples=80, deadline=None)
@given(case=_corpora(), depths=st.lists(st.integers(1, 15), min_size=2, max_size=2))
# x and d tie; x is scored first, through the query's first term
@example(case=(AnalyzerConfig(lang="xx"), {"x": "a", "d": "b"}, ["a b"]), depths=[1, 2])
# z and x have norm 0: each of their terms is in every document
@example(case=(AnalyzerConfig(lang="xx"), {"z": "a", "x": "a a", "d": "b a"}, ["a b", "a"]),
         depths=[1, 3])
# d is empty
@example(case=(AnalyzerConfig(lang="xx"), {"x": "a", "d": "", "z": "b"}, ["a b"]), depths=[1, 3])
# d, x and z tie at the second score, so the cut keeps all three before truncating
@example(case=(AnalyzerConfig(lang="xx"), {"z": "a b", "x": "a b", "d": "a b", "0": "a", "1": "c"},
               ["a"]), depths=[2, 3])
# b's cosine rounds to just above 1 and a's is 1 exactly; both clamp to 1.0
# and tie, so the cut at depth 1 must keep a
@example(case=(AnalyzerConfig(lang="xx"),
               {"a": "b e d c", "b": "c e b d", "f0": "c e a", "f1": "c d d c", "f2": "a e a b"},
               ["c e b d"]), depths=[1, 3])
def test_search_is_a_prefix_of_the_exhaustive_ranking(case, depths):
    # ties are frequent: the alphabet is small and documents may repeat
    cfg, docs, queries = case
    k, k2 = sorted(depths)
    index = build_index(_corpus_from_texts(docs, lang="xx"), cfg)
    for text in queries:
        terms = analyze(text, cfg)
        shallow = search(index, terms, k).entries
        deep = search(index, terms, k2).entries
        assert shallow == deep[:k]
        pairs = [(e.doc_id, e.score) for e in deep]
        assert pairs == _exhaustive_ranking(index, terms)[:k2]
        assert len({doc_id for doc_id, _ in pairs}) == len(pairs)
        assert all(a >= b for (_, a), (_, b) in zip(pairs, pairs[1:]))
