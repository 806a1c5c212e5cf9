"""Stage-one weighting, inverted-index construction, search, and persistence.

The search tests compare the inverted-index path against an exhaustive
re-scoring of every document written directly from the weighting definition,
with no shared data structures.
"""

import gc
import json
import math
import random
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clir.index
import synth
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


def test_query_weights_take_the_maximum_of_the_query_counts():
    # every count takes part, that of a term outside the collection too
    index = build_index(_corpus_from_texts({"d1": "a b", "d2": "c", "d3": "a"}), CFG)
    terms = TermVector({"a": 3, "c": 1, "zz": 5})
    assert weighted_query(index, terms) == {"a": weight_atc(3, 5, 2, 3),
                                            "c": weight_atc(1, 5, 1, 3)}


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


def test_a_built_index_holds_one_string_per_term(tmp_path):
    built = synth.build_ambiguity_setup().index
    keys = [t for counts in built.documents.values() for t in counts]
    assert len({id(t) for t in keys}) == len(built.df) < len(keys)
    # every key is the very string that df is keyed by
    canonical = {id(t) for t in built.df}
    assert all(id(t) in canonical for t in keys)
    path = tmp_path / "idx.json"
    save_index(built, path)
    loaded = load_index(path)
    # a loaded index's tables are keyed by the very strings that its df is
    canonical = {id(t) for t in loaded.df}
    assert {id(t) for t in loaded.postings} == {id(t) for t in loaded.idf} == canonical


def _reachable(root):
    """Every dict, list, tuple and set reachable from ``root`` through such containers."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if isinstance(obj, (dict, list, tuple, set, frozenset)) and id(obj) not in seen:
            seen[id(obj)] = obj
            stack.extend(gc.get_referents(obj))
    return list(seen.values())


def test_a_loaded_index_holds_no_per_document_counts(tmp_path):
    built = build_index(_corpus_from_texts({"d1": "a a b", "d2": "b c", "d3": ""}), CFG)
    path = tmp_path / "idx.json"
    save_index(built, path)
    loaded = load_index(path)
    search(loaded, _query_vec("a c"), 10)
    counts = [c for c in built.documents.values() if c]
    assert not [d for d in _reachable(vars(loaded)) if isinstance(d, dict) and d in counts]
    assert loaded.documents is None


def test_no_string_or_bytes_a_loaded_index_holds_is_as_long_as_its_file(tmp_path):
    # the text that load_index parsed is not kept
    built = synth.build_ambiguity_setup().index
    path = tmp_path / "idx.json"
    save_index(built, path)
    text = path.read_text(encoding="utf-8")
    loaded = load_index(path)
    search(loaded, _query_vec("a1 b1 c2"), 10)
    seen, stack, longest = set(), [loaded], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        if isinstance(obj, (str, bytes)):
            longest = max(longest, len(obj))
        else:
            stack.extend(gc.get_referents(obj))
    assert 0 < longest < len(text)


def test_searching_a_loaded_index_decodes_nothing(tmp_path, monkeypatch):
    built = build_index(_corpus_from_texts({"d1": "a a b", "d2": "b c", "d3": "c"}), CFG)
    path = tmp_path / "idx.json"
    save_index(built, path)
    loaded = load_index(path)
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *args, **kw: decoded.append(1) or loads(*args, **kw))
    for _ in range(3):
        for text in ("a", "b c", "a a c zz"):
            for depth in (1, 10):
                terms = _query_vec(text)
                assert search(loaded, terms, depth) == search(built, terms, depth)
    assert loaded.num_docs == 3 and decoded == []
    assert loaded.documents is None


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


def test_save_index_leaves_the_file_untouched_on_text_it_cannot_encode(tmp_path, monkeypatch):
    path = tmp_path / "ix.json"
    path.write_bytes(b"an earlier index")
    opened = []
    monkeypatch.setattr(clir.index, "replacing", lambda *args: opened.append(args))
    # a lone surrogate in a doc id, in a term, in a stopword
    for doc_id, term, stopword in (("d\ud800", "alpha", "the"), ("d1", "alpha\ud800", "the"),
                                   ("d1", "alpha", "the\ud800")):
        cfg = AnalyzerConfig(lang="en", stopword_list={stopword})
        index = clir.index.InvertedIndex(cfg, {"d0": {"beta": 1}, doc_id: {term: 2, "beta": 1}})
        with pytest.raises(IntegrityError, match="ix.json: cannot write '\\\\ud800'"):
            save_index(index, path)
    assert path.read_bytes() == b"an earlier index"
    assert opened == []


# text that JSON escapes (quote, backslash, control characters) or that
# takes four UTF-8 bytes, and any other text save for lone surrogates
_SAVED_TEXT = st.one_of(st.sampled_from(['"', "\\", "\x00", "\x1f\n", "\U0001d11e", "a\\\"b"]),
                        st.text(st.characters(exclude_categories=("Cs",)), min_size=1,
                                max_size=4))
_CHUNK = clir.index._SAVE_CHUNK


@settings(max_examples=40, deadline=None)
@given(data=st.data(), num_docs=st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]),
       stopwords=st.frozensets(_SAVED_TEXT, max_size=3), lang=_SAVED_TEXT)
def test_save_index_writes_what_one_json_dumps_writes(tmp_path_factory, data, num_docs,
                                                      stopwords, lang):
    doc_ids = data.draw(st.lists(_SAVED_TEXT, min_size=num_docs, max_size=num_docs, unique=True))
    # empty count dicts included
    counts = st.dictionaries(_SAVED_TEXT, st.integers(1, 10**12), max_size=3)
    documents = {doc_id: data.draw(counts) for doc_id in doc_ids}
    cfg = AnalyzerConfig(lang=lang, stopword_list=stopwords)
    path = tmp_path_factory.mktemp("idx") / "idx.json"
    save_index(clir.index.InvertedIndex(cfg, documents), path)
    analyzer = {"lang": lang, "lowercase": True, "stopword_list": sorted(stopwords),
                "tokenizer_kind": cfg.tokenizer_kind, "min_token_len": cfg.min_token_len}
    payload = {"format": "clir-index-v2", "analyzer": analyzer, "documents": documents}
    assert path.read_bytes() == json.dumps(payload, ensure_ascii=False).encode("utf-8")


def test_saving_an_index_holds_a_small_part_of_its_file_at_once(tmp_path):
    rng = random.Random(7)
    words = [f"w{k:04d}" for k in range(3000)]
    documents = {f"doc{d:05d}": dict.fromkeys(rng.sample(words, 40), 3) for d in range(2000)}
    index = clir.index.InvertedIndex(AnalyzerConfig(lang="en"), documents)
    path = tmp_path / "idx.json"
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        save_index(index, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert 900_000 < size < 1_200_000
    # the file encoded whole, as a string and then as bytes, peaks at several times its size
    assert peak - held < size / 4


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


def test_load_index_rejects_invalid_analyzer_settings(tmp_path):
    # each value has the right JSON type, but no analyzer takes it
    path, payload = _saved_payload(tmp_path)
    for bad in ({"min_token_len": 0}, {"tokenizer_kind": "sentencepiece"},
                {"tokenizer_kind": CHARACTER_BIGRAM, "min_token_len": 2},
                {"stopword_list": [["a"]]},
                # both once loaded silently: a number among the stopwords made
                # save_index fail to sort them, and true passed as a length of 1
                {"stopword_list": [1, "a"]}, {"min_token_len": True}):
        broken = {**payload, "analyzer": {**payload["analyzer"], **bad}}
        path.write_text(json.dumps(broken), encoding="utf-8")
        with pytest.raises(IntegrityError, match="bad analyzer settings") as exc_info:
            load_index(path)
        assert str(path) in str(exc_info.value)


def test_load_index_refuses_an_analyzer_that_does_not_lowercase(tmp_path):
    # the analyzer always lowercases; the saved key says so and nothing else
    path, payload = _saved_payload(tmp_path)
    assert payload["analyzer"]["lowercase"] is True
    payload["analyzer"]["lowercase"] = False
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(IntegrityError, match="'lowercase'.*rebuild it with `clir index`") as exc_info:
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


def test_load_index_refuses_a_doc_id_no_run_file_can_hold(tmp_path):
    path, payload = _saved_payload(tmp_path)
    for doc_id in ("d 2", "d2\t", ""):
        payload["documents"] = {"d1": {"a": 1}, doc_id: {"b": 1}}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(IntegrityError) as exc_info:
            load_index(path)
        assert str(exc_info.value) == (f"{path}: doc id must be non-empty and hold no "
                                       f"whitespace, got {doc_id!r}")


_WORDS = st.text(alphabet="abcde", min_size=1, max_size=3)
_WORD_TEXT = st.lists(_WORDS, max_size=8).map(" ".join)
_BIGRAM_TEXT = st.text(alphabet="あいうえお ", max_size=10)


@st.composite
def _corpora(draw, min_docs=1, max_docs=12):
    """A small corpus (empty documents allowed, doc_ids in no particular
    order), its analyzer, and a few queries in the same alphabet."""
    kind = draw(st.sampled_from([WHITESPACE_WORD, CHARACTER_BIGRAM]))
    texts = _WORD_TEXT if kind == WHITESPACE_WORD else _BIGRAM_TEXT
    docs = draw(st.dictionaries(st.text(alphabet="dxz019", min_size=1, max_size=3), texts,
                                min_size=min_docs, max_size=max_docs))
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
    # a loaded index keeps no counts to save, and a file where it would go keeps its bytes
    again = first.with_name("again.json")
    again.write_bytes(b"kept")
    with pytest.raises(ConfigError, match="keeps no term counts.*`clir index`"):
        save_index(loaded, again)
    assert again.read_bytes() == b"kept"


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

    # building and saving, all `clir index` does, derives nothing and keeps
    # no product array and no dictionary choice
    saved = build_index(corpus, CFG)
    save_index(saved, path)
    assert calls == [] and saved.products == {} and saved.choices == {}
    # loading derives once, before it returns, and keeps no product array
    # and no choice; searching derives no more
    loaded = load_index(path)
    assert len(calls) == 1 and loaded.products == {} and loaded.choices == {}
    for depth in (1, 10):
        search(loaded, query, depth)
    assert len(calls) == 1
    # a built index derives at its first search, once
    built = build_index(corpus, CFG)
    assert len(calls) == 1
    assert search(built, query, 10) == search(loaded, query, 10)
    search(built, query, 1)
    assert len(calls) == 2


def _atc_query_weights(index, terms):
    """A query's weights written out from the definition: one ``weight_atc``
    call per term the collection holds, a zero weight left out."""
    counts = terms.counts
    max_tf = max(counts.values(), default=0)
    weights = {}
    for term, tf in counts.items():
        if term in index.df:
            w = weight_atc(tf, max_tf, index.df[term], index.num_docs)
            if w > 0.0:
                weights[term] = w
    return weights


@settings(max_examples=80, deadline=None)
@given(case=_corpora(), absent_tf=st.integers(0, 4))
# a is in every document, so it weighs 0 and is left out; zz is in none,
# yet its tf 3 is the query's maximum
@example(case=(AnalyzerConfig(lang="xx"), {"x": "a b", "d": "a"}, ["a a b"]), absent_tf=3)
def test_query_weights_are_the_definitions_bit_for_bit(case, absent_tf):
    cfg, docs, queries = case
    index = build_index(_corpus_from_texts(docs, lang="xx"), cfg)
    for text in queries:
        counts = analyze(text, cfg).counts
        terms = TermVector({**counts, "zz": absent_tf} if absent_tf else counts)
        got = weighted_query(index, terms)
        want = _atc_query_weights(index, terms)
        assert list(got) == list(want)
        assert [w.hex() for w in got.values()] == [w.hex() for w in want.values()]


def _exhaustive_ranking(index, terms):
    """Every document with a positive cosine, each scored on its own from its
    term counts in the engine's summation order, sorted by (-score, doc_id)."""
    qw = _atc_query_weights(index, terms)
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
    _check_prefix(case, depths)


def _check_prefix(case, depths):
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


def _spread(texts, num_docs):
    """``num_docs`` documents d00, d01, … whose text cycles through ``texts``,
    so that text i is at every ordinal i modulo len(texts)."""
    return {f"d{i:02d}": texts[i % len(texts)] for i in range(num_docs)}


@settings(max_examples=40, deadline=None)
@given(case=_corpora(min_docs=40, max_docs=150),
       depths=st.lists(st.integers(1, 15), min_size=2, max_size=2))
# every even document ties with the sampled ones at the floor; the depth-3
# ranking keeps the lowest ordinals among the 24 tied candidates
@example(case=(AnalyzerConfig(lang="xx"), _spread(["a b", "c"], 48), ["a"]), depths=[3, 7])
# d00, d08, … score just above 1 and d01, d09, … exactly 1: all clamp to 1.0
# and rank by ordinal, so the floor, read from the sample above 1, must be
# capped at 1.0 for d01 to be a candidate
@example(case=(AnalyzerConfig(lang="xx"),
               _spread(["c h e b", "c b e h", "a c", "a f", "h a", "a h b g", "a", "h g e"], 40),
               ["c h e b"]), depths=[2, 5])
# only the sampled documents match, each fewer query terms than the one
# before, so 8 scores reach the floor (the eighth-highest sampled) against
# depths of 9 and 12: all are sorted
@example(case=(AnalyzerConfig(lang="xx"),
               {f"d{i:03d}": " ".join("abcdefghijklm"[:13 - i // 8]) if i % 8 == 0 else "z"
                for i in range(104)},
               ["a b c d e f g h i j k l m"]), depths=[9, 12])
def test_search_over_more_documents_is_a_prefix_of_the_exhaustive_ranking(case, depths):
    # past 32 documents at depths below 8, and past 56 at 8 to 15, search
    # sorts only the candidates above its sampled floor
    _check_prefix(case, depths)


def _first(scores, ordinals, top_n):
    """The first ``top_n`` ordinals as ``search`` ranks them: a stable sort
    by score, with the scores of 1.0 or more ranked among themselves by
    ordinal."""
    ranked = sorted(ordinals, key=scores.__getitem__, reverse=True)
    clamped = sum(scores[o] >= 1.0 for o in ranked)
    ranked[:clamped] = sorted(ranked[:clamped])
    return ranked[:top_n]


_FLOOR_EDGE = [0.0, 0.25, 0.5, 1.0, 1.0000000000000002]
_TIES = [0.5, 0.0] * 32
_ABOVE_ONE = [1.0000000000000002, 1.0, 0.3, 0.3] * 16
# the sampled scores are the only positive ones and fall one by one, so
# exactly 8 scores reach the floor (the eighth-highest sampled) at depths 1-15
_SHORTFALL = [0.0 if i % 8 else 1.0 - i / 1000 for i in range(104)]
# 400 distinct scores, i / 400 in a shuffled order, ranked to depth 200
_HALF_DEPTH = [(i * 7919 % 400) / 400 for i in range(400)]


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from(_FLOOR_EDGE) | st.floats(0.0, 1.5), max_size=300),
       top_n=st.integers(1, 40))
# ties at the floor: every even score equals the sampled ones
@example(scores=_TIES, top_n=8)
# the sample reads above 1.0, and the scores at 1.0 must stay candidates
@example(scores=_ABOVE_ONE, top_n=2)
# 8 scores reach the floor, fewer than top_n: every ordinal is a candidate
@example(scores=_SHORTFALL, top_n=9)
# a depth of half the scores still reaches the floor
@example(scores=_HALF_DEPTH, top_n=200)
# at depth 1 the floor is at sample index 4, and 32 scores sample only 4
@example(scores=[0.5] * 32, top_n=1)
def test_candidates_hold_the_first_top_n(scores, top_n):
    candidates = clir.index._candidates(scores, top_n)
    everything = range(len(scores))
    assert _first(scores, candidates, top_n) == _first(scores, everything, top_n)
    if candidates != everything:
        assert list(candidates) == sorted(candidates)
        assert len(candidates) >= top_n and min(map(scores.__getitem__, candidates)) > 0.0


def test_the_floor_examples_sit_on_their_edges():
    # each @example of test_candidates_hold_the_first_top_n reaches the edge
    # its comment names, so a change of the floor's rank cannot move it off
    assert clir.index._candidates(_TIES, 8) == list(range(0, 64, 2))
    assert clir.index._candidates(_ABOVE_ONE, 2) == [i for i in range(64) if i % 4 < 2]
    assert len(clir.index._candidates(_SHORTFALL, 8)) == 8
    assert clir.index._candidates(_SHORTFALL, 9) == range(104)
    assert 200 <= len(clir.index._candidates(_HALF_DEPTH, 200)) < 400
    assert clir.index._candidates([0.5] * 32, 1) == range(32)
    assert clir.index._candidates([0.5] * 33, 1) == list(range(33))


# the most candidates a depth may sort on average over 2,000 scores: about
# 8 * (k + 1) reach the floor at sample index k
_MEAN_CANDIDATES_BELOW = {50: 150, 200: 400, 1000: 1400}


def test_the_floor_is_placed_deep_enough_never_to_fall_short():
    rng = random.Random(25)
    r = rng.random
    vectors = ([[r() for _ in range(2000)] for _ in range(100)]
               + [[r() ** 4 * r() for _ in range(2000)] for _ in range(100)])
    for top_n, bound in _MEAN_CANDIDATES_BELOW.items():
        sizes = []
        for scores in vectors:
            candidates = clir.index._candidates(scores, top_n)
            assert candidates != range(2000), top_n
            assert _first(scores, candidates, top_n) == _first(scores, range(2000), top_n)
            sizes.append(len(candidates))
        assert sum(sizes) / len(sizes) < bound, top_n


def test_product_arrays_hold_idf_times_weight_per_posting():
    index = build_index(_corpus_from_texts(
        {"d1": "a a b c", "d2": "a c c", "d3": "b d", "d4": "c", "d5": ""}), CFG)
    for text in ("a b c d", "a a b", "c"):
        search(index, _query_vec(text), 10)
    assert set(index.products) == {"a", "b", "c", "d"}
    for term, products in index.products.items():
        idf = math.log(index.num_docs / index.df[term])
        ordinals, weights = index.postings[term]
        assert products.tobytes() == array("d", [idf * w for w in weights]).tobytes()
        assert len(products) == len(ordinals)


def test_product_arrays_are_built_at_a_terms_first_full_weight_search():
    index = build_index(_corpus_from_texts(
        {"d1": "a a b c", "d2": "a c c", "d3": "b d", "d4": "c"}), CFG)
    assert index.products == {}
    # a weighs its idf factor (tf 2 is the maximum), b less (tf 1)
    terms = _query_vec("a a b")
    qw = weighted_query(index, terms)
    assert qw["a"] == index.idf["a"] and qw["b"] < index.idf["b"]
    cold = search(index, terms, 10)
    assert set(index.products) == {"a"}
    kept = index.products["a"]
    warm = search(index, terms, 10)
    assert warm == cold and index.products["a"] is kept
    assert [(e.doc_id, e.score) for e in cold.entries] == _exhaustive_ranking(index, terms)
    # b is at full weight only once it is the query's most frequent term
    search(index, _query_vec("b"), 10)
    assert set(index.products) == {"a", "b"} and index.products["a"] is kept


@settings(max_examples=60, deadline=None)
@given(case=_corpora())
def test_searches_are_the_same_cold_and_warm(case):
    cfg, docs, queries = case
    index = build_index(_corpus_from_texts(docs, lang="xx"), cfg)
    vectors = [analyze(text, cfg) for text in queries]
    cold = [search(index, terms, 5) for terms in vectors]
    assert [search(index, terms, 5) for terms in vectors] == cold
    # a product array exactly for each term searched at its idf factor
    assert set(index.products) == {term for terms in vectors
                                   for term, w in weighted_query(index, terms).items()
                                   if w == index.idf[term]}
    for terms, ranking in zip(vectors, cold):
        assert [(e.doc_id, e.score) for e in ranking.entries] == \
            _exhaustive_ranking(index, terms)[:5]
