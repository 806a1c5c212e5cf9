"""Loader, analyzer and pair-resolution behavior of the corpus layer."""

import json
import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clir.corpus import (
    CHARACTER_BIGRAM,
    AnalyzerConfig,
    Corpus,
    Document,
    Query,
    TermVector,
    analyze,
    indexable_text,
    load_corpus,
    load_queries,
    pair_lookup,
    tokenize,
)
from clir.errors import ConfigError, IntegrityError, NoPairError, NotFoundError, ParseError


def test_analyze_counts_and_stopwords():
    cfg = AnalyzerConfig(lang="en", stopword_list={"in"})
    vec = analyze("Digital Libraries in distributed systems", cfg)
    assert vec.counts == {"digital": 1, "libraries": 1, "distributed": 1, "systems": 1}


def test_analyze_empty_input():
    vec = analyze("", AnalyzerConfig(lang="en"))
    assert vec.counts == {}


def test_analyze_counts_repeated_terms():
    vec = analyze("data data data base", AnalyzerConfig(lang="en"))
    assert vec.counts == {"data": 3, "base": 1}


def test_character_bigram_window():
    cfg = AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM)
    assert analyze("abcd", cfg).counts == {"ab": 1, "bc": 1, "cd": 1}


def test_character_bigram_single_char_run():
    cfg = AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM)
    assert analyze("a", cfg).counts == {"a": 1}
    assert analyze("ab c", cfg).counts == {"ab": 1, "c": 1}


def test_tokenize_strips_edge_punctuation_and_lowercases():
    cfg = AnalyzerConfig(lang="en")
    assert tokenize("Systems, networks.", cfg) == ["systems", "networks"]


def test_tokenize_preserves_order():
    cfg = AnalyzerConfig(lang="en")
    assert tokenize("gamma alpha beta alpha", cfg) == ["gamma", "alpha", "beta", "alpha"]


def test_min_token_len_filters_short_words():
    cfg = AnalyzerConfig(lang="en", min_token_len=3)
    assert tokenize("a an the cat ran", cfg) == ["the", "cat", "ran"]


def test_analyzer_config_rejects_bad_settings():
    with pytest.raises(ConfigError):
        AnalyzerConfig(lang="en", tokenizer_kind="sentencepiece")
    with pytest.raises(ConfigError):
        AnalyzerConfig(lang="en", min_token_len=0)
    with pytest.raises(ConfigError):
        AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM, min_token_len=2)
    with pytest.raises(ConfigError, match="stopword"):
        AnalyzerConfig(lang="en", stopword_list=[1, "a"])
    for length in (True, 2.0, "2"):
        with pytest.raises(ConfigError, match="min_token_len"):
            AnalyzerConfig(lang="en", min_token_len=length)


def _tokenize_loop(text, cfg):
    # whitespace-word tokenization written out one token at a time
    text = text.lower()
    tokens = []
    for raw in text.split():
        tok = raw.strip(string.punctuation)
        if len(tok) < cfg.min_token_len:
            continue
        if tok in cfg.stopword_list:
            continue
        tokens.append(tok)
    return tokens


_WORDS = ["Data", "data,", "the", "The.", "xray", "x", "s", "ss", "a", "an", "...", "!?",
          "(cats)", "dogs", "'quoted'", "-", "net-work", "Über"]


@settings(max_examples=200, deadline=None)
@given(words=st.lists(st.sampled_from(_WORDS), max_size=12),
       gaps=st.lists(st.sampled_from([" ", "  ", "\t", "\n "]), min_size=12, max_size=12),
       stopwords=st.sets(st.sampled_from(["the", "data", "s", "a", "The", "x"])),
       min_token_len=st.integers(1, 3))
def test_tokenize_equals_the_per_token_loop(words, gaps, stopwords, min_token_len):
    text = "".join(g + w for g, w in zip(gaps, words)) + gaps[-1]
    cfg = AnalyzerConfig(lang="en", stopword_list=stopwords, min_token_len=min_token_len)
    assert tokenize(text, cfg) == _tokenize_loop(text, cfg)


def test_analyze_deterministic_and_bounded():
    rng = random.Random(7)
    alphabet = ["data", "Index", "query", "a", "the", "ranking."]
    cfg = AnalyzerConfig(lang="en", stopword_list={"the"})
    for _ in range(50):
        text = " ".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 12)))
        first = analyze(text, cfg)
        second = analyze(text, cfg)
        assert first == second
        assert sum(first.counts.values()) <= len(text.split())
        assert all(f >= 1 for f in first.counts.values())


def test_bigram_terms_have_length_two_or_one():
    rng = random.Random(9)
    cfg = AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM)
    for _ in range(30):
        runs = ["".join(rng.choice("xyzw") for _ in range(rng.randrange(1, 6)))
                for _ in range(rng.randrange(1, 4))]
        for term in analyze(" ".join(runs), cfg).counts:
            assert len(term) in (1, 2)


def test_word_terms_contain_no_whitespace():
    cfg = AnalyzerConfig(lang="en")
    for term in analyze("alpha beta\tgamma\ndelta", cfg).counts:
        assert not any(c.isspace() for c in term)


def test_term_vector_from_counts_drops_nonpositive():
    vec = TermVector.from_counts({"a": 2, "b": 0, "c": -1})
    assert vec.counts == {"a": 2}
    assert TermVector.__slots__ == ("counts",)


def test_indexable_text_joins_nonempty_fields():
    doc = Document(doc_id="d", lang="en", title="alpha", keywords=["beta", "gamma"],
                   abstract="delta")
    assert indexable_text(doc) == "alpha beta gamma delta"
    bare = Document(doc_id="d2", lang="en", abstract="delta")
    assert indexable_text(bare) == "delta"


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _record(doc_id, lang="en", **extra):
    rec = {"id": doc_id, "lang": lang, "title": "t", "keywords": [], "abstract": "a"}
    rec.update(extra)
    return rec


def test_load_corpus_basic(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("d1"), _record("d2"), _record("d3")])
    corpus = load_corpus(path)
    assert len(corpus) == 3
    assert corpus.get("d2").title == "t"
    assert [d.doc_id for d in corpus] == ["d1", "d2", "d3"]


def test_load_corpus_holds_one_string_per_distinct_id_language_and_keyword(tmp_path):
    path = tmp_path / "c.jsonl"
    # e1's pair comes after it, j1's before it; "grid" repeats within a document
    _write_jsonl(path, [
        _record("e1", keywords=["solar power", "grid"], pair_id="j1"),
        _record("j1", lang="ja", keywords=["grid", "taiyou"], pair_id="e1"),
        _record("e2", keywords=["grid", "solar power", "grid"]),
    ])
    corpus = load_corpus(path)
    strings = [s for d in corpus for s in (d.doc_id, d.lang, *d.keywords, d.pair_id) if s]
    assert len({id(s) for s in strings}) == len(set(strings)) < len(strings)
    assert corpus.get("e1").pair_id is corpus.get("j1").doc_id
    assert corpus.get("j1").pair_id is corpus.get("e1").doc_id
    assert corpus.get("e2").pair_id is None


def test_documents_and_queries_keep_no_per_record_dict():
    for record in (Document(doc_id="d", lang="en"), Query("q", "en", "solar power")):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.note = "extra"


def test_load_corpus_duplicate_id(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("d1"), _record("d2"), _record("d1")])
    with pytest.raises(IntegrityError) as info:
        load_corpus(path)
    assert str(info.value) == f"duplicate doc_id 'd1' at {path}:3"


def test_corpus_refuses_an_empty_or_repeated_id():
    with pytest.raises(IntegrityError, match="empty id"):
        Corpus([Document(doc_id="", lang="en")])
    with pytest.raises(IntegrityError, match="duplicate doc_id 'd1'"):
        Corpus([Document(doc_id="d1", lang="en"), Document(doc_id="d1", lang="fr")])


def test_load_corpus_refuses_an_id_no_run_file_can_hold(tmp_path):
    path = tmp_path / "c.jsonl"
    for doc_id in ("d 2", "d2\n", " d2"):
        _write_jsonl(path, [_record("d1"), _record(doc_id)])
        with pytest.raises(IntegrityError) as info:
            load_corpus(path)
        assert str(info.value) == (f"document with empty id or whitespace in its id: "
                                   f"{doc_id!r} at {path}:2")


def test_shared_texts_are_those_more_than_one_field_holds():
    corpus = Corpus([
        Document("d1", "ja", title="common", keywords=["k", "k"], abstract="only d1"),
        Document("d2", "ja", title="t2", keywords=["common", "boiler"], abstract="boiler"),
        Document("d3", "en", title="t3", keywords=[], abstract="t2"),
    ])
    assert corpus.shared_texts == {"common", "k", "boiler", "t2"}
    assert corpus.shared_texts is corpus.shared_texts  # computed once


def test_load_corpus_undeclared_language(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("d1", lang="fr")])
    # the loader accepts any language; a declared set is enforced
    corpus = load_corpus(path)
    with pytest.raises(IntegrityError, match="fr"):
        Corpus(corpus, ["en"])


def test_load_corpus_dangling_pair_reported_not_fatal(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_jsonl(path, [_record("e1", pair_id="x9"), _record("e2")])
    corpus = load_corpus(path)
    assert len(corpus) == 2
    assert corpus.dangling_pairs() == [("e1", "x9")]


def test_load_corpus_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "c.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(_record("d1")) + "\n")
        fh.write("{not json\n")
    with pytest.raises(ParseError) as exc_info:
        load_corpus(path)
    assert exc_info.value.line_no == 2
    assert ":2:" in str(exc_info.value)


def test_load_corpus_missing_field(tmp_path):
    path = tmp_path / "c.jsonl"
    rec = _record("d1")
    del rec["abstract"]
    _write_jsonl(path, [rec])
    with pytest.raises(ParseError, match="abstract"):
        load_corpus(path)


def test_load_corpus_rejects_a_bad_keyword_or_pair_id_naming_its_line(tmp_path):
    path = tmp_path / "c.jsonl"
    for field, value in [("keywords", ["ok", 3]), ("keywords", "a b"), ("pair_id", ""),
                         ("pair_id", 7)]:
        _write_jsonl(path, [_record("d1"), _record("d2", **{field: value})])
        with pytest.raises(ParseError, match=field) as exc_info:
            load_corpus(path)
        assert exc_info.value.line_no == 2
        assert f"{path}:2:" in str(exc_info.value)


def test_filter_lang_subsets():
    corpus = Corpus(
        [Document(doc_id="e", lang="en"), Document(doc_id="j", lang="ja")], ["en", "ja"]
    )
    english = corpus.filter_lang("en")
    assert [d.doc_id for d in english] == ["e"]
    with pytest.raises(NotFoundError):
        english.get("j")


def test_pair_lookup_follows_link():
    corpus = Corpus(
        [
            Document(doc_id="e1", lang="en", pair_id="j1"),
            Document(doc_id="j1", lang="ja", abstract="honyaku", pair_id="e1"),
        ],
        ["en", "ja"],
    )
    assert pair_lookup(corpus, "e1").doc_id == "j1"
    # well-formed links are an involution
    assert pair_lookup(corpus, pair_lookup(corpus, "e1").doc_id).doc_id == "e1"


def test_pair_lookup_errors():
    corpus = Corpus(
        [
            Document(doc_id="e1", lang="en"),
            Document(doc_id="e2", lang="en", pair_id="gone"),
            Document(doc_id="e3", lang="en", pair_id="e1"),
        ],
        ["en"],
    )
    with pytest.raises(NoPairError):
        pair_lookup(corpus, "e1")
    with pytest.raises(NoPairError):
        pair_lookup(corpus, "e2")
    with pytest.raises(NoPairError):  # pair in the same language is no pair
        pair_lookup(corpus, "e3")
    with pytest.raises(NotFoundError):
        pair_lookup(corpus, "zzz")


def test_load_queries(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(path, [{"id": "q1", "lang": "en", "description": "alpha beta"}])
    queries = load_queries(path)
    assert len(queries) == 1
    assert queries[0].query_id == "q1"
    assert queries[0].description == "alpha beta"


def test_load_queries_rejects_empty_description(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(path, [{"id": "q1", "lang": "en", "description": ""}])
    with pytest.raises(ParseError, match="description"):
        load_queries(path)


def test_load_queries_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "q.jsonl"
    _write_jsonl(path, [
        {"id": "q1", "lang": "en", "description": "x"},
        {"id": "q1", "lang": "en", "description": "y"},
    ])
    with pytest.raises(IntegrityError, match="q1"):
        load_queries(path)
