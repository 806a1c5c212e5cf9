"""Two-stage orchestration: query translation dispatch, the retrieve ->
translate-back -> re-rank flow, tail handling, timing, and settings files."""

import logging
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clir.corpus import AnalyzerConfig, Corpus, Document, Query, analyze
from clir.errors import ConfigError, ParseError, TranslationError
from clir.index import build_index, search
from clir.pipeline import (
    TAIL_DROP,
    TAIL_KEEP,
    PipelineConfig,
    read_config,
    run_first_stage,
    run_two_stage,
    translate_query,
)
from clir.rerank import CombineParams
from clir.translate import (
    CHANNEL_HT,
    COMBINED,
    DICT_PHRASE,
    MT_PHRASE,
    MT_SENTENCE,
    BilingualDictionary,
    CommandAdapter,
    IdentityAdapter,
    MTAdapter,
    TableAdapter,
    TranslationMethod,
)

EN = AnalyzerConfig(lang="en")
JA = AnalyzerConfig(lang="ja")

EN_TO_JA = {
    "library": "toshokan",
    "computer": "keisanki",
    "network": "netto",
    "data": "deta",
    "search": "kensaku",
}
JA_TO_EN = {v: k for k, v in EN_TO_JA.items()}


def _bilingual_corpus():
    ja_texts = {
        "j1": "toshokan kensaku deta",
        "j2": "keisanki netto netto",
        "j3": "toshokan toshokan keisanki",
        "j4": "deta netto kensaku",
    }
    docs = []
    for did, text in ja_texts.items():
        eid = "e" + did[1:]
        en_text = " ".join(JA_TO_EN[t] for t in text.split())
        docs.append(Document(doc_id=did, lang="ja", abstract=text, pair_id=eid))
        docs.append(Document(doc_id=eid, lang="en", abstract=en_text, pair_id=did))
    return Corpus(docs, ["en", "ja"])


def _method_mt():
    return TranslationMethod(kind=MT_SENTENCE, adapter=TableAdapter(EN_TO_JA))


def _cfg(n=4, **kwargs):
    kwargs.setdefault("translation_method", _method_mt())
    kwargs.setdefault("doc_adapter", TableAdapter(JA_TO_EN))
    return PipelineConfig(n_intermediate=n, **kwargs)


@pytest.fixture(scope="module")
def ja_index():
    corpus = _bilingual_corpus()
    return build_index(corpus.filter_lang("ja"), JA)


def _query(text, qid="q1"):
    return Query(query_id=qid, lang="en", description=text)


# ------------------------------------------------------------ configuration


def test_pipeline_config_validation():
    method = _method_mt()
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=0, translation_method=method)
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=1, translation_method=method, output_depth=0)
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=1, translation_method=method, doc_channel="fax")
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=1, translation_method=method, tail_policy="fold")
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=50, translation_method=method,
                       output_depth=10, tail_policy=TAIL_KEEP)
    # the smallest depths are accepted
    PipelineConfig(n_intermediate=1, translation_method=method, output_depth=1,
                   tail_policy=TAIL_KEEP)


def test_machine_channel_requires_some_adapter():
    dictionary = BilingualDictionary({"library": ["toshokan"]})
    no_adapter = TranslationMethod(kind=DICT_PHRASE, dictionary=dictionary)
    with pytest.raises(ConfigError):
        PipelineConfig(n_intermediate=5, translation_method=no_adapter)
    # either the method's adapter or an explicit document adapter will do
    PipelineConfig(n_intermediate=5, translation_method=_method_mt())
    PipelineConfig(n_intermediate=5, translation_method=no_adapter,
                   doc_adapter=TableAdapter(JA_TO_EN))
    PipelineConfig(n_intermediate=5, translation_method=no_adapter,
                   doc_channel=CHANNEL_HT)


def test_explicit_document_adapter_wins():
    doc_adapter = TableAdapter(JA_TO_EN)
    cfg = _cfg(doc_adapter=doc_adapter)
    assert cfg.resolve_doc_adapter() is doc_adapter
    cfg = PipelineConfig(n_intermediate=2, translation_method=_method_mt())
    assert cfg.resolve_doc_adapter() is cfg.translation_method.adapter


# ----------------------------------------------------- translation dispatch


def test_translate_query_dispatch(ja_index):
    adapter = TableAdapter(EN_TO_JA)
    dictionary = BilingualDictionary({"library": ["toshokan"]})
    q = _query("library")
    for kind, want in [
        (MT_SENTENCE, {"toshokan": 1}),
        (MT_PHRASE, {"toshokan": 1}),
        (DICT_PHRASE, {"toshokan": 1}),
        (COMBINED, {"toshokan": 2}),
    ]:
        method = TranslationMethod(kind=kind, adapter=adapter, dictionary=dictionary)
        out = translate_query(q, method, ja_index, EN, JA)
        assert out.terms.counts == want, kind


# ---------------------------------------------------------------- stage one


def test_first_stage_equals_plain_search_after_translation(ja_index):
    q = _query("library computer")
    got = run_first_stage(q, ja_index, _cfg(n=10), EN, JA)
    want = search(ja_index, analyze("toshokan keisanki", JA), 10, query_id="q1")
    assert [(e.doc_id, e.score) for e in got.entries] == [
        (e.doc_id, e.score) for e in want.entries
    ]


def test_language_mismatch_rejected(ja_index):
    with pytest.raises(ConfigError):
        run_first_stage(_query("library"), ja_index, _cfg(), EN, EN)
    with pytest.raises(ConfigError):
        run_two_stage(_query("library"), ja_index, _bilingual_corpus(), _cfg(), EN, EN)


# ---------------------------------------------------------------- two stage


def test_two_stage_reorders_but_never_substitutes(ja_index):
    corpus = _bilingual_corpus()
    q = _query("library data search")
    cfg = _cfg(n=4)
    first = run_first_stage(q, ja_index, cfg, EN, JA)
    final, _ = run_two_stage(q, ja_index, corpus, cfg, EN, JA)
    assert {e.doc_id for e in final.entries} == {e.doc_id for e in first.entries}
    assert all(e.sim > 0.0 for e in final.entries)
    scores = [e.score for e in final.entries]
    assert scores == sorted(scores, reverse=True)


def test_two_stage_beta_zero_keeps_first_stage_order(ja_index):
    corpus = _bilingual_corpus()
    q = _query("library data")
    cfg = _cfg(n=4, combine=CombineParams(beta=0.0))
    first = run_first_stage(q, ja_index, cfg, EN, JA)
    final, _ = run_two_stage(q, ja_index, corpus, cfg, EN, JA)
    assert [e.doc_id for e in final.entries] == [e.doc_id for e in first.entries]


def test_two_stage_human_channel_uses_paired_documents(ja_index):
    corpus = _bilingual_corpus()
    dictionary = BilingualDictionary({w: [j] for w, j in EN_TO_JA.items()})
    cfg = PipelineConfig(
        n_intermediate=4,
        translation_method=TranslationMethod(kind=DICT_PHRASE, dictionary=dictionary),
        doc_channel=CHANNEL_HT,
    )
    final, _ = run_two_stage(_query("library search"), ja_index, corpus, cfg, EN, JA)
    assert final.entries
    top = final.entries[0]
    assert top.doc_id == "j1"  # its pair holds both query words
    assert top.jsim > 0.0


def test_two_stage_respects_intermediate_cutoff():
    corpus, index = _wide_fixture()
    cfg = _cfg(n=5)
    final, _ = run_two_stage(_query("library"), index, corpus, cfg, EN, JA)
    assert len(final.entries) == 5


def _wide_fixture(num=30):
    rng = random.Random(5)
    docs = []
    for i in range(num):
        did = f"j{i:02d}"
        text = " ".join(["toshokan"] * (1 + i % 3) + [f"filler{i}"] * rng.randrange(1, 4))
        docs.append(Document(doc_id=did, lang="ja", abstract=text, pair_id=f"e{i:02d}"))
        docs.append(Document(doc_id=f"e{i:02d}", lang="en",
                             abstract=text.replace("toshokan", "library"), pair_id=did))
    # one document without the common term keeps its support below the
    # collection size, so the term still carries weight
    docs.append(Document(doc_id="j98", lang="ja", abstract="zatsuon"))
    corpus = Corpus(docs, ["en", "ja"])
    return corpus, build_index(corpus.filter_lang("ja"), JA)


def test_tail_keep_appends_first_stage_remainder():
    corpus, index = _wide_fixture()
    q = _query("library")
    keep = _cfg(n=5, tail_policy=TAIL_KEEP, output_depth=12)
    first = run_first_stage(q, index, _cfg(n=12), EN, JA)
    final, _ = run_two_stage(q, index, corpus, keep, EN, JA)
    assert len(final.entries) == 12
    assert {e.doc_id for e in final.entries[:5]} == {e.doc_id for e in first.entries[:5]}
    assert [e.doc_id for e in final.entries[5:]] == [e.doc_id for e in first.entries[5:]]
    scores = [e.score for e in final.entries]
    assert scores == sorted(scores, reverse=True)
    assert all(s > 0.0 for s in scores)


def test_tail_keep_with_short_retrieval_is_harmless(ja_index):
    corpus = _bilingual_corpus()
    cfg = _cfg(n=4, tail_policy=TAIL_KEEP, output_depth=50)
    final, _ = run_two_stage(_query("library"), ja_index, corpus, cfg, EN, JA)
    assert len(final.entries) <= 4


class CountingAdapter:
    """Document adapter that records every text it is asked to translate and
    refuses the texts containing ``fail_on``."""

    def __init__(self, fail_on=None):
        self.inner = TableAdapter(JA_TO_EN)
        self.fail_on = fail_on
        self.texts = Counter()

    def translate(self, text, src, tgt):
        self.texts[text] += 1
        if self.fail_on is not None and self.fail_on in text:
            raise TranslationError("refused")
        return self.inner.translate(text, src, tgt)


def _undecodable_command(tmp_path):
    """Translator process whose reply to a text containing 'kinshi' is not UTF-8."""
    script = tmp_path / "mt.py"
    script.write_text(
        "import sys\n"
        f"table = {JA_TO_EN!r}\n"
        "text = sys.stdin.read()\n"
        "if 'kinshi' in text:\n"
        "    sys.stdout.buffer.write(b'\\xff\\xfe')\n"
        "else:\n"
        "    print(' '.join(table.get(w, w) for w in text.split()))\n",
        encoding="utf-8",
    )
    return CommandAdapter([sys.executable, str(script)])


def _corpus_with_bad_document():
    docs = [
        Document(doc_id="j1", lang="ja", abstract="toshokan kensaku"),
        Document(doc_id="j2", lang="ja", abstract="toshokan kinshi"),
        Document(doc_id="j8", lang="ja", abstract="zatsuon"),
    ]
    corpus = Corpus(docs, ["ja"])
    return corpus, build_index(corpus, JA)


def test_failed_document_translation_logged_and_kept(caplog, tmp_path):
    corpus, index = _corpus_with_bad_document()
    for adapter in (CountingAdapter(fail_on="kinshi"), _undecodable_command(tmp_path)):
        caplog.clear()
        cfg = _cfg(n=2, doc_adapter=adapter)
        with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
            final, _ = run_two_stage(_query("library search"), index, corpus, cfg, EN, JA)
        assert "kept untranslated" in caplog.text
        by_id = {e.doc_id: e for e in final.entries}
        assert set(by_id) == {"j1", "j2"}
        assert by_id["j2"].jsim == 0.0
        assert by_id["j1"].jsim > 0.0


def test_timing_record_is_coherent(ja_index):
    corpus = _bilingual_corpus()
    cfg = _cfg(n=4, doc_adapter=TableAdapter(JA_TO_EN, delay_s=0.005))
    final, timing = run_two_stage(_query("library data"), ja_index, corpus, cfg, EN, JA)
    assert final.entries
    assert timing.translation_s >= 0.005
    assert timing.rerank_s >= 0.0
    assert timing.total_s >= timing.translation_s
    assert timing.total_s >= timing.rerank_s


def test_two_stage_runs_are_reproducible(ja_index):
    corpus = _bilingual_corpus()
    q = _query("library data search")
    cfg = _cfg(n=4)
    a, _ = run_two_stage(q, ja_index, corpus, cfg, EN, JA)
    b, _ = run_two_stage(q, ja_index, corpus, cfg, EN, JA)
    assert [(e.doc_id, e.score) for e in a.entries] == [
        (e.doc_id, e.score) for e in b.entries
    ]


# ------------------------------------------------------- document memo


def _fielded_corpus():
    # every document has a title, two keywords and an abstract, each a
    # distinct text, so adapter calls can be told apart by field
    docs = []
    for i, words in enumerate(["toshokan kensaku", "toshokan deta", "keisanki netto",
                               "toshokan keisanki", "deta netto kensaku"]):
        did = f"j{i}"
        docs.append(Document(doc_id=did, lang="ja", title=f"{words} t{i}",
                             keywords=[f"k{i}a", f"k{i}b"], abstract=f"{words} {did}"))
    return Corpus(docs, ["ja"])


def test_each_document_field_is_translated_once_across_queries():
    corpus = _fielded_corpus()
    index = build_index(corpus, JA)
    adapter = CountingAdapter()
    cfg = _cfg(n=3, doc_adapter=adapter)
    seen = set()
    for qid, text in [("q1", "library search"), ("q2", "library data")]:
        final, _ = run_two_stage(_query(text, qid), index, corpus, cfg, EN, JA)
        seen.update(e.doc_id for e in final.entries)
    assert len(seen) < 6  # the two top-3 sets overlap
    want = Counter()
    for did in seen:
        doc = corpus.get(did)
        want.update([doc.title, *doc.keywords, doc.abstract])
    assert adapter.texts == want


def _entries(ranked):
    return [(e.doc_id, e.esim, e.jsim, e.sim) for e in ranked.entries]


_MEMO_QUERIES = ["library search", "library data", "computer network",
                 "data network search", "library computer", "network"]


@settings(max_examples=40, deadline=None)
@given(texts=st.lists(st.sampled_from(_MEMO_QUERIES), min_size=1, max_size=8),
       n=st.integers(min_value=1, max_value=5))
def test_shared_config_runs_equal_fresh_config_runs(texts, n):
    corpus = _fielded_corpus()
    index = build_index(corpus, JA)
    shared = _cfg(n=n)
    for i, text in enumerate(texts):
        q = _query(text, f"q{i}")
        got, _ = run_two_stage(q, index, corpus, shared, EN, JA)
        want, _ = run_two_stage(q, index, corpus, _cfg(n=n), EN, JA)
        assert _entries(got) == _entries(want)


def test_replaced_config_starts_with_an_empty_memo(ja_index):
    cfg = _cfg(n=4)
    run_two_stage(_query("library data"), ja_index, _bilingual_corpus(), cfg, EN, JA)
    assert cfg.doc_memo.buckets
    assert cfg.doc_memo.translators
    deeper = replace(cfg, n_intermediate=2)
    assert not deeper.doc_memo.buckets
    assert not deeper.doc_memo.translators
    assert deeper.doc_memo is not cfg.doc_memo
    assert replace(cfg) == cfg  # the memo is not a setting


def test_failed_document_is_retried_on_the_next_query(caplog):
    corpus, index = _corpus_with_bad_document()
    adapter = CountingAdapter(fail_on="kinshi")
    cfg = _cfg(n=2, doc_adapter=adapter)
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        for qid in ("q1", "q2"):
            run_two_stage(_query("library search", qid), index, corpus, cfg, EN, JA)
    failures = [r.getMessage() for r in caplog.records if "j2 kept untranslated" in r.getMessage()]
    assert len(failures) == 2
    assert adapter.texts["toshokan kinshi"] == 2
    assert adapter.texts["toshokan kensaku"] == 1


class _LoggedAdapter(MTAdapter):
    """Translates word by word with one table per (source, target) pair,
    records each call, and refuses each text in ``refuse`` the first time."""

    def __init__(self, tables, refuse=()):
        self.tables = tables
        self.refuse = set(refuse)
        self.calls = []

    def translate(self, text, src, tgt):
        self.calls.append((src, tgt, text))
        if text in self.refuse:
            self.refuse.discard(text)
            raise TranslationError("busy")
        return " ".join(self.tables[src, tgt].get(w, w) for w in text.split())


def test_failed_query_text_is_not_stored_and_is_retried_by_the_next_query(ja_index):
    adapter = _LoggedAdapter({("en", "ja"): EN_TO_JA}, refuse={"library"})
    cfg = _cfg(translation_method=TranslationMethod(kind=MT_PHRASE, adapter=adapter))
    with pytest.raises(TranslationError):
        run_first_stage(_query("library data", "q1"), ja_index, cfg, EN, JA)
    got = run_first_stage(_query("library search", "q2"), ja_index, cfg, EN, JA)
    run_first_stage(_query("data library", "q3"), ja_index, cfg, EN, JA)
    assert [text for _, _, text in adapter.calls] == ["library", "library", "search", "data"]
    method = TranslationMethod(kind=MT_PHRASE, adapter=TableAdapter(EN_TO_JA))
    want = run_first_stage(_query("library search", "q2"), ja_index,
                           _cfg(translation_method=method), EN, JA)
    assert got.entries == want.entries


def test_one_adapter_for_both_directions_keeps_them_apart():
    # "deta" is both a query word and a document keyword; only read ja -> en
    # does the keyword match the query in the re-rank
    tables = {("en", "ja"): {"deta": "toshokan", "search": "kensaku"},
              ("ja", "en"): {"deta": "search", "toshokan": "library", "kensaku": "network"}}
    corpus = Corpus([Document(doc_id="j1", lang="ja", keywords=["deta"], abstract="toshokan"),
                     Document(doc_id="j2", lang="ja", abstract="toshokan kensaku"),
                     Document(doc_id="j3", lang="ja", abstract="keisanki netto")], ["ja"])
    index = build_index(corpus, JA)

    def runs(query_adapter, doc_adapter):
        method = TranslationMethod(kind=MT_PHRASE, adapter=query_adapter)
        cfg = _cfg(translation_method=method, doc_adapter=doc_adapter)
        return [_entries(run_two_stage(_query("deta search", qid), index, corpus, cfg, EN, JA)[0])
                for qid in ("q1", "q2")]

    both = _LoggedAdapter(tables)
    shared = runs(both, None)
    assert shared == runs(_LoggedAdapter(tables), _LoggedAdapter(tables))
    assert {("en", "ja", "deta"), ("ja", "en", "deta")} <= set(both.calls)
    assert len(both.calls) == len(set(both.calls))
    assert {doc_id: jsim for doc_id, _, jsim, _ in shared[0]}["j1"] > 0.0


def test_document_missing_from_the_corpus_is_kept_and_not_stored(caplog):
    corpus, index = _corpus_with_bad_document()
    short = Corpus([d for d in corpus if d.doc_id != "j2"], ["ja"])
    cfg = _cfg(n=2)
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        final, _ = run_two_stage(_query("library search"), index, short, cfg, EN, JA)
    assert "query q1: document j2 kept untranslated: no document 'j2'" in caplog.text
    by_id = {e.doc_id: e for e in final.entries}
    assert set(by_id) == {"j1", "j2"}
    assert by_id["j2"].jsim == 0.0
    assert all("j2" not in stored for stored in cfg.doc_memo.buckets.values())


def test_analyzers_differing_in_stopwords_do_not_share_vectors(ja_index):
    corpus = _bilingual_corpus()
    stop = AnalyzerConfig(lang="en", stopword_list={"library"})
    q = _query("library data")
    shared = _cfg(n=4)
    for cfg_src in (stop, EN):
        got, _ = run_two_stage(q, ja_index, corpus, shared, cfg_src, JA)
        want, _ = run_two_stage(q, ja_index, corpus, _cfg(n=4), cfg_src, JA)
        assert _entries(got) == _entries(want)
    with_stop, _ = run_two_stage(q, ja_index, corpus, _cfg(n=4), stop, JA)
    plain, _ = run_two_stage(q, ja_index, corpus, _cfg(n=4), EN, JA)
    assert _entries(with_stop) != _entries(plain)


# ------------------------------------------------------------ settings file


def test_read_config_parses_keys_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# run settings\nn = 200\nmethod=mpbt\n\nalpha = 1.5  # exponent\ntag = run#1\n",
        encoding="utf-8",
    )
    assert read_config(path) == {"n": "200", "method": "mpbt", "alpha": "1.5", "tag": "run#1"}


def test_read_config_rejects_malformed_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n 200\n", encoding="utf-8")
    with pytest.raises(ParseError) as exc_info:
        read_config(path)
    assert exc_info.value.line_no == 1

    path.write_text("= 200\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_config(path)
