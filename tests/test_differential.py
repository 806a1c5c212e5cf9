"""Differential test of whole query sequences: the engine, with the state it
keeps across queries and sweep cells, against ``tests/reference.py``, which
keeps none.

That state is the memo's store of translated documents and its table of
translations, which forgets; stage one shared across the cells of a sweep;
the index's kept products and dictionary choices; the re-rank's per-tf
contributions; and stage one's sampled candidate floor. Each example draws
a ``synth.build_random_setup`` collection, whose queries repeat and share
terms and some of whose documents never translate, and a sweep of systems
over methods, document channels, tail policies, score settings, source
analyzers and a grid of depths. Every ranking of one ``sweep_runs`` call,
the run lines of ``clir search2`` and the MAP column of ``clir sweep`` must
equal the reference's, bit for bit.
"""

import itertools
import json
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import synth
from clir import cli
from clir.cli import main
from clir.corpus import CHARACTER_BIGRAM, AnalyzerConfig
from clir.evaluation import SweepSystem, sweep_runs
from clir.index import build_index
from clir.pipeline import TAIL_DROP, TAIL_KEEP, PipelineConfig
from clir.rerank import CombineParams
from clir.translate import CHANNEL_HT, CHANNEL_MT, METHOD_KINDS, TableAdapter, TranslationMethod

# each target analyzer with the `clir index` flags that build it
_TARGETS = [
    (AnalyzerConfig("ja"), []),
    (AnalyzerConfig("ja", stopword_list={"t1", "t2"}), ["--stopwords", "stopwords.txt"]),
    (AnalyzerConfig("ja", min_token_len=3), ["--min-token-len", "3"]),
    (AnalyzerConfig("ja", tokenizer_kind=CHARACTER_BIGRAM), ["--tokenizer", "bigram"]),
]
_DEPTHS = (1, 2, 3, 5, 8, 13, 21, 34, 80)


def _settings(data, ns):
    """The flag-settable half of a config, drawn: method kind, channel, tail
    policy and output depth, score exponents and floor."""
    return SimpleNamespace(
        kind=data.draw(st.sampled_from(METHOD_KINDS)),
        channel=data.draw(st.sampled_from((CHANNEL_MT, CHANNEL_HT))),
        tail=data.draw(st.sampled_from((TAIL_DROP, TAIL_KEEP))),
        depth=ns[-1] + data.draw(st.integers(0, 30)),
        combine=CombineParams(alpha=data.draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))),
                              beta=data.draw(st.sampled_from((0.0, 1.0, 2.0, 30.0))),
                              epsilon=data.draw(st.sampled_from((0.0001, 0.5)))),
        two_stage=data.draw(st.sampled_from((True, True, False))),
    )


def _config(s, n, method, doc_adapter=None):
    return PipelineConfig(n_intermediate=n, translation_method=method, doc_channel=s.channel,
                          combine=s.combine, output_depth=s.depth, tail_policy=s.tail,
                          doc_adapter=doc_adapter)


def _expected(coll, setup, query, cfg, cfg_src, n, two_stage):
    return reference.run(coll, {d.doc_id: d for d in setup.docs}, query, cfg, cfg_src, n,
                         two_stage)


def _library(data, setup, index, coll):
    """One ``sweep_runs`` call over drawn systems against the reference."""
    ns = sorted(data.draw(st.sets(st.sampled_from(_DEPTHS), min_size=1, max_size=3)))
    query_words = Counter(w for q in setup.queries for w in q.description.lower().split())
    # a filtering analyzer's vector differs from another's only in terms its
    # own queries lack; bigrams differ in every term
    analyzers = [AnalyzerConfig("en"), AnalyzerConfig("en", min_token_len=3),
                 AnalyzerConfig("en", stopword_list={w for w, _ in query_words.most_common(2)}),
                 AnalyzerConfig("en", tokenizer_kind=CHARACTER_BIGRAM)]
    table, other = (synth.FailingTable(setup.table, setup.fails) for _ in range(2))
    systems, sources = [], []
    for k in range(data.draw(st.integers(1, 4))):
        s = _settings(data, ns)
        if systems and data.draw(st.booleans()):  # stage one shared, if the analyzer allows
            method = systems[-1].cfg.translation_method
        else:
            method = TranslationMethod(s.kind, table, setup.dictionary)
        doc_adapter = data.draw(st.sampled_from((None, other)))
        systems.append(SweepSystem(str(k), _config(s, ns[0], method, doc_adapter), s.two_stage))
        # one analyzer for the even-numbered queries, one for the odd
        sources.append(data.draw(st.tuples(*[st.sampled_from(analyzers)] * 2)))

    # called once per (system, depth, query), in that order (see sweep_runs)
    calls, per_system = itertools.count(), len(ns) * len(setup.queries)
    parity = {q.query_id: k % 2 for k, q in enumerate(setup.queries)}

    def source_of(k, query):
        return sources[k][parity[query.query_id]] if query.lang == "en" else AnalyzerConfig("ja")

    runs = list(sweep_runs(setup.queries, index, setup.corpus, systems,
                           lambda q: source_of(next(calls) // per_system, q),
                           index.analyzer, ns))
    sent = {adapter: Counter(adapter.calls) for adapter in (table, other)}
    cells = [(k, n, query) for k in range(len(systems)) for n in ns for query in setup.queries]
    assert [(int(s.name), n, q) for s, n, q, *_ in runs] == cells
    for (system, n, query, ranked, _), (k, *_) in zip(runs, cells):
        want = _expected(coll, setup, query, system.cfg, source_of(k, query), n, system.two_stage)
        got = ranked.doc_ids, list(ranked.scores), list(ranked.esims), list(ranked.jsims)
        assert got == want, (k, n, query.query_id)

    # each successful text reached its translator once, but a document's
    # one-off fields once per source analyzer that stored it (README,
    # "Translation cost")
    shared = reference.shared_texts(setup.docs)
    for adapter, texts in sent.items():
        for (src, tgt, text), times in texts.items():
            one_off = (src, tgt) == ("ja", "en") and text not in shared
            assert times <= (len(set().union(*sources)) if one_off else 1), (src, tgt, text)


def _write(root, setup):
    """The collection, queries, judgments, dictionary, mock table and
    stopword list as files in ``root``."""
    docs = [{"id": d.doc_id, "lang": d.lang, "title": d.title, "keywords": d.keywords,
             "abstract": d.abstract, "pair_id": d.pair_id} for d in setup.docs]
    files = {
        "corpus.jsonl": "".join(json.dumps(d) + "\n" for d in docs),
        "queries.jsonl": "".join(json.dumps({"id": q.query_id, "lang": q.lang,
                                             "description": q.description}) + "\n"
                                 for q in setup.queries),
        "qrels.txt": "".join(f"{q} 0 {d} {g}\n" for q, judged in setup.qrels.grades.items()
                             for d, g in judged.items()),
        "dict.tsv": "".join(f"{' '.join(src)}\t{'|'.join(cands)}\n"
                            for src, cands in setup.dictionary.entries.items()),
        "table.tsv": "".join(f"{src}\t{tgt}\n" for src, tgt in setup.table.items()),
        "stopwords.txt": "t1\nt2\n",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")


def _command_line(data, setup, coll, target_flags):
    """`clir search2` and `clir sweep` over the same inputs against the reference."""
    ns = sorted(data.draw(st.sets(st.sampled_from(_DEPTHS), min_size=1, max_size=3)))
    s = _settings(data, ns)
    n = data.draw(st.sampled_from(ns))
    flags = ["--method", s.kind, "--doc-channel", s.channel, "--tail", s.tail,
             "--depth", str(s.depth), "--alpha", str(s.combine.alpha),
             "--beta", str(s.combine.beta), "--epsilon", str(s.combine.epsilon), "--tag", "ref"]
    # the command line's translator, with the same texts refused
    failing = SimpleNamespace(from_file=lambda path: synth.FailingTable(
        TableAdapter.from_file(path).table, setup.fails))
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write(root, setup)
        index_flags = [str(root / f) if f.endswith(".txt") else f for f in target_flags]
        inputs = ["--index", str(root / "ja.idx"), "--corpus", str(root / "corpus.jsonl"),
                  "--query-file", str(root / "queries.jsonl"), "--dict", str(root / "dict.tsv"),
                  "--mock-table", str(root / "table.tsv")]
        assert main(["index", "--corpus", str(root / "corpus.jsonl"), "--lang", "ja",
                     "--out", str(root / "ja.idx"), *index_flags]) == 0
        with mock.patch.object(cli, "TableAdapter", failing):
            assert main(["search2", *inputs, *flags, "--n", str(n),
                         "--out", str(root / "run")]) == 0
            assert main(["sweep", *inputs, *flags, "--qrels", str(root / "qrels.txt"),
                         "--ns", ",".join(map(str, ns)), "--stage", "2" if s.two_stage else "1",
                         "--out", str(root / "sweep")]) == 0
        lines = (root / "run").read_text(encoding="utf-8")
        maps = {int(fields[2]): fields[3] for fields in (
            line.split("\t") for line in (root / "sweep").read_text(encoding="utf-8").splitlines())
            if fields[0] == "sweep"}

    def ranking(query, depth, two_stage=True):
        method = TranslationMethod(s.kind, synth.FailingTable(setup.table, setup.fails),
                                   setup.dictionary)
        return _expected(coll, setup, query, _config(s, depth, method),
                         AnalyzerConfig(query.lang), depth, two_stage)

    assert lines == "".join(reference.run_lines(q.query_id, *ranking(q, n)[:2], "ref")
                            for q in setup.queries)
    for depth in ns:
        rankings = {q.query_id: ranking(q, depth, s.two_stage)[0] for q in setup.queries}
        assert maps[depth] == f"{reference.mean_ap(rankings, setup.qrels.grades):.4f}", depth
    assert list(maps) == ns


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(_TARGETS), st.data())
def test_every_ranking_of_a_query_sequence_equals_the_stateless_reference(seed, target, data):
    setup = synth.build_random_setup(seed)
    analyzer, target_flags = target
    index = build_index(setup.corpus.filter_lang("ja"), analyzer)
    coll = reference.Collection([d for d in setup.docs if d.lang == "ja"], analyzer)
    _library(data, setup, index, coll)
    _command_line(data, setup, coll, target_flags)
