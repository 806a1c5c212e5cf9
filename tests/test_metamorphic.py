"""Metamorphic relations across whole runs: a transformed input whose output
is known from the output on the original input.

MR1, collection order: permuting the collection's lines leaves the
``search``, ``search2`` and ``sweep`` outputs byte-identical. A permuted
collection gives an index whose documents are saved in another order and
whose term strings come from other documents, but documents are numbered in
doc_id order, so every score, tie-break and translated head is the same.

MR2, query order and split: permuting the query file, or running it as two
commands, gives each query the same ``search2`` lines, which leave as each
query finishes. A query repeated under a new id ranks identically and costs
no further translator call, each distinct text reaching the translator once.

MR3, doc-id renaming: renaming the doc ids in an order-preserving way, pair
links and judgments too, renames the doc ids of every ranking and changes
nothing else, and the sweep's MAP stays the same. Only doc_id order may
decide anything, through tie-breaks and ordinals.

MR4, vocabulary renaming: renaming the target-language terms by a bijection,
in the collection's ``ja`` texts, the dictionary's candidates and the mock
table, leaves every output unchanged. The word analyzer with no stopwords
keeps each new term as it is, and no two candidates of a dictionary entry
tie on df, so the dictionary's lexicographic tie-break is never reached.
Nothing else may read a term's spelling: a term is known by its df and its
place in a document's or a query's token order.

MR5, sweep and search2 agree: each ``sweep`` cell's MAP is the MAP that
``eval`` reports for the ``search2`` run at that depth with the same flags,
though the sweep shares stage one and translated documents across its cells.
"""

import json
import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from clir import cli
from clir.cli import main
from clir.corpus import Corpus, Document, Query, indexable_text
from clir.evaluation import (
    Qrels,
    SweepSystem,
    format_run,
    run_from_ranked,
    sweep_n,
    sweep_runs,
)
from clir.index import RankedList, build_index
from clir.pipeline import TAIL_KEEP, PipelineConfig
from clir.rerank import CombineParams
from clir.translate import COMBINED, BilingualDictionary, TableAdapter, TranslationMethod

_SETUP = synth.build_ambiguity_setup()
# synth's paired documents, then an empty one that counts toward N only
_DOCS = [*_SETUP.corpus, Document(doc_id="t99e", lang="ja")]
# each query holds its topic's two words and filler words, one of them
# twice, so both stages score many documents with varied tf and df
_QUERIES = [Query(q.query_id, q.lang, f"{q.description} sf{7 * k % 60:02d} "
                                      f"sf{(7 * k + 3) % 60:02d} sf{(7 * k + 3) % 60:02d}")
            for k, q in enumerate(_SETUP.queries)]
# the mock table: query words into the target language (odd topics take the
# misleading candidate) and synth's back-translation of the documents
_TABLE = {
    **_SETUP.mt_back_table.table,
    **{f"sa{k}": (f"c{k}" if k % 2 else f"a{k}") for k in range(synth.NUM_QUERIES)},
    **{f"sb{k}": f"b{k}" for k in range(synth.NUM_QUERIES)},
    **{f"sf{i:02d}": f"f{i:02d}" for i in range(60)},
}


def _library_outputs(docs, qrels=_SETUP.qrels, table=_TABLE, dictionary=_SETUP.dictionary):
    """What ``search``, ``search2`` (with the component scores ``--verbose``
    shows) and ``sweep`` give on the collection ``docs``, through the library,
    the sweep judged by ``qrels``, translating with the mock ``table`` and
    ``dictionary``."""

    def _cfg(n, **kwargs):
        method = TranslationMethod(COMBINED, TableAdapter(table), dictionary)
        return PipelineConfig(n_intermediate=n, translation_method=method, **kwargs)

    corpus = Corpus(docs, ["en", "ja"])
    index = build_index(corpus.filter_lang("ja"), synth.TGT)
    outputs = {}
    for name, system in (
        ("search", SweepSystem("first", _cfg(60), two_stage=False)),
        ("search2", SweepSystem("mpbt", _cfg(15, tail_policy=TAIL_KEEP, output_depth=50,
                                             combine=CombineParams(beta=2.0)))),
    ):
        n = system.cfg.n_intermediate
        rankings = [ranked for *_, ranked, _ in sweep_runs(
            _QUERIES, index, corpus, [system], lambda q: synth.SRC, index.analyzer, [n])]
        outputs[name] = format_run(run_from_ranked(rankings, name)), rankings
    points = sweep_n(_QUERIES, index, corpus,
                     [SweepSystem("mpbt", _cfg(1)), SweepSystem("first", _cfg(1), two_stage=False)],
                     lambda q: synth.SRC, index.analyzer, qrels, [5, 20, 101])
    outputs["sweep"] = [(p.system, p.n, p.mean_ap) for p in points]
    return outputs


_ORIGINAL = _library_outputs(_DOCS)


def test_the_original_outputs_are_not_empty():
    assert all(text.strip() for text, _ in (_ORIGINAL["search"], _ORIGINAL["search2"]))
    assert any(ranked.esims for ranked in _ORIGINAL["search2"][1])
    assert len({ap for _, _, ap in _ORIGINAL["sweep"]}) > 1


@settings(max_examples=25, deadline=None)
@given(st.permutations(_DOCS))
def test_mr1_permuting_the_collection_leaves_every_output_unchanged(docs):
    assert _library_outputs(docs) == _ORIGINAL


def _new_ids(rng, k):
    """``k`` distinct ids in ascending order, of 1 to 12 visible ASCII
    characters, "#" and digits included."""
    ids = set()
    while len(ids) < k:
        ids.add("".join(chr(rng.randint(33, 126)) for _ in range(rng.randint(1, 12))))
    return sorted(ids)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mr3_renaming_doc_ids_in_order_renames_them_in_every_output(seed):
    new_ids = _new_ids(random.Random(seed), len(_DOCS))
    rename = dict(zip(sorted(d.doc_id for d in _DOCS), new_ids))
    docs = [Document(rename[d.doc_id], d.lang, d.title, d.keywords, d.abstract,
                     d.pair_id and rename[d.pair_id]) for d in _DOCS]
    qrels = Qrels({q: {rename[d]: g for d, g in judged.items()}
                   for q, judged in _SETUP.qrels.grades.items()})
    got = _library_outputs(docs, qrels)
    assert got["sweep"] == _ORIGINAL["sweep"]
    for name in ("search", "search2"):
        text, rankings = _ORIGINAL[name]
        want = [RankedList(r.query_id, doc_ids=[rename[d] for d in r.doc_ids], scores=r.scores,
                           esims=r.esims, jsims=r.jsims) for r in rankings]
        assert got[name][1] == want
        assert got[name][0] == "".join(
            f"{q} Q0 {rename[d]} {rank} {score} {tag}\n"
            for q, _, d, rank, score, tag in map(str.split, text.splitlines()))


def _new_terms(rng, k, taken):
    """``k`` distinct terms, none in ``taken``, of 1 to 10 characters that
    the word analyzer keeps as they are: lowercase letters, digits and kana."""
    terms = {}
    while len(terms) < k:
        term = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz0123456789éあいう")
                       for _ in range(rng.randint(1, 10)))
        if term not in taken:
            terms[term] = None
    return list(terms)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mr4_renaming_the_target_vocabulary_leaves_every_output_unchanged(seed):
    vocabulary = {t for d in _DOCS if d.lang == "ja" for t in indexable_text(d).split()}
    vocabulary.update(c for cands in _SETUP.dictionary.entries.values() for c in cands)
    taken = {t for text in (*(d.abstract for d in _DOCS), *(q.description for q in _QUERIES),
                            *_TABLE, *_TABLE.values()) for t in text.split()}
    rng = random.Random(seed)
    old = sorted(vocabulary)
    rng.shuffle(old)
    rename = dict(zip(old, _new_terms(rng, len(old), taken | vocabulary)))

    def renamed(text):
        return " ".join(rename.get(t, t) for t in text.split())

    docs = [Document(d.doc_id, d.lang, renamed(d.title), list(map(renamed, d.keywords)),
                     renamed(d.abstract), d.pair_id) if d.lang == "ja" else d for d in _DOCS]
    # the table's query translations end in target terms, and its
    # back-translations of the documents start from them
    table = {renamed(src): renamed(tgt) for src, tgt in _TABLE.items()}
    dictionary = BilingualDictionary({" ".join(src): list(map(renamed, cands))
                                      for src, cands in _SETUP.dictionary.entries.items()})
    assert _library_outputs(docs, table=table, dictionary=dictionary) == _ORIGINAL


def _write_collection(path, docs):
    path.write_text("".join(json.dumps(
        {"id": d.doc_id, "lang": d.lang, "title": d.title, "keywords": d.keywords,
         "abstract": d.abstract, "pair_id": d.pair_id}) + "\n" for d in docs), encoding="utf-8")


def _cli_outputs(root, corpus, index):
    """The bytes ``clir`` writes for each verb on one collection file, the
    sweep's seconds masked."""
    query = ["--index", str(index), "--query-file", str(root / "queries.jsonl"),
             "--dict", str(root / "dict.tsv"), "--mock-table", str(root / "table.tsv")]
    commands = {
        "search": ["search", *query, "--method", "mpbt", "--n", "60"],
        "search2": ["search2", *query, "--corpus", str(corpus), "--method", "mpbt",
                    "--n", "15", "--tail", "keep", "--depth", "50", "--beta", "2", "--verbose"],
        "sweep": ["sweep", *query, "--corpus", str(corpus), "--qrels", str(root / "qrels.txt"),
                  "--method", "mpbt", "--ns", "5,20,101"],
    }
    outputs = {}
    for name, args in commands.items():
        out = root / f"{index.stem}.{name}"
        assert main([*args, "--out", str(out)]) == 0
        outputs[name] = re.sub(r"(?m)(\s+\d+\.\d{3}){3}$", " <s>", out.read_text(encoding="utf-8"))
    return outputs


def _write_queries(path, queries):
    path.write_text("".join(
        json.dumps({"id": q.query_id, "lang": q.lang, "description": q.description}) + "\n"
        for q in queries), encoding="utf-8")


def _write_inputs(root):
    """The query file, judgments, dictionary and mock table ``_cli_outputs`` reads."""
    _write_queries(root / "queries.jsonl", _QUERIES)
    (root / "qrels.txt").write_text("".join(
        f"{q} 0 {d} {g}\n" for q, judged in _SETUP.qrels.grades.items()
        for d, g in judged.items()), encoding="utf-8")
    (root / "dict.tsv").write_text("".join(
        f"{' '.join(src)}\t{'|'.join(cands)}\n"
        for src, cands in _SETUP.dictionary.entries.items()), encoding="utf-8")
    (root / "table.tsv").write_text(
        "".join(f"{src}\t{tgt}\n" for src, tgt in _TABLE.items()), encoding="utf-8")


def test_mr1_through_the_command_line(tmp_path):
    _write_inputs(tmp_path)
    shuffled = list(_DOCS)
    random.Random(7).shuffle(shuffled)
    outputs = {}
    for name, docs in (("original", _DOCS), ("shuffled", shuffled)):
        corpus, index = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.idx"
        _write_collection(corpus, docs)
        assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(index)]) == 0
        outputs[name] = _cli_outputs(tmp_path, corpus, index)
    # the index files differ, so the permutation reached them
    assert (tmp_path / "original.idx").read_bytes() != (tmp_path / "shuffled.idx").read_bytes()
    assert all(outputs["original"].values())
    assert outputs["shuffled"] == outputs["original"]


def _lines_by_query(text):
    """{query id: its lines}, a ``--verbose`` comment counted with its query."""
    lines = {}
    for line in text.splitlines(keepends=True):
        fields = line.split()
        lines.setdefault(fields[1] if fields[0] == "#" else fields[0], []).append(line)
    return {query_id: "".join(query_lines) for query_id, query_lines in lines.items()}


def test_mr2_query_order_split_and_repetition_through_the_command_line(tmp_path, monkeypatch):
    calls = []

    class CountingTable(TableAdapter):
        def translate(self, text, src, tgt):
            calls.append(text)
            return super().translate(text, src, tgt)

    monkeypatch.setattr(cli, "TableAdapter", CountingTable)
    _write_inputs(tmp_path)
    corpus, index = tmp_path / "docs.jsonl", tmp_path / "docs.idx"
    _write_collection(corpus, _DOCS)
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(index)]) == 0

    def search2(queries):
        """search2's output over ``queries``, and the translator calls it made."""
        path, out = tmp_path / "these.jsonl", tmp_path / "these.run"
        _write_queries(path, queries)
        calls.clear()
        assert main(["search2", "--index", str(index), "--query-file", str(path),
                     "--corpus", str(corpus), "--dict", str(tmp_path / "dict.tsv"),
                     "--mock-table", str(tmp_path / "table.tsv"), "--method", "mpbt",
                     "--n", "15", "--tail", "keep", "--depth", "50", "--beta", "2",
                     "--verbose", "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8"), len(calls)

    text, cost = search2(_QUERIES)
    want = _lines_by_query(text)
    assert list(want) == [q.query_id for q in _QUERIES] and all(want.values()) and cost
    for seed in range(3):
        permuted = list(_QUERIES)
        random.Random(seed).shuffle(permuted)
        got, permuted_cost = search2(permuted)
        assert _lines_by_query(got) == want
        # each distinct text reaches the translator once, whatever the order
        assert permuted_cost == cost
    half = len(_QUERIES) // 2
    first, _ = search2(_QUERIES[:half])
    second, _ = search2(_QUERIES[half:])
    assert first + second == text
    # repeated under new ids, here and later in the file, a query ranks as
    # it did and sends nothing new to the translator
    repeats = [Query(f"again{k}", q.lang, q.description) for k, q in enumerate(_QUERIES[::4])]
    got, repeated_cost = search2([*_QUERIES[:2], repeats[0], *_QUERIES[2:], *repeats[1:]])
    got = _lines_by_query(got)
    assert repeated_cost == cost
    assert {q: got[q] for q in want} == want
    for repeat, query in zip(repeats, _QUERIES[::4]):
        assert got[repeat.query_id] == re.sub(rf"(?m)^(# )?{query.query_id} ",
                                              rf"\g<1>{repeat.query_id} ", want[query.query_id])


def test_mr5_each_sweep_cell_is_eval_of_search2_at_its_depth(tmp_path):
    _write_inputs(tmp_path)
    corpus, index = tmp_path / "docs.jsonl", tmp_path / "docs.idx"
    _write_collection(corpus, _DOCS)
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(index)]) == 0
    qrels, out = str(tmp_path / "qrels.txt"), tmp_path / "out.txt"
    for method in ("mts", "pbt"):  # one machine and one dictionary translation
        flags = ["--index", str(index), "--query-file", str(tmp_path / "queries.jsonl"),
                 "--corpus", str(corpus), "--dict", str(tmp_path / "dict.tsv"),
                 "--mock-table", str(tmp_path / "table.tsv"), "--method", method, "--beta", "2"]
        assert main(["sweep", *flags, "--qrels", qrels, "--ns", "1,3,5", "--out", str(out)]) == 0
        cells = {int(fields[2]): fields[3] for fields in (
            line.split("\t") for line in out.read_text(encoding="utf-8").splitlines())
            if fields[0] == "sweep"}
        assert list(cells) == [1, 3, 5] and len(set(cells.values())) > 1
        searched = {}
        for n in cells:
            run = tmp_path / f"{method}.{n}.run"
            assert main(["search2", *flags, "--n", str(n), "--out", str(run)]) == 0
            assert main(["eval", "--run", str(run), "--qrels", qrels, "--out", str(out)]) == 0
            searched[n] = re.search(r"(?m)^map\t(\S+)$", out.read_text(encoding="utf-8"))[1]
        assert cells == searched, method
