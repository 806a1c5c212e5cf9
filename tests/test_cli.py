"""Command-line behavior: exit codes, the five verbs end to end, settings
files, and output stability."""

import hashlib
import json
import logging
import math
import re
import shlex
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clir.cli import main
from clir.evaluation import read_run

JA_TEXTS = {
    "j1": "toshokan kensaku deta",
    "j2": "keisanki netto",
    "j3": "toshokan keisanki netto",
    "j4": "deta kensaku",
    "j5": "toshokan",
}
WORDS = {
    "library": "toshokan",
    "search": "kensaku",
    "computer": "keisanki",
    "network": "netto",
    "data": "deta",
}
JA_TO_EN = {v: k for k, v in WORDS.items()}


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    docs = []
    for did, text in JA_TEXTS.items():
        eid = "e" + did[1:]
        docs.append({"id": did, "lang": "ja", "title": "", "keywords": [],
                     "abstract": text, "pair_id": eid})
        docs.append({"id": eid, "lang": "en", "title": "", "keywords": [],
                     "abstract": " ".join(JA_TO_EN[t] for t in text.split()),
                     "pair_id": did})
    corpus = root / "corpus.jsonl"
    _write_jsonl(corpus, docs)

    queries = root / "queries.jsonl"
    _write_jsonl(queries, [
        {"id": "q1", "lang": "en", "description": "library search"},
        {"id": "q2", "lang": "en", "description": "computer network"},
    ])

    qrels = root / "qrels.txt"
    qrels.write_text(
        "q1 0 j1 2\nq1 0 j5 1\nq1 0 j2 0\nq2 0 j2 2\nq2 0 j3 2\nq9 0 j1 0\n",
        encoding="utf-8",
    )

    # one table covering both directions serves query and document translation
    table = root / "table.tsv"
    table.write_text(
        "".join(f"{en}\t{ja}\n{ja}\t{en}\n" for en, ja in WORDS.items()),
        encoding="utf-8",
    )

    # a table mapping queries onto the wrong terms, for a weaker reference run
    skew = root / "skew.tsv"
    wrong = dict(zip(WORDS, list(WORDS.values())[2:] + list(WORDS.values())[:2]))
    skew.write_text(
        "".join(f"{en}\t{ja}\n" for en, ja in wrong.items()), encoding="utf-8"
    )

    dictionary = root / "dict.tsv"
    dictionary.write_text(
        "".join(f"{en}\t{ja}\n" for en, ja in WORDS.items()), encoding="utf-8"
    )

    index = root / "ja.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "ja",
                 "--out", str(index)]) == 0
    return SimpleNamespace(root=root, corpus=corpus, queries=queries, qrels=qrels,
                           table=table, skew=skew, dictionary=dictionary, index=index)


# ---------------------------------------------------------------- exit codes


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_is_a_usage_error(capsys):
    assert main(["search", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(ws):
    assert main(["index", "--corpus", str(ws.corpus), "--lang", "ja"]) == 1


def test_unknown_verb_is_a_usage_error():
    assert main(["frobnicate"]) == 1


def test_help_exits_zero_and_is_stable(capsys):
    assert main(["--help"]) == 0
    first = capsys.readouterr().out
    assert main(["--help"]) == 0
    assert capsys.readouterr().out == first
    assert main(["search2", "--help"]) == 0
    sub_first = capsys.readouterr().out
    assert main(["search2", "--help"]) == 0
    assert capsys.readouterr().out == sub_first


def test_missing_data_file_exits_two(ws, capsys):
    assert main(["index", "--corpus", str(ws.root / "absent.jsonl"),
                 "--lang", "ja", "--out", str(ws.root / "x.idx")]) == 2
    assert "clir:" in capsys.readouterr().err


def test_corrupt_index_exits_two(ws, tmp_path, capsys):
    bad = tmp_path / "bad.idx"
    v1 = {"format": "clir-index-v1", "lang": "ja", "num_docs": 1,
          "analyzer": {"lang": "ja", "lowercase": True, "min_token_len": 1,
                       "stopword_list": [], "tokenizer_kind": "whitespace-word"},
          "postings": {"deta": [["j1", 1]]}, "df": {"deta": 1},
          "max_tf": {"j1": 1}, "doc_norms": {"j1": 0.0}}
    for text in ("{}", json.dumps(v1)):
        bad.write_text(text, encoding="utf-8")
        assert main(["search", "--index", str(bad),
                     "--query-file", str(ws.queries)]) == 2
        err = capsys.readouterr().err
        assert "clir:" in err and str(bad) in err and "rebuild it with `clir index`" in err


def test_index_missing_analyzer_exits_two(ws, tmp_path, capsys):
    payload = json.loads(ws.index.read_text(encoding="utf-8"))
    del payload["analyzer"]
    bad = tmp_path / "bad.idx"
    bad.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["search", "--index", str(bad),
                 "--query-file", str(ws.queries)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'analyzer'" in err


def test_adapter_flags_are_mutually_exclusive(ws):
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--adapter-cmd", "x", "--mock-table", str(ws.table)]) == 1


def test_method_prerequisites_enforced(ws):
    args = ["search", "--index", str(ws.index), "--query-file", str(ws.queries)]
    assert main(args + ["--method", "mts"]) == 1  # no adapter
    assert main(args + ["--method", "pbt"]) == 1  # no dictionary
    assert main(args + ["--method", "mpbt", "--mock-table", str(ws.table)]) == 1


def test_bad_depth_lists_rejected(ws):
    base = ["sweep", "--index", str(ws.index), "--corpus", str(ws.corpus),
            "--query-file", str(ws.queries), "--qrels", str(ws.qrels),
            "--method", "mts", "--mock-table", str(ws.table)]
    assert main(base + ["--ns", "5,2"]) == 1
    assert main(base + ["--ns", "abc"]) == 1
    assert main(base + ["--ns", "0,3"]) == 1
    assert main(base + ["--tail", "keep", "--depth", "2", "--ns", "1,3"]) == 1


@pytest.mark.parametrize("flags", [["--min-token-len", "0"],
                                   ["--tokenizer", "bigram", "--min-token-len", "2"]])
def test_index_flag_values_are_usage_errors(ws, tmp_path, capsys, flags):
    # checked before the corpus is read: an absent corpus is not reached
    for corpus in (ws.corpus, ws.root / "absent.jsonl"):
        assert main(["index", "--corpus", str(corpus), "--lang", "ja",
                     "--out", str(tmp_path / "x.idx"), *flags]) == 1
        assert "min_token_len" in capsys.readouterr().err
    assert not (tmp_path / "x.idx").exists()


@pytest.mark.parametrize("level", ["nan", "0", "1", "2", "-0.1"])
def test_eval_level_is_checked(ws, tmp_path, capsys, level):
    better, worse = _make_runs(ws, tmp_path)
    capsys.readouterr()
    # checked before any file is read: an absent run file is not reached
    for run in (better, ws.root / "absent.txt"):
        assert main(["eval", "--run", str(run), "--qrels", str(ws.qrels),
                     "--compare", str(worse), "--sign-test", "--level", level]) == 1
        captured = capsys.readouterr()
        assert "significance level" in captured.err
        assert captured.out == ""


# ------------------------------------------------------------------- verbs


def test_index_reports_size_on_stderr(ws, tmp_path, capsys):
    out = tmp_path / "again.idx"
    assert main(["index", "--corpus", str(ws.corpus), "--lang", "ja",
                 "--out", str(out)]) == 0
    assert "indexed 5 documents" in capsys.readouterr().err


def test_index_that_cannot_be_encoded_leaves_an_existing_index(ws, tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    _write_jsonl(corpus, [{"id": "j1", "lang": "ja", "title": "\ud800 x", "keywords": [],
                           "abstract": "deta"}])
    out = tmp_path / "ja.idx"
    out.write_bytes(ws.index.read_bytes())
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(out)]) == 2
    assert str(out) in capsys.readouterr().err
    assert out.read_bytes() == ws.index.read_bytes()


def test_index_bigram_tokenizer(ws, tmp_path):
    out = tmp_path / "bi.idx"
    assert main(["index", "--corpus", str(ws.corpus), "--lang", "ja",
                 "--tokenizer", "bigram", "--out", str(out)]) == 0


def test_search_writes_a_parseable_run(ws, tmp_path):
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", "mts", "--mock-table", str(ws.table),
                 "--tag", "one", "--out", str(out)]) == 0
    run = read_run(out)
    assert run.tag == "one"
    assert [e.doc_id for e in run.rankings["q1"]][0] == "j1"
    assert run.rankings["q2"]


def test_search_without_method_is_plain_monolingual(ws, tmp_path):
    en_index = tmp_path / "en.idx"
    assert main(["index", "--corpus", str(ws.corpus), "--lang", "en",
                 "--out", str(en_index)]) == 0
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(en_index), "--query-file", str(ws.queries),
                 "--out", str(out)]) == 0
    run = read_run(out)
    assert run.tag == "plain"
    assert [e.doc_id for e in run.rankings["q1"]][0] == "e1"


def test_search_respects_depth_flag(ws, tmp_path):
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", "mts", "--mock-table", str(ws.table),
                 "--n", "1", "--out", str(out)]) == 0
    run = read_run(out)
    assert all(len(entries) == 1 for entries in run.rankings.values())


def test_search2_run_and_timing(ws, tmp_path, capsys):
    out = tmp_path / "run.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "mts",
                 "--mock-table", str(ws.table), "--n", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "timing q1 translation_s=" in err
    assert "timing q2 " in err
    run = read_run(out)
    assert run.tag == "mts+mt"
    assert [e.doc_id for e in run.rankings["q1"]][0] == "j1"


def test_search2_survives_undecodable_translator_output(ws, tmp_path, caplog):
    script = tmp_path / "mt.py"
    table = {**WORDS, **JA_TO_EN}
    script.write_text(
        "import sys\n"
        f"table = {table!r}\n"
        "text = sys.stdin.read()\n"
        "if 'netto' in text:\n"
        "    sys.stdout.buffer.write(b'\\xff\\xfe')\n"
        "else:\n"
        "    print(' '.join(table.get(w, w) for w in text.split()))\n",
        encoding="utf-8",
    )
    out = tmp_path / "run.txt"
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                     "--query-file", str(ws.queries), "--method", "mts",
                     "--adapter-cmd", shlex.join([sys.executable, str(script)]),
                     "--n", "5", "--out", str(out)]) == 0
    assert "j3 kept untranslated" in caplog.text
    run = read_run(out)
    assert "j3" in [e.doc_id for e in run.rankings["q1"]]


# search2's run file and sweep's output with its seconds masked, recorded
# while every repeated text still went to the translator again: the table of
# translations must not change them
_LOGGED_RUN_SHA256 = {
    "search": "331071e34545ff748d0ca1a2955bbccbbe13fcd69e7640da8836d687c90140bf",
    "search2": "8450c11917d214b66fd6902694bc6c7d346bb140793a83ae9e8cb20d1a595d60",
    "sweep": "5f20ab0e19820aab58e6456fb3c66df4c04e804bef03e94a559f20bde90775c4",
}


@pytest.fixture
def logged(tmp_path):
    """A collection whose titles, keywords and abstracts repeat across
    documents and whose query words repeat across queries, and a translator
    script that logs each call's (source, target, text) to ``log``."""
    docs = [
        ("k1", "toshokan kensaku", ["deta", "kensaku"], "toshokan kensaku deta"),
        ("k2", "keisanki netto", ["netto", "deta"], "keisanki netto deta"),
        ("k3", "toshokan kensaku", ["kensaku", "netto"], "toshokan keisanki netto"),
        ("k4", "deta", ["deta"], "deta kensaku"),
        ("k5", "", [], "toshokan"),
    ]
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [{"id": d, "lang": "ja", "title": t, "keywords": k, "abstract": a}
                          for d, t, k, a in docs])
    queries = tmp_path / "queries.jsonl"
    _write_jsonl(queries, [
        {"id": "q1", "lang": "en", "description": "library search"},
        {"id": "q2", "lang": "en", "description": "library data"},
        {"id": "q3", "lang": "en", "description": "computer network data"},
        {"id": "q4", "lang": "en", "description": "search network library"},
    ])
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 k1 2\nq1 0 k5 1\nq2 0 k4 2\nq3 0 k2 2\nq3 0 k3 1\nq4 0 k3 2\n",
                     encoding="utf-8")
    index = tmp_path / "ja.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(index)]) == 0

    log = tmp_path / "calls.jsonl"
    script = tmp_path / "mt.py"
    script.write_text(
        "import json, sys\n"
        f"table = {({**WORDS, **JA_TO_EN})!r}\n"
        "text = sys.stdin.read()\n"
        f"with open({str(log)!r}, 'a', encoding='utf-8') as fh:\n"
        "    fh.write(json.dumps(sys.argv[1:3] + [text]) + '\\n')\n"
        "print(' '.join(table.get(w, w) for w in text.split()))\n",
        encoding="utf-8",
    )
    return SimpleNamespace(corpus=corpus, queries=queries, qrels=qrels, index=index, log=log,
                           adapter_cmd=shlex.join([sys.executable, "-S", str(script)]))


def _logged_run(logged, tmp_path, name, args):
    """Run ``args`` with the logging translator; the distinct-call check,
    the calls logged and the SHA-256 of the output, sweep timings masked."""
    logged.log.write_text("", encoding="utf-8")
    out = tmp_path / f"{name}.txt"
    assert main([*args, "--index", str(logged.index), "--query-file", str(logged.queries),
                 "--method", "mtp", "--adapter-cmd", logged.adapter_cmd,
                 "--out", str(out)]) == 0
    calls = [tuple(json.loads(line)) for line in logged.log.read_text(encoding="utf-8").splitlines()]
    text = out.read_text(encoding="utf-8")
    if name == "sweep":
        text = re.sub(r"(?m)(\s+\d+\.\d{3}){3}$", " <s>", text)
    return calls, hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_each_distinct_text_reaches_an_external_translator_once(logged, tmp_path):
    corpus = ["--corpus", str(logged.corpus)]
    commands = {
        "search2": ["search2", *corpus, "--n", "5"],
        "sweep": ["sweep", *corpus, "--qrels", str(logged.qrels), "--ns", "1,3,5"],
    }
    for name, args in commands.items():
        calls, digest = _logged_run(logged, tmp_path, name, args)
        assert len(calls) == len(set(calls)), name
        assert {("en", "ja", "library"), ("ja", "en", "deta"),
                ("ja", "en", "toshokan kensaku")} <= set(calls)
        assert digest == _LOGGED_RUN_SHA256[name]


def test_search_sends_each_query_word_to_an_external_translator_once(logged, tmp_path):
    calls, digest = _logged_run(logged, tmp_path, "search", ["search"])
    # five distinct words over four queries, each word asked for once
    assert sorted(calls) == sorted(("en", "ja", word) for word in WORDS)
    assert digest == _LOGGED_RUN_SHA256["search"]


def test_search2_and_sweep_keep_a_document_missing_from_the_corpus(ws, tmp_path, caplog):
    # the index holds j3, this corpus does not
    lines = ws.corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    corpus = tmp_path / "short.jsonl"
    corpus.write_text("".join(l for l in lines if json.loads(l)["id"] not in ("j3", "e3")),
                      encoding="utf-8")
    out = tmp_path / "run.txt"
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        assert main(["search2", "--index", str(ws.index), "--corpus", str(corpus),
                     "--query-file", str(ws.queries), "--method", "mts",
                     "--mock-table", str(ws.table), "--n", "5", "--out", str(out)]) == 0
    assert "query q2: document j3 kept untranslated: no document 'j3'" in caplog.text
    assert "j3" in [e.doc_id for e in read_run(out).rankings["q2"]]
    assert main(["sweep", "--index", str(ws.index), "--corpus", str(corpus),
                 "--query-file", str(ws.queries), "--qrels", str(ws.qrels),
                 "--ns", "2,5", "--method", "mts", "--mock-table", str(ws.table)]) == 0


def test_search2_human_channel_needs_no_adapter_for_documents(ws, tmp_path):
    out = tmp_path / "run.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "pbt",
                 "--dict", str(ws.dictionary), "--doc-channel", "ht",
                 "--out", str(out)]) == 0
    assert read_run(out).tag == "pbt+ht"


def test_search2_machine_channel_requires_adapter(ws):
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "pbt",
                 "--dict", str(ws.dictionary)]) == 1


def test_search2_verbose_interleaves_component_scores(ws, tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    wordy = tmp_path / "wordy.txt"
    base = ["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
            "--query-file", str(ws.queries), "--method", "mts",
            "--mock-table", str(ws.table), "--n", "3"]
    assert main(base + ["--out", str(plain)]) == 0
    assert main(base + ["--verbose", "--out", str(wordy)]) == 0
    wordy_text = wordy.read_text(encoding="utf-8")
    comments = [l for l in wordy_text.splitlines() if l.startswith("#")]
    assert comments and all("esim=" in l and "jsim=" in l and "sim=" in l
                            for l in comments)
    stripped = "".join(l + "\n" for l in wordy_text.splitlines()
                       if not l.startswith("#"))
    assert stripped == plain.read_text(encoding="utf-8")
    run = read_run(wordy)  # comment lines are ignored by the reader
    assert run.rankings


def test_search2_output_is_byte_identical_across_runs(ws, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    base = ["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
            "--query-file", str(ws.queries), "--method", "mts",
            "--mock-table", str(ws.table), "--n", "4"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def _make_runs(ws, tmp_path):
    better = tmp_path / "better.txt"
    worse = tmp_path / "worse.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "mts",
                 "--mock-table", str(ws.table), "--n", "4",
                 "--tag", "two-stage", "--out", str(better)]) == 0
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", "mts", "--mock-table", str(ws.skew),
                 "--n", "4", "--tag", "skewed", "--out", str(worse)]) == 0
    return better, worse


def test_eval_reports_and_compares(ws, tmp_path, capsys):
    better, worse = _make_runs(ws, tmp_path)
    assert main(["eval", "--run", str(better), "--qrels", str(ws.qrels)]) == 0
    out = capsys.readouterr().out
    assert "runid\ttwo-stage" in out
    assert "skipped\tq9" in out
    assert "num_q\t2" in out
    assert "map\t" in out

    assert main(["eval", "--run", str(better), "--qrels", str(ws.qrels),
                 "--compare", str(worse), "--sign-test"]) == 0
    out = capsys.readouterr().out
    assert "runid\tskewed" in out
    assert "compare\ttwo-stage\tskewed" in out
    assert "p_value" in out
    assert "sign_test\t" in out


def test_eval_compare_run_against_itself_is_no_information(ws, tmp_path, capsys):
    better, _ = _make_runs(ws, tmp_path)
    assert main(["eval", "--run", str(better), "--qrels", str(ws.qrels),
                 "--compare", str(better)]) == 0
    out = capsys.readouterr().out
    assert "method\tno-information" in out
    assert "significant\tno" in out


def test_eval_compare_without_judged_queries_is_no_information(ws, tmp_path, capsys):
    better, worse = _make_runs(ws, tmp_path)
    qrels = tmp_path / "unjudged.txt"
    qrels.write_text("q1 0 j2 0\nq2 0 j1 0\n", encoding="utf-8")
    assert main(["eval", "--run", str(better), "--qrels", str(qrels),
                 "--compare", str(worse), "--sign-test"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines.count("num_q\t0") == 2
    assert lines[-4:] == [
        "n\t0",
        "method\tno-information",
        "significant\tno",
        "sign_test\tn\t0\tpositive\t0\tnegative\t0\tp_value\tNA\tsignificant\tno",
    ]


def test_eval_lenient_counts_partial_relevance(ws, tmp_path, capsys):
    better, _ = _make_runs(ws, tmp_path)
    assert main(["eval", "--run", str(better), "--qrels", str(ws.qrels)]) == 0
    strict_out = capsys.readouterr().out
    assert main(["eval", "--run", str(better), "--qrels", str(ws.qrels),
                 "--lenient"]) == 0
    lenient_out = capsys.readouterr().out
    strict_q1 = [l for l in strict_out.splitlines() if l.startswith("ap\tq1")][0]
    lenient_q1 = [l for l in lenient_out.splitlines() if l.startswith("ap\tq1")][0]
    assert strict_q1 != lenient_q1  # j5 only counts under lenient reading


def test_sweep_outputs_table_and_machine_lines(ws, capsys):
    assert main(["sweep", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--qrels", str(ws.qrels),
                 "--ns", "1,2,4", "--method", "mts",
                 "--mock-table", str(ws.table)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == [
        "system", "n", "map", "trans_s", "rerank_s", "total_s"
    ]
    machine = [l for l in out.splitlines() if l.startswith("sweep\t")]
    assert [l.split("\t")[2] for l in machine] == ["1", "2", "4"]


def test_sweep_first_stage_only(ws, capsys):
    assert main(["sweep", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--qrels", str(ws.qrels),
                 "--ns", "2,4", "--stage", "1", "--method", "mts",
                 "--mock-table", str(ws.table)]) == 0
    machine = [l for l in capsys.readouterr().out.splitlines()
               if l.startswith("sweep\t")]
    assert len(machine) == 2
    for line in machine:
        cells = line.split("\t")
        assert cells[4] == "0.000"  # no document translation in stage 1
        assert cells[5] == "0.000"


# ---------------------------------------------------------------- settings


def test_config_file_fills_unset_flags(ws, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"n = 1\nmethod = mts\nmock-table = {ws.table}\ntag = mine\n", encoding="utf-8"
    )
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg), "--out", str(out)]) == 0
    run = read_run(out)
    assert run.tag == "mine"
    assert all(len(entries) == 1 for entries in run.rankings.values())


def test_command_line_overrides_config(ws, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 1\nmethod = mts\nmock-table = {ws.table}\n", encoding="utf-8")
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg), "--n", "3", "--out", str(out)]) == 0
    run = read_run(out)
    assert any(len(entries) > 1 for entries in run.rankings.values())


def test_config_rejects_unknown_keys_and_bad_values(ws, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnication = 7\n", encoding="utf-8")
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err

    cfg.write_text("n = plenty\n", encoding="utf-8")
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg)]) == 2


def test_flag_value_ranges_checked(ws):
    base = ["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
            "--query-file", str(ws.queries), "--method", "mts",
            "--mock-table", str(ws.table)]
    assert main(base + ["--n", "0"]) == 1
    assert main(base + ["--alpha", "-1"]) == 1
    assert main(base + ["--epsilon", "0"]) == 1
    assert main(base + ["--epsilon", "nan"]) == 1
    assert main(base + ["--tail", "keep", "--n", "10", "--depth", "5"]) == 1
    assert main(base + ["--depth", "0"]) == 1


_FLAG_FLOATS = st.floats() | st.sampled_from([0.0, -1.0, math.nan, math.inf])


@settings(max_examples=50, deadline=None)
@example(n=3, depth=5, tail="keep", alpha=1.0, beta=2.0, epsilon=1e300)  # overflows
@given(n=st.integers(-2, 6), depth=st.integers(-2, 6), tail=st.sampled_from(["drop", "keep"]),
       alpha=_FLAG_FLOATS, beta=_FLAG_FLOATS, epsilon=_FLAG_FLOATS)
def test_search2_flag_values_are_usage_errors_or_finite_runs(ws, n, depth, tail,
                                                              alpha, beta, epsilon):
    out = ws.root / "prop.txt"
    out.unlink(missing_ok=True)
    status = main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                   "--query-file", str(ws.queries), "--method", "mts",
                   "--mock-table", str(ws.table), "--n", str(n), "--depth", str(depth),
                   "--tail", tail, f"--alpha={alpha!r}", f"--beta={beta!r}",
                   f"--epsilon={epsilon!r}", "--out", str(out)])
    assert status in (0, 1)
    if status == 0:
        run = read_run(out)
        assert all(math.isfinite(e.score) for entries in run.rankings.values()
                   for e in entries)


def test_inputs_are_not_modified(ws, tmp_path):
    before = {p: p.read_bytes() for p in (ws.corpus, ws.queries, ws.qrels, ws.table)}
    out = tmp_path / "run.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "mts",
                 "--mock-table", str(ws.table), "--out", str(out)]) == 0
    for p, data in before.items():
        assert p.read_bytes() == data
