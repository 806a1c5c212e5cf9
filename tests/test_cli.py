"""Command-line behavior: exit codes, the five verbs end to end, settings
files, output files and output stability."""

import argparse
import builtins
import dataclasses
import hashlib
import json
import logging
import math
import os
import re
import shlex
import stat
import subprocess
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clir
from clir import evaluation
from clir.cli import SETTINGS, build_parser, main
from clir.evaluation import read_run
from clir.pipeline import PipelineConfig
from clir.rerank import CombineParams
from clir.translate import TableAdapter

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


# SHA-256 of `clir --help` and of each verb's --help. The texts are the
# documented command line, so a change to one is made here on purpose.
_HELP_SHA256 = {
    (): "079f0d690459eaf0caf26bf5ca51b441e411edd2dbc8b363eb1a831720b0cc34",
    ("index",): "5c8c0f3cafbca6745014668b18d3d44e8988c0005e8bbbc6d01ab66023f68336",
    ("search",): "0d4c13e3df72fed89cd36ab451b791345b04ac93f11fa27e4c124c9182b5f111",
    ("search2",): "382f3dfd0a1b3b2b07c4e1b8b3d68f4c8d1d33d9ade08cf517946b25530de417",
    ("eval",): "e1c1924f70f48e2d69151e6a2898c0ff7b06fef899157ad02b33fc1951f8ffb6",
    ("sweep",): "689256a47b7a13b3205fbf61d587ee72a75ac0315646b7c2e963e9105bd515f3",
}


def test_help_exits_zero_and_is_stable(capsys):
    for verb, digest in _HELP_SHA256.items():
        texts = []
        for _ in range(2):
            assert main([*verb, "--help"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0].encode("utf-8")).hexdigest() == digest, verb


# Each verb's option strings besides --help: only the flags it reads. sweep
# takes its depths from --ns alone, and --verbose changes search2's output only.
_RUN = {"--config", "--method", "--adapter-cmd", "--mock-table", "--dict", "--tag"}
_RERANK = {"--doc-channel", "--alpha", "--beta", "--epsilon", "--tail", "--depth"}
_OPTIONS = {
    "index": {"--corpus", "--lang", "--stopwords", "--tokenizer", "--min-token-len", "--out"},
    "search": {"--index", "--query-file", "--n", "--out", *_RUN},
    "search2": {"--index", "--corpus", "--query-file", "--n", "--out", "--verbose", "-v",
                *_RUN, *_RERANK},
    "eval": {"--run", "--qrels", "--lenient", "--compare", "--level", "--sign-test", "--out"},
    "sweep": {"--index", "--corpus", "--query-file", "--qrels", "--ns", "--stage", "--lenient",
              "--out", *_RUN, *_RERANK},
}


def test_each_verb_takes_only_its_own_flags_and_none_by_abbreviation():
    parser = build_parser()
    verbs = next(action.choices for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert {verb: {option for action in p._actions for option in action.option_strings}
            - {"-h", "--help"} for verb, p in verbs.items()} == _OPTIONS
    assert not any(p.allow_abbrev for p in [parser, *verbs.values()])


def test_missing_data_file_exits_two(ws, capsys):
    assert main(["index", "--corpus", str(ws.root / "absent.jsonl"),
                 "--lang", "ja", "--out", str(ws.root / "x.idx")]) == 2
    assert "clir:" in capsys.readouterr().err


# how the stream is broken: the read end of its pipe closed before clir
# starts (`clir ... | head -1` made certain), its descriptor closed (`>&-`),
# or open for reading only (`2</dev/null`)
_BROKEN = {"closed": ">&-", "read-only": "</dev/null"}


@pytest.mark.parametrize("case, stream, how, status", [
    ("search", "stdout", "pipe", 141),
    ("search2-out", "stderr", "pipe", 141),
    ("index", "stderr", "pipe", 141),
    ("missing-index", "stderr", "pipe", 2),
    ("n-0", "stderr", "pipe", 1),
    ("search", "stdout", "closed", 2),
    ("help", "stdout", "closed", 2),
    ("index", "stderr", "closed", 2),
    ("missing-index", "stderr", "closed", 2),
    ("warning", "stderr", "closed", 2),
    ("missing-index", "stderr", "read-only", 2),
    ("warning", "stderr", "read-only", 2),
    ("help", "stdout", "pipe", 141),
    ("warning", "stderr", "pipe", 141),
    ("search", "stderr", "read-only", 0),  # nothing to write there, so nothing fails
])
def test_a_failed_write_to_stdout_or_stderr_ends_the_command_with_its_status(
        ws, tmp_path, case, stream, how, status):
    # a failure's message goes to stderr or nowhere, never to stdout, and a
    # failed write stops the command: nothing is written after it
    query = ["--query-file", str(ws.queries), "--method", "mts", "--mock-table", str(ws.table)]
    out = tmp_path / "out"
    out.mkdir()
    # the first query has a word the dictionary lacks, so its warning is the
    # first write to stderr and comes before any run line
    warned = tmp_path / "warned.jsonl"
    warned.write_text(json.dumps({"id": "q0", "lang": "en", "description": "library zzzunknownword"})
                      + "\n" + ws.queries.read_text(encoding="utf-8"), encoding="utf-8")
    argv = {
        "search": ["search", "--index", str(ws.index), *query],
        "search2-out": ["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                        *query, "--out", str(out / "r.run")],
        "index": ["index", "--corpus", str(ws.corpus), "--lang", "ja",
                  "--out", str(out / "ja.idx")],
        "missing-index": ["search", "--index", str(tmp_path / "absent.idx"), *query],
        "n-0": ["search", "--index", str(ws.index), *query, "--n", "0"],
        "help": ["--help"],
        "warning": ["search", "--index", str(ws.index), "--query-file", str(warned),
                    "--method", "pbt", "--dict", str(ws.dictionary)],
    }[case]
    src = os.path.dirname(os.path.dirname(clir.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    if case in ("help", "warning"):  # each write reaches the stream at once
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "clir.cli", *argv]
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
    read_end, write_end = os.pipe()
    os.close(read_end)
    if how == "pipe":
        streams[stream] = write_end
    else:
        fd = "1" if stream == "stdout" else "2"
        command = ["sh", "-c", f'"$@" {fd}{_BROKEN[how]}', "sh", *command]
    try:
        done = subprocess.run(command, **streams, encoding="utf-8", env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == status
    if stream == "stdout":  # the message of a stream closed at start, or nothing
        assert done.stderr == ("" if how == "pipe" else "clir: standard output is closed\n")
    else:  # run lines of a command that succeeds, and nothing else
        assert bool(done.stdout) == (status == 0)
        assert all(re.fullmatch(r"q\d Q0 \S+ \d+ \S+ mts", line)
                   for line in done.stdout.splitlines())
    assert "Traceback" not in (done.stderr or "")
    if case == "index" and how == "pipe":  # written whole before the summary line failed
        assert [p.name for p in out.iterdir()] == ["ja.idx"]
        assert (out / "ja.idx").read_bytes() == ws.index.read_bytes()
    else:  # no output file, and no temporary file left behind
        assert list(out.iterdir()) == []


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


def test_a_tag_that_would_split_run_lines_is_a_usage_error(ws, tmp_path, capsys):
    # the index does not exist: the tag is refused before any file is read
    out = tmp_path / "run.txt"
    absent = str(tmp_path / "absent.idx")
    assert main(["search", "--index", absent, "--query-file", str(ws.queries),
                 "--tag", "my run", "--out", str(out)]) == 1
    assert "'my run'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tag = my\trun\n", encoding="utf-8")
    assert main(["search2", "--index", absent, "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--config", str(cfg),
                 "--doc-channel", "ht", "--out", str(out)]) == 1
    assert not out.exists()


def test_an_id_with_whitespace_fails_the_run_before_writing_it(ws, tmp_path, capsys):
    def write_corpus(path, first_id):
        _write_jsonl(path, [{"id": d, "lang": "en", "title": "", "keywords": [], "abstract": text}
                            for d, text in ((first_id, "library search"), ("d2", "network"))])

    # a doc id no run file can hold is refused where it is read, by file and line
    bad_corpus, index = tmp_path / "bad.jsonl", tmp_path / "en.idx"
    write_corpus(bad_corpus, "d 1")
    assert main(["index", "--corpus", str(bad_corpus), "--lang", "en", "--out", str(index)]) == 2
    assert f"'d 1' at {bad_corpus}:1" in capsys.readouterr().err
    assert not index.exists()
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, "d1")
    assert main(["index", "--corpus", str(corpus), "--lang", "en", "--out", str(index)]) == 0
    bad_index = tmp_path / "bad.idx"
    bad_index.write_text(index.read_text(encoding="utf-8").replace('"d1"', '"d 1"'),
                         encoding="utf-8")
    queries = tmp_path / "queries.jsonl"
    out = tmp_path / "run.txt"
    # "#1" holds no whitespace, but read_run would skip its lines as comments
    for query_id, idx in (("q1", bad_index), ("q 1", index), ("#1", index)):
        _write_jsonl(queries, [{"id": query_id, "lang": "en", "description": "library"}])
        for args in (["search"], ["search2", "--corpus", str(corpus), "--doc-channel", "ht"]):
            assert main(args + ["--index", str(idx), "--query-file", str(queries),
                                "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"'{query_id}'" in err if query_id != "q1" else f"{bad_index}: doc id" in err
            assert not out.exists()


def test_an_unwritable_query_id_is_refused_before_any_query_runs(ws, tmp_path, capsys,
                                                                monkeypatch):
    calls = []

    class CountingTable(TableAdapter):
        def translate(self, text, src, tgt):
            calls.append(text)
            return super().translate(text, src, tgt)

    monkeypatch.setattr("clir.cli.TableAdapter", CountingTable)
    queries = tmp_path / "queries.jsonl"
    # the valid query comes first: refusing at the bad one would be too late
    _write_jsonl(queries, [{"id": "q1", "lang": "en", "description": "library search"},
                           {"id": "#1", "lang": "en", "description": "computer network"}])
    out = tmp_path / "run.txt"
    for args in (["search"], ["search2", "--corpus", str(ws.corpus)]):
        assert main(args + ["--index", str(ws.index), "--query-file", str(queries),
                            "--method", "mts", "--mock-table", str(ws.table),
                            "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(queries) in err and "'#1'" in err
        assert calls == []
        assert not out.exists()


def test_search_depth_is_checked_before_any_file_is_read(ws, tmp_path, capsys):
    # the index does not exist: the depth is refused first
    args = ["search", "--index", str(tmp_path / "absent.idx"), "--query-file", str(ws.queries),
            "--out", str(tmp_path / "run.txt")]
    assert main(args + ["--n", "0"]) == 1
    assert "n_intermediate" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 0\n", encoding="utf-8")
    assert main(args + ["--config", str(cfg)]) == 1
    assert "n_intermediate" in capsys.readouterr().err
    assert not (tmp_path / "run.txt").exists()


def test_adapter_flags_are_mutually_exclusive(ws):
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--adapter-cmd", "x", "--mock-table", str(ws.table)]) == 1


def test_method_prerequisites_enforced(ws):
    args = ["search", "--index", str(ws.index), "--query-file", str(ws.queries)]
    assert main(args + ["--method", "mts"]) == 1  # no adapter
    assert main(args + ["--method", "pbt"]) == 1  # no dictionary
    assert main(args + ["--method", "mpbt", "--mock-table", str(ws.table)]) == 1


@pytest.mark.parametrize("method, extra, missing", [
    ("mts", [], "translator adapter"),
    ("mtp", [], "translator adapter"),
    ("pbt", [], "bilingual dictionary"),
    ("mpbt", ["--mock-table", "{table}"], "bilingual dictionary"),
    ("mpbt", ["--dict", "{dictionary}"], "translator adapter"),
])
def test_a_method_missing_its_prerequisite_is_named_as_the_flag_value(
        ws, capsys, method, extra, missing):
    extra = [flag.format(table=ws.table, dictionary=ws.dictionary) for flag in extra]
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", method, *extra]) == 1
    assert f"method {method!r} needs a {missing}" in capsys.readouterr().err


def test_a_dictionary_given_is_read_whatever_the_method(ws, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "dict.tsv")
    for method in ([], ["--method", "mts"]):
        assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                     "--mock-table", str(ws.table), *method, "--dict", missing]) == 2
        out, err = capsys.readouterr()
        assert not out and missing in err


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
    assert run.rankings["q1"].doc_ids[0] == "j1"
    assert run.rankings["q2"].doc_ids


def test_search_without_method_is_plain_monolingual(ws, tmp_path):
    en_index = tmp_path / "en.idx"
    assert main(["index", "--corpus", str(ws.corpus), "--lang", "en",
                 "--out", str(en_index)]) == 0
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(en_index), "--query-file", str(ws.queries),
                 "--out", str(out)]) == 0
    run = read_run(out)
    assert run.tag == "plain"
    assert run.rankings["q1"].doc_ids[0] == "e1"


def test_search_respects_depth_flag(ws, tmp_path):
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", "mts", "--mock-table", str(ws.table),
                 "--n", "1", "--out", str(out)]) == 0
    run = read_run(out)
    assert all(len(r.doc_ids) == 1 for r in run.rankings.values())


def test_dictionary_translation_into_a_bigram_index_retrieves(tmp_path):
    # the candidate としょかん is analysed into the index's bigrams; taken as
    # one whole-word term, it would match no indexed term
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [{"id": did, "lang": "ja", "title": "", "keywords": [], "abstract": text}
                          for did, text in (("j1", "としょかんのけんさく"), ("j2", "けいさんき"),
                                            ("j3", "ねっとわーく"))])
    index = tmp_path / "ja.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--tokenizer", "bigram",
                 "--out", str(index)]) == 0
    queries = tmp_path / "queries.jsonl"
    _write_jsonl(queries, [{"id": "q1", "lang": "en", "description": "library"}])
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("library\tとしょかん\n", encoding="utf-8")
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(index), "--query-file", str(queries),
                 "--method", "pbt", "--dict", str(dictionary), "--out", str(out)]) == 0
    assert read_run(out).rankings["q1"].doc_ids == ["j1"]


def test_a_dictionary_word_that_analyses_to_nothing_is_logged_untranslated(tmp_path, caplog):
    # toshokan is an index stopword, so the query "library" loses its one word
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [{"id": did, "lang": "ja", "title": "", "keywords": [], "abstract": text}
                          for did, text in (("j1", "toshokan kensaku"), ("j2", "keisanki"))])
    stopwords = tmp_path / "stop.txt"
    stopwords.write_text("toshokan\n", encoding="utf-8")
    index = tmp_path / "ja.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--stopwords", str(stopwords),
                 "--out", str(index)]) == 0
    queries = tmp_path / "queries.jsonl"
    _write_jsonl(queries, [{"id": "q1", "lang": "en", "description": "library"}])
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("library\ttoshokan\n", encoding="utf-8")
    out = tmp_path / "run.txt"
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        assert main(["search", "--index", str(index), "--query-file", str(queries),
                     "--method", "pbt", "--dict", str(dictionary), "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records] == ["query q1: untranslated terms ['library']"]
    assert out.read_text(encoding="utf-8") == ""


def test_a_translated_query_that_matches_no_document_is_logged(tmp_path, caplog):
    # without --method the English query reaches the Japanese index as it is
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [{"id": did, "lang": "ja", "title": "", "keywords": [], "abstract": text}
                          for did, text in (("j1", "toshokan kensaku"), ("j2", "keisanki"))])
    index = tmp_path / "ja.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "ja", "--out", str(index)]) == 0
    queries = tmp_path / "queries.jsonl"
    _write_jsonl(queries, [{"id": "q1", "lang": "en", "description": "library search"}])
    out = tmp_path / "run.txt"
    with caplog.at_level(logging.WARNING):
        assert main(["search", "--index", str(index), "--query-file", str(queries),
                     "--out", str(out)]) == 0
    assert [r.getMessage() for r in caplog.records] == [
        "query q1: no document matches its translated terms"]
    assert out.read_text(encoding="utf-8") == ""


def test_search2_run_and_timing(ws, tmp_path, capsys):
    out = tmp_path / "run.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "mts",
                 "--mock-table", str(ws.table), "--n", "3", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "timing q1 translation_s=" in err
    timings = [line.split()[1] for line in err.splitlines() if line.startswith("timing ")]
    assert timings == ["q1", "q2"]  # one line per query, in query-file order
    run = read_run(out)
    assert run.tag == "mts+mt"
    assert run.rankings["q1"].doc_ids[0] == "j1"


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
    assert "j3" in run.rankings["q1"].doc_ids


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
    assert "j3" in read_run(out).rankings["q2"].doc_ids
    assert main(["sweep", "--index", str(ws.index), "--corpus", str(corpus),
                 "--query-file", str(ws.queries), "--qrels", str(ws.qrels),
                 "--ns", "2,5", "--method", "mts", "--mock-table", str(ws.table)]) == 0


def test_every_query_verb_logs_untranslated_query_terms_once_per_query(ws, tmp_path, caplog):
    # "network" is missing from the dictionary: q2 keeps it untranslated, q1 resolves fully
    dictionary = tmp_path / "dict.tsv"
    dictionary.write_text("".join(f"{en}\t{ja}\n" for en, ja in WORDS.items()
                                  if en != "network"), encoding="utf-8")
    base = ["--index", str(ws.index), "--query-file", str(ws.queries), "--method", "pbt",
            "--dict", str(dictionary), "--out", str(tmp_path / "out.txt")]
    second = ["--corpus", str(ws.corpus), "--doc-channel", "ht"]
    for argv in (["search"], ["search2", *second],
                 ["sweep", *second, "--qrels", str(ws.qrels), "--ns", "1,3"]):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
            assert main(argv + base) == 0
        messages = [r.getMessage() for r in caplog.records if "untranslated terms" in r.getMessage()]
        assert messages == ["query q2: untranslated terms ['network']"], argv[0]


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
    # under tail "keep" each re-ranked line keeps its comment, and the tail's
    # lines follow without one
    keep = ["--tail", "keep", "--depth", "6"]
    assert main(base + keep + ["--out", str(plain)]) == 0
    assert main(base + keep + ["--verbose", "--out", str(wordy)]) == 0
    lines = wordy.read_text(encoding="utf-8").splitlines()
    assert "".join(l + "\n" for l in lines if not l.startswith("#")) == plain.read_text(
        encoding="utf-8")
    assert sum(l.startswith("#") for l in lines) == len(comments)
    assert len(lines) > 2 * len(comments)
    for comment, line in zip(lines, lines[1:]):
        if comment.startswith("#"):
            assert comment.split()[1:3] == line.split()[0:3:2]


def test_search2_output_is_byte_identical_across_runs(ws, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    base = ["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
            "--query-file", str(ws.queries), "--method", "mts",
            "--mock-table", str(ws.table), "--n", "4"]
    assert main(base + ["--out", str(a)]) == 0
    assert main(base + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------ output files


def _verb_args(ws, verb):
    """A command of ``verb`` over the workspace, without its --out."""
    query = ["--index", str(ws.index), "--query-file", str(ws.queries), "--method", "mts",
             "--mock-table", str(ws.table)]
    return {
        "index": ["index", "--corpus", str(ws.corpus), "--lang", "ja"],
        "search": ["search", *query],
        "search2": ["search2", *query, "--corpus", str(ws.corpus), "--n", "3", "--verbose"],
        "sweep": ["sweep", *query, "--corpus", str(ws.corpus), "--qrels", str(ws.qrels),
                  "--ns", "1,3"],
        "eval": ["eval", "--run", str(ws.root / "eval-input.run"), "--qrels", str(ws.qrels)],
    }[verb]


OUTPUT_VERBS = ["index", "search", "search2", "sweep", "eval"]


@pytest.fixture(scope="module")
def outputs(ws):
    """What each verb writes to its --out, after writing the run ``eval`` reads."""
    assert main(_verb_args(ws, "search") + ["--out", str(ws.root / "eval-input.run")]) == 0
    written = {}
    for verb in OUTPUT_VERBS:
        out = ws.root / f"output.{verb}"
        assert main(_verb_args(ws, verb) + ["--out", str(out)]) == 0
        written[verb] = out.read_bytes()
    return written


class _FailingFile:
    """A file opened for writing that raises ``error`` once ``budget`` bytes
    have gone through it, after writing them."""

    def __init__(self, fh, budget, error):
        self._fh, self._budget, self._error = fh, budget, error

    def write(self, data):
        if len(data) > self._budget:
            self._fh.write(data[:self._budget])
            self._budget = 0
            raise self._error
        self._budget -= len(data)
        return self._fh.write(data)

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self._fh.__exit__(*exc_info)


def _fail_writes_after(monkeypatch, budget, error):
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return _FailingFile(fh, budget, error) if set(mode) & set("wax+") else fh

    monkeypatch.setattr(builtins, "open", failing_open)


@pytest.mark.parametrize("verb, flags, unknown", [
    ("index", ["-v"], "-v"),
    ("search", ["--verbose"], "--verbose"),
    ("eval", ["-v"], "-v"),
    ("sweep", ["-v"], "-v"),
    ("sweep", ["--ns", "10,20", "--n", "5"], "--n 5"),  # not --ns 5 by abbreviation
    ("search2", ["--tail", "keep", "--dep", "50"], "--dep 50"),  # nor --dep as --depth
])
def test_a_flag_the_verb_does_not_take_is_a_usage_error_that_writes_nothing(
        ws, outputs, tmp_path, capsys, verb, flags, unknown):
    out = tmp_path / "out"
    assert main(_verb_args(ws, verb) + flags + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert f"clir: error: unrecognized arguments: {unknown}\n" in captured.err
    assert not captured.out and not out.exists()


@pytest.mark.parametrize("verb", OUTPUT_VERBS)
@pytest.mark.parametrize("budget", [0, 40])
def test_a_write_that_fails_leaves_the_previous_file_and_exits_two(ws, outputs, tmp_path,
                                                                  capsys, monkeypatch, verb,
                                                                  budget):
    out = tmp_path / "out"
    out.write_bytes(b"the previous file\n")
    _fail_writes_after(monkeypatch, budget, OSError(28, "No space left on device"))
    assert main(_verb_args(ws, verb) + ["--out", str(out)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == b"the previous file\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("verb", OUTPUT_VERBS)
def test_an_interrupted_write_propagates_and_leaves_the_previous_file(ws, outputs, tmp_path,
                                                                     monkeypatch, verb):
    out = tmp_path / "out"
    out.write_bytes(b"the previous file\n")
    _fail_writes_after(monkeypatch, 40, KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        main(_verb_args(ws, verb) + ["--out", str(out)])
    assert out.read_bytes() == b"the previous file\n"
    assert os.listdir(tmp_path) == ["out"]


def _seconds_masked(data):
    """An output with the sweep's three seconds columns masked: they are
    wall-clock times, which differ from one run to the next."""
    return re.sub(rb"(?m)(\s+\d+\.\d{3}){3}$", b" <s>", data)


@pytest.mark.parametrize("verb", OUTPUT_VERBS)
def test_an_output_file_keeps_its_mode_and_its_link(ws, outputs, tmp_path, verb):
    # the output goes to /dev/null, a file that is not regular, in place
    assert main(_verb_args(ws, verb) + ["--out", os.devnull]) == 0
    out = tmp_path / "private"
    out.write_bytes(b"old")
    out.chmod(0o600)
    assert main(_verb_args(ws, verb) + ["--out", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o600
    want = _seconds_masked(outputs[verb])
    assert _seconds_masked(out.read_bytes()) == want
    link = tmp_path / "link"
    link.symlink_to(out)
    out.write_bytes(b"old")
    assert main(_verb_args(ws, verb) + ["--out", str(link)]) == 0
    assert link.is_symlink() and _seconds_masked(out.read_bytes()) == want
    assert sorted(os.listdir(tmp_path)) == ["link", "private"]


def test_search_writes_each_query_s_lines_before_the_next_query_runs(ws, outputs, tmp_path,
                                                                     capsys, monkeypatch):
    whole = outputs["search2"].decode("utf-8")
    first = "".join(line for line in whole.splitlines(keepends=True)
                    if line.split()[:2] in (["q1", "Q0"], ["#", "q1"]))
    assert first and whole.startswith(first) and whole != first
    real = evaluation.run_first_stage
    stdout, stderr, seen = [], [], {}

    def run_first_stage(query, *args, **kwargs):
        # what has reached stdout, and what the writer's temporary file holds
        captured = capsys.readouterr()
        stdout.append(captured.out)
        stderr.append(captured.err)
        temporary = [p.read_text(encoding="utf-8") for p in tmp_path.iterdir()]
        seen[query.query_id] = "".join(stdout), "".join(stderr), temporary
        return real(query, *args, **kwargs)

    monkeypatch.setattr(evaluation, "run_first_stage", run_first_stage)
    assert main(_verb_args(ws, "search2")) == 0
    assert seen["q1"] == ("", "", [])
    assert seen["q2"][0] == first
    assert "timing q1 " in seen["q2"][1] and "timing q2 " not in seen["q2"][1]
    assert "".join(stdout) + capsys.readouterr().out == whole
    seen.clear()
    assert main(_verb_args(ws, "search2") + ["--out", str(tmp_path / "run.txt")]) == 0
    assert seen["q1"][2] == [""] and seen["q2"][2] == [first]
    assert (tmp_path / "run.txt").read_text(encoding="utf-8") == whole


def test_a_query_that_fails_leaves_the_earlier_queries_on_stdout(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_jsonl(corpus, [{"id": d, "lang": "en", "title": "", "keywords": [], "abstract": text}
                          for d, text in (("d1", "library search"), ("d2", "network"))])
    index = tmp_path / "en.idx"
    assert main(["index", "--corpus", str(corpus), "--lang", "en", "--out", str(index)]) == 0
    queries = tmp_path / "queries.jsonl"
    # the translator refuses the second query's text
    script = tmp_path / "mt.py"
    script.write_text("import sys\n"
                      "text = sys.stdin.read()\n"
                      "sys.exit(3) if 'library' in text else print(text)\n", encoding="utf-8")
    _write_jsonl(queries, [{"id": "q1", "lang": "en", "description": "network"},
                           {"id": "q2", "lang": "en", "description": "library"}])
    capsys.readouterr()
    assert main(["search", "--index", str(index), "--query-file", str(queries), "--method", "mts",
                 "--adapter-cmd", shlex.join([sys.executable, str(script)])]) == 2
    captured = capsys.readouterr()
    assert captured.out.startswith("q1 Q0 d2 1 ") and "q2" not in captured.out
    assert "exited 3 on input 'library'" in captured.err


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
    assert all(len(r.doc_ids) == 1 for r in run.rankings.values())


def test_command_line_overrides_config(ws, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = 1\nmethod = mts\nmock-table = {ws.table}\n", encoding="utf-8")
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg), "--n", "3", "--out", str(out)]) == 0
    run = read_run(out)
    assert any(len(r.doc_ids) > 1 for r in run.rankings.values())


def test_config_rejects_unknown_keys_and_bad_values(ws, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnication = 7\n", encoding="utf-8")
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg)]) == 2
    assert "unknown configuration key" in capsys.readouterr().err

    cfg.write_text("n = plenty\n", encoding="utf-8")
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg)]) == 2


def test_a_repeated_config_key_is_a_data_error(ws, tmp_path, capsys):
    # were only each key's last value read, this file would run
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n = plenty\nn = 3\nmethod = bogus\nmethod = mts\nmock-table = {ws.table}\n",
                   encoding="utf-8")
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"clir: {cfg}:2: configuration key 'n' repeated; first set on line 1\n")
    assert not out.exists()


def test_a_repeated_mock_table_source_is_a_data_error(ws, tmp_path, capsys):
    # were only the last translation kept, "library" would read as "deta"
    table = tmp_path / "table.tsv"
    table.write_text("library\ttoshokan\nsearch\tkensaku\nlibrary\tdeta\n", encoding="utf-8")
    out = tmp_path / "run.txt"
    assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                 "--method", "mts", "--mock-table", str(table), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"clir: {table}:3: source 'library' repeated; first given on line 1\n")
    assert not out.exists()


@pytest.mark.parametrize("verb, line, flags, status", [
    ("search", "n = plenty", ["--n", "3"], 2),
    ("search2", "n = plenty", ["--n", "3"], 2),
    ("search", "method = bogus", ["--method", "mts"], 1),
    ("sweep", "method = bogus", ["--method", "mts"], 1),
    ("search", "doc-channel = x", [], 1),
    ("search", "tail = x", [], 1),
])
def test_the_whole_config_file_is_checked_whatever_the_command_line_and_verb(
        ws, tmp_path, capsys, verb, line, flags, status):
    # no data file exists: the file is refused before any is read
    absent = str(tmp_path / "absent")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"alpha = 2\n{line}\n", encoding="utf-8")
    args = {"search": ["search"], "search2": ["search2", "--corpus", absent],
            "sweep": ["sweep", "--corpus", absent, "--qrels", absent, "--ns", "1"]}[verb]
    assert main(args + ["--index", absent, "--query-file", absent, *flags,
                        "--config", str(cfg)]) == status
    err = capsys.readouterr().err
    assert f"configuration key {line.split()[0]!r}" in err and absent not in err


def test_a_config_file_shared_with_search2_leaves_search_alone(ws, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("doc-channel = ht\nalpha = 2\ntail = keep\n", encoding="utf-8")
    runs = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / f"run{len(runs)}.txt"
        assert main(["search", "--index", str(ws.index), "--query-file", str(ws.queries),
                     "--method", "mts", "--mock-table", str(ws.table), *extra,
                     "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


_MTS = ["--method", "mts", "--mock-table", "{table}"]
# each setting of the table: a value other than its default, and the flags
# that make a run with it valid
_SETTING_CASES = {
    "n": ("3", _MTS),
    "method": ("mtp", ["--mock-table", "{table}"]),
    "adapter-cmd": ("{adapter_cmd}", ["--method", "mtp"]),
    "mock-table": ("{table}", ["--method", "mts"]),
    "dict": ("{dictionary}", ["--method", "pbt", "--doc-channel", "ht"]),
    "tag": ("mine", _MTS),
    "doc-channel": ("ht", _MTS),
    "alpha": ("2", _MTS),
    "beta": ("0.5", _MTS),
    "epsilon": ("0.5", _MTS),
    "tail": ("keep", _MTS + ["--n", "2", "--depth", "4"]),
    "depth": ("4", _MTS + ["--n", "2", "--tail", "keep"]),
}


@pytest.fixture
def recorded(monkeypatch):
    """Every PipelineConfig the CLI builds, in order."""
    configs = []

    def record(*args, **kwargs):
        configs.append(PipelineConfig(*args, **kwargs))
        return configs[-1]

    monkeypatch.setattr("clir.cli.PipelineConfig", record)
    return configs


def _settings_of(cfg):
    method = cfg.translation_method
    return (method.kind, type(method.adapter), getattr(method.adapter, "__dict__", None),
            method.dictionary is not None, cfg.n_intermediate, cfg.output_depth,
            cfg.doc_channel, cfg.tail_policy, cfg.combine,
            cfg.resolve_doc_adapter() is method.adapter)


@pytest.mark.parametrize("key", list(SETTINGS))
def test_a_setting_from_the_config_file_equals_the_same_flag(ws, tmp_path, recorded, key):
    script = tmp_path / "mt.py"
    script.write_text(
        "import sys\n"
        f"table = {({**WORDS, **JA_TO_EN})!r}\n"
        "print(' '.join(table.get(w, w) for w in sys.stdin.read().split()))\n",
        encoding="utf-8",
    )
    paths = {"table": ws.table, "dictionary": ws.dictionary,
             "adapter_cmd": shlex.join([sys.executable, "-S", str(script)])}
    value, flags = _SETTING_CASES[key]
    value = value.format(**paths)
    flags = [flag.format(**paths) for flag in flags]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
    runs = []
    for setting in ([f"--{key}", value], ["--config", str(cfg)]):
        out = tmp_path / f"run{len(runs)}.txt"
        assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                     "--query-file", str(ws.queries), *flags, *setting,
                     "--out", str(out)]) == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    assert len(recorded) == 2
    assert _settings_of(recorded[0]) == _settings_of(recorded[1])


def test_unset_settings_take_the_library_defaults(ws, tmp_path, recorded):
    absent = str(tmp_path / "absent")
    for args in (["search"], ["search2", "--corpus", absent]):
        assert main(args + ["--index", absent, "--query-file", absent]) == 2
    search, search2 = recorded
    defaults = {f.name: f.default for f in dataclasses.fields(PipelineConfig)
                if f.init and f.default is not dataclasses.MISSING}
    assert {name: getattr(search2, name) for name in defaults} == defaults
    assert {name: getattr(search, name) for name in defaults} == {**defaults, "doc_channel": "ht"}
    assert search.combine == search2.combine == CombineParams()
    assert search.n_intermediate == search2.n_intermediate == 1000


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
        assert all(math.isfinite(score) for r in run.rankings.values()
                   for score in r.scores)


def test_inputs_are_not_modified(ws, tmp_path):
    before = {p: p.read_bytes() for p in (ws.corpus, ws.queries, ws.qrels, ws.table)}
    out = tmp_path / "run.txt"
    assert main(["search2", "--index", str(ws.index), "--corpus", str(ws.corpus),
                 "--query-file", str(ws.queries), "--method", "mts",
                 "--mock-table", str(ws.table), "--out", str(out)]) == 0
    for p, data in before.items():
        assert p.read_bytes() == data
