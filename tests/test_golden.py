"""Golden outputs: the index file, run files and sweep table that ``clir``
writes for a fixed synthetic collection with the mock translator, pinned by
SHA-256.

Any change to scoring, tie-breaking, re-ranking or run formatting that moves
a single byte fails here. The sweep's timing columns vary from run to run and
are masked before hashing; its system, depth and MAP columns are pinned.
"""

import hashlib
import json
import re

import pytest

import synth
from clir.cli import main

GOLDEN = {
    "search": "22b92585e5a297aa5e4fdccb038fb8d3ab3afd047b1b651d51dcaf8ec08dc7e7",
    "search2-verbose": "08cecacc6d4feff467963940f37d37096e646be7745d640bb56a1b40b12c7ae6",
    "search2-tail-keep": "3ca1aefd1239219e759a120c90e704662e9179876caf447f83e4813fd63d7aea",
    "sweep": "681fbab961af40b89473cb7386849f437add5ccb798a29b708726c5e7b5b39cf",
    "sweep-stage1": "74290f50a8f814a22dafe63b1b828da2786e0a1c869508211b3b8fb6506e63a3",
    "sweep-tail-keep": "ffdf5971171b7a5a739b16959df82def911ee1df941d185a6144a073a080712d",
}

# the index that `clir index` writes for the collection below
INDEX_SHA256 = "134e403370a8af913747ebf1fd5bf5aaa17bb065500e3959b41835cfbfb38764"

# query-side entries of the mock table; the document side is synth's
# back-translation table. Odd topics take the misleading candidate.
_QUERY_TABLE = {
    **{f"sa{k}": (f"c{k}" if k % 2 else f"a{k}") for k in range(synth.NUM_QUERIES)},
    **{f"sb{k}": f"b{k}" for k in range(synth.NUM_QUERIES)},
    **{f"sf{i:02d}": f"f{i:02d}" for i in range(60)},
}


def _description(k):
    # the topic's two words and filler words, one of them twice, so both
    # stages score many documents with varied tf and df
    return f"sa{k} sb{k} sf{7 * k % 60:02d} sf{(7 * k + 3) % 60:02d} sf{(7 * k + 3) % 60:02d}"


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    setup = synth.build_ambiguity_setup()
    docs = [
        {"id": d.doc_id, "lang": d.lang, "title": d.title, "keywords": d.keywords,
         "abstract": d.abstract, "pair_id": d.pair_id}
        for d in setup.corpus
    ]
    # an empty document counts toward N but never scores
    docs.append({"id": "t99e", "lang": "ja", "title": "", "keywords": [], "abstract": ""})
    paths = {name: root / name for name in
             ("corpus.jsonl", "queries.jsonl", "qrels.txt", "dict.tsv", "table.tsv", "ja.idx")}
    _write_jsonl(paths["corpus.jsonl"], docs)
    _write_jsonl(paths["queries.jsonl"], [
        {"id": q.query_id, "lang": q.lang, "description": _description(k)}
        for k, q in enumerate(setup.queries)
    ])
    paths["qrels.txt"].write_text("".join(
        f"{q} 0 {d} {g}\n" for q, judged in setup.qrels.grades.items() for d, g in judged.items()
    ), encoding="utf-8")
    paths["dict.tsv"].write_text("".join(
        f"{' '.join(src)}\t{'|'.join(cands)}\n" for src, cands in setup.dictionary.entries.items()
    ), encoding="utf-8")
    table = {**setup.mt_back_table.table, **_QUERY_TABLE}
    paths["table.tsv"].write_text(
        "".join(f"{src}\t{tgt}\n" for src, tgt in table.items()), encoding="utf-8")
    assert main(["index", "--corpus", str(paths["corpus.jsonl"]), "--lang", "ja",
                 "--out", str(paths["ja.idx"])]) == 0
    return {name.split(".")[0]: str(path) for name, path in paths.items()}


def test_index_file_and_message_match_recorded(files, tmp_path, capsys):
    out = tmp_path / "ja.idx"
    assert main(["index", "--corpus", files["corpus"], "--lang", "ja", "--out", str(out)]) == 0
    assert capsys.readouterr().err == f"indexed 101 documents, 88 terms -> {out}\n"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == INDEX_SHA256


def _output(args, tmp_path):
    out = tmp_path / "out.txt"
    assert main([*args, "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _commands(f):
    query = ["--index", f["ja"], "--query-file", f["queries"],
             "--dict", f["dict"], "--mock-table", f["table"]]
    return {
        "search": ["search", *query, "--method", "mpbt", "--n", "60"],
        "search2-verbose": ["search2", *query, "--corpus", f["corpus"],
                            "--method", "mtp", "--n", "25", "--verbose"],
        "search2-tail-keep": ["search2", *query, "--corpus", f["corpus"],
                              "--method", "mpbt", "--n", "15", "--tail", "keep",
                              "--depth", "50", "--beta", "2"],
        "sweep": ["sweep", *query, "--corpus", f["corpus"], "--qrels", f["qrels"],
                  "--method", "mpbt", "--ns", "5,10,20,101"],
        "sweep-stage1": ["sweep", *query, "--corpus", f["corpus"], "--qrels", f["qrels"],
                         "--method", "mpbt", "--stage", "1", "--ns", "3,10,40,101"],
        "sweep-tail-keep": ["sweep", *query, "--corpus", f["corpus"], "--qrels", f["qrels"],
                            "--method", "mtp", "--tail", "keep", "--depth", "60",
                            "--beta", "2", "--ns", "5,15,30"],
    }


def _masked_sweep(text):
    # the last three columns of both the table and the machine lines are seconds
    return re.sub(r"(?m)(\s+\d+\.\d{3}){3}$", " <s>", text)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_recorded_hashes(files, tmp_path, name):
    text = _output(_commands(files)[name], tmp_path)
    if name.startswith("sweep"):
        text = _masked_sweep(text)
    assert text.strip()
    assert _sha256(text) == GOLDEN[name]
