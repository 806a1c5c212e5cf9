"""Files: the one reader, the one writer, and every file argument of every
verb facing undecodable, unparsable or mutated bytes."""

import json
import os
import re
import stat
import threading
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from clir.cli import main
from clir.errors import ParseError
from clir.files import read_json, read_json_lines, read_lines, replacing

BOM = b"\xef\xbb\xbf"
DEEP_ARRAY = b"[" * 200_000
DEEP_OBJECT = b'{"a":' * 100_000

# ---------------------------------------------------------------- the reader


def test_read_lines_skips_blank_lines_and_strips_line_ends(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(BOM + b"a\r\n\n \t\nb\rc \n" + BOM + b"d")
    # only a leading byte-order mark is dropped; line numbers count blank lines
    assert list(read_lines(path)) == [(1, "a"), (4, "b"), (5, "c "), (6, "\ufeffd")]


def test_an_undecodable_byte_names_the_file_and_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"ok\n\nbad \xff here\nnever read \xfe\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: byte 0xff is not UTF-8")):
        list(read_lines(path))


def test_read_json_maps_every_failure_to_a_parse_error(tmp_path):
    path = tmp_path / "f.json"
    cases = [
        (DEEP_ARRAY, ":1: bad JSON: maximum recursion depth"),
        (DEEP_OBJECT, ":1: bad JSON: maximum recursion depth"),
        (b'{"a":\n\n  1,}', ":3: bad JSON: Expecting property name"),
        (b"9" * 5000, ":1: bad JSON: Exceeds the limit"),
        (b"", ": bad JSON: Expecting value"),
        (b"{} []", ":1: bad JSON: Extra data"),
    ]
    for data, message in cases:
        path.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            read_json(path)
    path.write_bytes(BOM + b'{\r\n"a":\r\n\r\n[1]}')
    assert read_json(path) == {"a": [1]}


def test_read_json_lines_wants_one_object_per_line(tmp_path):
    path = tmp_path / "f.jsonl"
    path.write_bytes(b'{"a": 1}\n\n{"b": NaN}\n')
    records = list(read_json_lines(path))
    assert [line_no for line_no, _ in records] == [1, 3]
    for data, message in ((b"{}\n[]\n", ":2: record is not an object"),
                          (b'{}\n{"a": 1\n', ":2: bad JSON"),
                          (b"{}\n" + DEEP_ARRAY, ":2: bad JSON")):
        path.write_bytes(data)
        with pytest.raises(ParseError, match=re.escape(f"{path}{message}")):
            list(read_json_lines(path))


# ---------------------------------------------------------------- the writer


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def test_the_writer_replaces_a_file_only_when_the_block_completes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with replacing(path) as fh:
        fh.write("new ")
        # the target is untouched until the block ends
        assert path.read_text(encoding="utf-8") == "old\n"
        fh.write("データ\n")
    assert path.read_bytes() == "new データ\n".encode("utf-8")
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_a_failed_block_leaves_the_file_and_no_temporary_file(tmp_path, error):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(type(error)):
        with replacing(path) as fh:
            fh.write("partial" * 10_000)
            raise error
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]
    # a path that did not exist still does not
    with pytest.raises(type(error)):
        with replacing(tmp_path / "new.txt") as fh:
            raise error
    assert os.listdir(tmp_path) == ["out.txt"]


def test_the_written_file_is_synced_before_it_replaces_the_target(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    synced = []
    real_fsync = os.fsync

    def fsync(fd):
        synced.append((os.fstat(fd).st_ino, path.read_text(encoding="utf-8")))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    with replacing(path) as fh:
        fh.write("run\n")
    # one sync, of the file that became the target, while the old one stood
    assert synced == [(os.stat(path).st_ino, "old")]


def test_the_writer_keeps_permission_bits_and_gives_a_new_file_those_of_open(tmp_path):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8"):
        pass
    new = tmp_path / "new.txt"
    with replacing(new) as fh:
        fh.write("x")
    assert _mode(new) == _mode(plain)
    for bits in (0o600, 0o640, 0o666):
        path = tmp_path / f"{bits:o}.txt"
        path.write_text("old", encoding="utf-8")
        path.chmod(bits)
        with replacing(path) as fh:
            fh.write("new")
        assert _mode(path) == bits
        assert path.read_text(encoding="utf-8") == "new"


def test_a_symlink_keeps_its_link_and_its_target_gets_the_data(tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "links").mkdir()
    target = tmp_path / "real" / "run.txt"
    target.write_text("old", encoding="utf-8")
    link = tmp_path / "links" / "run.txt"
    link.symlink_to(target)
    with replacing(link) as fh:
        fh.write("new")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_text(encoding="utf-8") == "new"
    assert os.listdir(tmp_path / "real") == ["run.txt"]
    assert os.listdir(tmp_path / "links") == ["run.txt"]
    # a dangling link: its target is created
    target.unlink()
    with replacing(link) as fh:
        fh.write("again")
    assert link.is_symlink() and target.read_text(encoding="utf-8") == "again"


def test_a_path_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    with replacing(os.devnull) as fh:
        fh.write("discarded\n")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
    reader.start()
    with replacing(fifo) as fh:
        fh.write("through the pipe\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]
    # a pipe by its /dev/fd link, as /dev/stdout is when stdout is piped: the
    # link's real path names no file
    read_end, write_end = os.pipe()
    try:
        with replacing(f"/dev/fd/{write_end}") as fh:
            fh.write("down a pipe\n")
        assert os.read(read_end, 100) == b"down a pipe\n"
    finally:
        os.close(read_end)
        os.close(write_end)


# ------------------------------------------------- every file of every verb

JA_TEXTS = {
    "j1": "toshokan kensaku deta",
    "j2": "keisanki netto",
    "j3": "toshokan keisanki netto",
    "j4": "deta kensaku",
}
WORDS = {"library": "toshokan", "search": "kensaku", "computer": "keisanki",
         "network": "netto", "data": "deta"}

# every file argument of every verb; a command reads the files it names
COMMANDS = [
    "index --corpus {corpus} --lang ja --stopwords {stopwords} --out {out}",
    "search --index {index} --query-file {queries} --config {config} --mock-table {table}",
    "search --index {index} --query-file {queries} --method pbt --dict {dictionary}",
    "search2 --index {index} --corpus {corpus} --query-file {queries} --config {config} "
    "--mock-table {table}",
    "search2 --index {index} --corpus {corpus} --query-file {queries} --method mpbt "
    "--mock-table {table} --dict {dictionary} --tail keep --n 2 --depth 3",
    "eval --run {run} --qrels {qrels} --compare {compare} --sign-test",
    "sweep --index {index} --corpus {corpus} --query-file {queries} --qrels {qrels} "
    "--ns 1,3 --config {config} --mock-table {table}",
    "sweep --index {index} --corpus {corpus} --query-file {queries} --qrels {qrels} "
    "--ns 1,3 --method pbt --dict {dictionary} --doc-channel ht",
]
FILE_ARGS = ["corpus", "stopwords", "index", "queries", "config", "table", "dictionary",
             "qrels", "run", "compare"]
JSON_ARGS = ["corpus", "index", "queries"]


def _commands(arg):
    return [c for c in COMMANDS if "{" + arg + "}" in c]


def test_every_file_argument_is_exercised():
    named = set(re.findall(r"\{(\w+)\}", " ".join(COMMANDS)))
    assert sorted(named - {"out"}) == sorted(FILE_ARGS)


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("files")
    en = {ja: en for en, ja in WORDS.items()}
    docs = []
    for did, text in JA_TEXTS.items():
        eid = "e" + did[1:]
        docs.append({"id": did, "lang": "ja", "title": "", "keywords": ["deta"],
                     "abstract": text, "pair_id": eid})
        docs.append({"id": eid, "lang": "en", "title": "t", "keywords": [],
                     "abstract": " ".join(en[t] for t in text.split()), "pair_id": did})
    queries = [{"id": "q1", "lang": "en", "description": "library search"},
               {"id": "q2", "lang": "en", "description": "computer network"}]
    valid = {
        "corpus": "".join(json.dumps(d) + "\n" for d in docs),
        "queries": "".join(json.dumps(q) + "\n" for q in queries),
        "qrels": "q1 0 j1 2\nq1 0 j4 1\nq1 0 j2 0\nq2 0 j2 2\nq2 0 j3 2\n",
        "table": "".join(f"{e}\t{j}\n{j}\t{e}\n" for e, j in WORDS.items()),
        "dictionary": "".join(f"{e}\t{j}|{j}\n" for e, j in WORDS.items()),
        "config": "# defaults\nn = 3\nmethod = mts\nalpha = 1.5  # a comment\ntag = cfg\n",
        "stopwords": "# none of these occur\nthe\nA\n",
    }
    files = {arg: root / arg for arg in FILE_ARGS}
    files["out"] = root / "out.idx"
    for arg, text in valid.items():
        files[arg].write_text(text, encoding="utf-8")
    assert main(["index", "--corpus", str(files["corpus"]), "--lang", "ja",
                 "--out", str(files["index"])]) == 0
    for arg, method in (("run", "mts"), ("compare", "pbt")):
        assert main(["search", "--index", str(files["index"]),
                     "--query-file", str(files["queries"]), "--method", method,
                     "--mock-table", str(files["table"]), "--dict", str(files["dictionary"]),
                     "--out", str(files[arg])]) == 0
    return SimpleNamespace(root=root, files=files)


def _run(ws, command, arg, data, capsys):
    """Run ``command`` with the file of ``arg`` replaced by ``data``: exit
    status, output (the --out file's, or stdout with sweep timings masked),
    stderr and the replaced file's path."""
    path = ws.root / f"mutated-{arg}"
    path.write_bytes(data)
    out_file = ws.files["out"]
    out_file.unlink(missing_ok=True)
    files = {**ws.files, arg: path}
    capsys.readouterr()
    status = main([token.format(**files) for token in command.split()])
    out, err = capsys.readouterr()
    if out_file.exists():
        out = out_file.read_text(encoding="utf-8")
    return status, re.sub(r"(?m)(\s+\d+\.\d{3}){3}$", " <s>", out), err, str(path)


def _valid(ws, arg):
    return ws.files[arg].read_bytes()


@pytest.mark.parametrize("arg", FILE_ARGS)
def test_the_valid_files_run(ws, arg, capsys):
    for command in _commands(arg):
        status, _, err, _ = _run(ws, command, arg, _valid(ws, arg), capsys)
        assert status == 0, (command, err)


@pytest.mark.parametrize("arg", FILE_ARGS)
def test_a_non_utf8_line_is_named_by_path_and_line(ws, arg, capsys):
    lines = _valid(ws, arg).splitlines(keepends=True)
    bad_line = len(lines)  # the index is one line; the other files have several
    data = b"".join(lines[:-1]) + b"\xff" + lines[-1]
    for command in _commands(arg):
        status, _, err, path = _run(ws, command, arg, data, capsys)
        assert status == 2, (command, err)
        assert f"{path}:{bad_line}: byte 0xff is not UTF-8" in err


@pytest.mark.parametrize("arg", FILE_ARGS)
@pytest.mark.parametrize("nesting", [DEEP_ARRAY, DEEP_OBJECT], ids=["array", "object"])
def test_deep_nesting_exits_two_naming_the_file(ws, arg, nesting, capsys):
    for command in _commands(arg):
        status, _, err, path = _run(ws, command, arg, nesting + b"\n", capsys)
        if arg == "stopwords":
            assert status == 0  # one long, odd stopword
            continue
        assert status == 2, (command, err)
        assert err.startswith(f"clir: {path}:1: ")
        if arg in JSON_ARGS:
            assert "bad JSON: maximum recursion depth" in err


@pytest.mark.parametrize("arg", FILE_ARGS)
def test_a_leading_bom_and_carriage_returns_change_nothing(ws, arg, capsys):
    valid = _valid(ws, arg)
    for command in _commands(arg):
        expected = _run(ws, command, arg, valid, capsys)[:2]
        for data in (BOM + valid, valid.replace(b"\n", b"\r"), valid.replace(b"\n", b"\r\n")):
            assert _run(ws, command, arg, data, capsys)[:2] == expected, command


def test_qrels_saved_with_a_bom_evaluate_like_the_plain_file(ws, capsys):
    command = "eval --run {run} --qrels {qrels}"
    plain = _run(ws, command, "qrels", _valid(ws, "qrels"), capsys)
    with_bom = _run(ws, command, "qrels", BOM + _valid(ws, "qrels"), capsys)
    assert plain[0] == with_bom[0] == 0
    assert plain[1] == with_bom[1]
    assert "map\t0.0000" not in with_bom[1]


def test_a_rejected_run_or_config_names_its_file(ws, capsys):
    run = b"q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.9 t\n"
    status, _, err, path = _run(ws, "eval --run {run} --qrels {qrels}", "run", run, capsys)
    assert status == 2
    assert f"clir: {path}: query 'q1': score increases at rank 2" in err
    for line in (b"frobnication = 7\n", b"n = plenty\n"):
        status, _, err, path = _run(ws, _commands("config")[0], "config", line, capsys)
        assert status == 2
        assert err.startswith(f"clir: {path}: ")


def test_an_out_file_that_cannot_be_created_is_named_as_given(ws, capsys):
    out = ws.root / "missing" / "x.txt"
    capsys.readouterr()
    status = main(["eval", "--run", str(ws.files["run"]), "--qrels", str(ws.files["qrels"]),
                   "--out", str(out)])
    # the path on the command line, not the temporary file beside it
    assert status == 2
    assert capsys.readouterr().err == f"clir: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert not [name for name in os.listdir(ws.root) if name.endswith(".tmp")]


# text that breaks a parser: nesting, a BOM, undecodable and control bytes,
# non-finite and huge numbers, JSON and field separators
SNIPPETS = [DEEP_ARRAY, DEEP_OBJECT, BOM, b"\xff", b"\xc3", b"\r", b"\n", b"\t", b" ", b"|",
            b"#", b"=", b'"', b"\\", b"{}", b"[]", b"null", b"true", b"NaN", b"nan", b"-inf",
            b"Infinity", b"1e999", b"9" * 5000, b"0", b"-1", b"1.5", b'"\\ud800"', b"Q0",
            b"\x00", b"\xe3\x81\x82"]


@st.composite
def _mutants(draw, valid):
    """``valid`` after one to three edits: a snippet inserted, a span or a
    whitespace-separated token replaced, a line duplicated, a BOM
    prepended, or every line end made a bare carriage return."""
    data = valid
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["insert", "span", "token", "duplicate", "bom", "cr"]))
        if edit in ("insert", "span"):
            start = draw(st.integers(0, len(data)))
            end = start if edit == "insert" else draw(st.integers(start, len(data)))
            data = data[:start] + draw(st.sampled_from(SNIPPETS)) + data[end:]
        elif edit == "token":
            parts = re.split(rb"(\s+)", data)
            at = draw(st.integers(0, len(parts) - 1))
            parts[at] = draw(st.sampled_from(SNIPPETS))
            data = b"".join(parts)
        elif edit == "duplicate":
            lines = data.splitlines(keepends=True) or [b""]
            at = draw(st.integers(0, len(lines) - 1))
            data = b"".join(lines[: at + 1] + lines[at:])
        elif edit == "bom":
            data = BOM + data
        else:
            data = data.replace(b"\n", b"\r")
    return data


@pytest.mark.parametrize("arg", FILE_ARGS)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_bytes_in_any_file_argument_exit_zero_or_two(ws, arg, data, capsys):
    command = data.draw(st.sampled_from(_commands(arg)), label="command")
    content = data.draw(st.binary(max_size=300) | _mutants(_valid(ws, arg)), label="content")
    status, _, err, _ = _run(ws, command, arg, content, capsys)
    # a rejected --config value is a usage error, as the flag's would be
    assert status in ((0, 1, 2) if arg == "config" else (0, 2)), err
    if status == 2:
        assert err.splitlines()[-1].startswith("clir: ")
