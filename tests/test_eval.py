"""Evaluation layer: judgments, average precision, run-file interchange,
paired significance tests, and the depth sweep."""

import gc
import itertools
import logging
import math
import random
import weakref
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

import synth
from clir.corpus import AnalyzerConfig, Corpus, Document, Query
from clir.errors import IntegrityError, ParseError, TranslationError
from clir.evaluation import (
    Qrels,
    RunFile,
    SweepSystem,
    average_precision,
    check_level,
    check_run_token,
    evaluate_run,
    format_comparison,
    format_report,
    format_run,
    format_sweep,
    load_qrels,
    mean_ap,
    read_run,
    run_from_ranked,
    run_lines,
    sign_test,
    sweep_n,
    sweep_runs,
    wilcoxon_signed_test,
)
from clir.index import RankedList, RerankedEntry, ScoredDoc, build_index
from clir.pipeline import (
    TAIL_DROP,
    TAIL_KEEP,
    DocumentMemo,
    PipelineConfig,
    TimingRecord,
    run_first_stage,
    run_two_stage,
)
from clir.translate import MT_SENTENCE, TableAdapter, TranslationMethod

EN = AnalyzerConfig(lang="en")
JA = AnalyzerConfig(lang="ja")


# ---------------------------------------------------------------- judgments


def test_load_qrels(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_text(
        "q1 0 d1 2\nq1 0 d2 1\nq1 0 d3 0\n\nq2 0 d1 2\nq1 0 d1 2\n",
        encoding="utf-8",
    )
    qrels = load_qrels(path)
    assert qrels.query_ids() == ["q1", "q2"]
    assert qrels.relevant("q1", strict=True) == {"d1"}
    assert qrels.relevant("q1", strict=False) == {"d1", "d2"}
    assert len(qrels.relevant("q2")) == 1
    assert qrels.relevant("missing") == set()


def test_load_qrels_errors(tmp_path):
    path = tmp_path / "qrels.txt"
    for bad in ("q1 0 d1\n", "q1 0 d1 high\n", "q1 0 d1 3\n"):
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ParseError) as exc_info:
            load_qrels(path)
        assert exc_info.value.line_no == 1

    path.write_text("q1 0 d1 2\nq1 0 d1 0\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=":2:"):
        load_qrels(path)


def test_qrels_add_validates_grade():
    qrels = Qrels()
    with pytest.raises(IntegrityError):
        qrels.add("q1", "d1", 5)


# -------------------------------------------------------- average precision


def test_ap_two_of_three_ranks():
    ap = average_precision(["d1", "junk", "d2"], {"d1", "d2"})
    assert ap == (1 / 1 + 2 / 3) / 2
    assert ap == pytest.approx(0.8333333333333333, abs=1e-15)


def test_ap_perfect_ranking():
    assert average_precision(["a", "b"], {"a", "b"}) == 1.0


def test_ap_single_relevant_at_rank_two():
    assert average_precision(["x", "a"], {"a"}) == 0.5


def test_ap_unretrieved_relevant_costs():
    assert average_precision(["a"], {"a", "b"}) == 0.5


def test_ap_nothing_found_is_zero():
    assert average_precision(["x", "y"], {"a"}) == 0.0
    assert average_precision([], {"a"}) == 0.0


def test_ap_requires_relevant_documents():
    with pytest.raises(ValueError):
        average_precision(["a"], set())


def test_ap_extending_a_ranking_never_hurts():
    rng = random.Random(20240819)
    for _ in range(100):
        docs = [f"d{i}" for i in range(rng.randrange(1, 30))]
        rng.shuffle(docs)
        relevant = set(rng.sample(docs, rng.randrange(1, len(docs) + 1)))
        values = [average_precision(docs[:k], relevant) for k in range(len(docs) + 1)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_ap_ignores_order_below_last_relevant():
    rng = random.Random(12)
    for _ in range(50):
        docs = [f"d{i}" for i in range(12)]
        rng.shuffle(docs)
        relevant = set(rng.sample(docs, 3))
        last = max(i for i, d in enumerate(docs) if d in relevant)
        base = average_precision(docs, relevant)
        tail = docs[last + 1 :]
        rng.shuffle(tail)
        assert average_precision(docs[: last + 1] + tail, relevant) == base


def test_mean_ap():
    assert mean_ap({"q1": 1.0, "q2": 0.5}) == 0.75
    with pytest.raises(ValueError):
        mean_ap({})


def test_mean_ap_sums_left_to_right():
    # a compensated sum of ten 0.1s is exactly 1.0, which would give 0.1
    assert mean_ap({f"q{i}": 0.1 for i in range(10)}) == 0.09999999999999999


# ---------------------------------------------------------------- run files


def _ranked(qid, pairs):
    return RankedList(query_id=qid, entries=[ScoredDoc(d, s) for d, s in pairs])


def test_run_round_trip(tmp_path):
    run = run_from_ranked(
        [
            _ranked("q1", [("d1", 0.875), ("d2", 0.125)]),
            _ranked("q2", [("d9", 1.0 / 3.0)]),
        ],
        tag="sys-a",
    )
    path = tmp_path / "run.txt"
    path.write_text(format_run(run), encoding="utf-8")
    back = read_run(path)
    assert back.tag == "sys-a"
    assert back.rankings == run.rankings  # repr round-trips floats exactly


_SCORES = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@st.composite
def _records(draw):
    """A ranking as records in rank order: a re-ranked head of
    ``RerankedEntry`` records, then a ``ScoredDoc`` tail; either may be empty."""
    doc_ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), unique=True, max_size=8))
    n = len(doc_ids)
    scores = sorted(draw(st.lists(_SCORES, min_size=n, max_size=n)), reverse=True)
    k = draw(st.integers(0, n))
    esims = draw(st.lists(_SCORES, min_size=k, max_size=k))
    jsims = draw(st.lists(_SCORES, min_size=k, max_size=k))
    return [*map(RerankedEntry, doc_ids[:k], esims, jsims, scores[:k]),
            *map(ScoredDoc, doc_ids[k:], scores[k:])]


@given(_records())
def test_a_ranking_reads_the_same_as_records_and_as_columns(entries):
    ranked = RankedList("q", entries)
    assert ranked.entries == entries
    k = len(ranked.esims)
    assert all(isinstance(e, RerankedEntry) for e in entries[:k])
    assert all(isinstance(e, ScoredDoc) for e in entries[k:])
    assert ranked.doc_ids == [e.doc_id for e in entries]
    assert list(ranked.scores) == [e.score for e in entries]
    assert list(ranked.esims) == [e.esim for e in entries[:k]]
    assert list(ranked.jsims) == [e.jsim for e in entries[:k]]
    # one writer: the same lines from columns and from records, and the
    # lines a per-record f-string writes
    text = format_run(RunFile("t", {"q": ranked}))
    assert text == format_run(RunFile("t", {"q": entries}))
    assert text == "".join(f"q Q0 {e.doc_id} {rank} {e.score!r} t\n"
                           for rank, e in enumerate(entries, 1))
    # the score columns are arrays of doubles whether they came as records,
    # lists or arrays, and each form writes the same lines
    columns = {name: list(getattr(ranked, name)) for name in ("scores", "esims", "jsims")}
    from_lists = RankedList("q", doc_ids=ranked.doc_ids, **columns)
    from_arrays = RankedList("q", doc_ids=ranked.doc_ids,
                             **{name: array("d", c) for name, c in columns.items()})
    for form in (ranked, from_lists, from_arrays):
        assert all(type(c) is array and c.typecode == "d"
                   for c in (form.scores, form.esims, form.jsims))
        assert form == ranked
        assert format_run(RunFile("t", {"q": form})) == text


def test_score_columns_are_copied_into_arrays_of_doubles(tmp_path):
    scores, esims, jsims = [3, 2.5, 1], [0.5], [2]
    ranked = RankedList("q", doc_ids=["a", "b", "c"], scores=scores, esims=esims, jsims=jsims)
    scores[0] = esims[0] = jsims[0] = 9
    assert ranked.scores == array("d", [3.0, 2.5, 1.0])
    assert (ranked.esims, ranked.jsims) == (array("d", [0.5]), array("d", [2.0]))
    assert RankedList("q").scores == RankedList("q").esims == array("d")
    # an int score is written as the float it became, and read back as one
    path = tmp_path / "run.txt"
    path.write_text(format_run(RunFile("t", {"q": ranked})), encoding="utf-8")
    assert path.read_text(encoding="utf-8").splitlines()[0] == "q Q0 a 1 3.0 t"
    back = read_run(path).rankings["q"]
    assert back.doc_ids == ranked.doc_ids and back.scores == ranked.scores
    assert back.scores.typecode == "d"


def test_run_from_ranked_rejects_duplicate_query():
    with pytest.raises(IntegrityError):
        run_from_ranked([_ranked("q1", [("d1", 1.0)]), _ranked("q1", [("d2", 1.0)])], "t")


def test_format_run_validation():
    cases = [
        ("t", {"q1": [("d1", 0.1), ("d2", 0.9)]}, ["increases"]),
        ("t", {"q1": [("d1", 0.9), ("d1", 0.5)]}, ["duplicate"]),
        ("", {"q1": [("d1", 0.9)]}, ["tag"]),
        # fields that read_run would split into several
        ("my run", {"q1": [("d1", 0.9)]}, ["run tag", "'my run'"]),
        ("t", {"q 1": [("d1", 0.9)]}, ["query id", "'q 1'"]),
        # read_run takes a line opening with "#" for a comment
        ("t", {"#1": [("d1", 0.9)]}, ["query id", "'#1'"]),
        ("t", {"q1": [("d1", 0.9), ("d 2", 0.5)]}, ["query 'q1'", "doc id", "'d 2'"]),
        ("t", {"q1": [("d1", 0.9), ("", 0.5)]}, ["query 'q1'", "doc id", "''"]),
    ]
    for tag, rankings, names in cases:
        run = RunFile(tag, {q: [ScoredDoc(d, s) for d, s in pairs] for q, pairs in rankings.items()})
        with pytest.raises(IntegrityError) as caught:
            format_run(run)
        assert all(name in str(caught.value) for name in names)


@pytest.mark.parametrize("doc_ids, scores", [
    (["a", "b"], [1.0]),  # a score short: no line could be written for "b"
    (["a"], [1.0, 0.5]),  # a score over: the second would be dropped
    ([], [1.0]),
])
def test_format_run_refuses_columns_of_unequal_length_naming_the_query(doc_ids, scores):
    ranked = RankedList("q7", doc_ids=doc_ids, scores=scores)
    with pytest.raises(IntegrityError, match="query 'q7': doc_ids and scores differ in length"):
        format_run(RunFile("t", {"q7": ranked}))


@pytest.mark.parametrize("scores", [[0.2, math.nan, 0.9], [math.nan, 0.5], [1.0, math.nan]])
def test_format_run_refuses_a_nan_score_naming_the_query(scores):
    # a NaN compares false both ways, so no pairwise check sees 0.2, nan, 0.9 rise
    ranked = RankedList("q7", doc_ids=["a", "b", "c"][:len(scores)], scores=scores)
    with pytest.raises(IntegrityError, match="query 'q7': a score is NaN"):
        format_run(RunFile("t", {"q7": ranked}))


def test_read_run_refuses_a_nan_score_naming_the_file_and_query(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("q1 Q0 d1 1 0.9 t\nq7 Q0 d1 1 nan t\nq7 Q0 d2 2 0.5 t\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=f"{path}: query 'q7': a score is NaN"):
        read_run(path)


def test_infinite_scores_keep_their_meaning(tmp_path):
    ranked = RankedList("q", doc_ids=["a", "b", "c", "d"], scores=[math.inf, 1.0, -1.0, -math.inf])
    path = tmp_path / "run.txt"
    path.write_text(format_run(RunFile("t", {"q": ranked})), encoding="utf-8")
    assert read_run(path).rankings["q"] == ranked
    with pytest.raises(IntegrityError, match="score increases at rank 2"):
        format_run(RunFile("t", {"q": RankedList("q", doc_ids=["a", "b"],
                                                 scores=[-math.inf, math.inf])}))


def test_run_lines_are_one_query_s_lines_of_format_run():
    rankings = {"q1": _ranked("q1", [("d2", 0.9), ("d1", 0.5)]), "q2": RankedList("q2"),
                "q3": _ranked("q3", [("d1", 0.25)])}
    lines = [run_lines(query_id, ranked, "t") for query_id, ranked in rankings.items()]
    assert lines[1] == []
    assert "".join(map("".join, lines)) == format_run(RunFile("t", rankings))
    assert lines[0] == ["q1 Q0 d2 1 0.9 t\n", "q1 Q0 d1 2 0.5 t\n"]


def test_check_run_token_accepts_only_what_read_run_reads_as_one_field():
    for text in ("sys-a", "d1", "データ", "a/b#c"):
        assert check_run_token(text) == text
    for text in ("", "my run", " d1", "d1\t", "a\nb", "a\u3000b", "a\x1cb", "a\u2028b"):
        assert text.split() != [text]
        with pytest.raises(ValueError, match="query id"):
            check_run_token(text, "query id")


def test_read_run_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "# produced by sys-a\n\nq1 Q0 d1 1 0.9 sys-a\n# q1 d1 diagnostics\nq1 Q0 d2 2 0.5 sys-a\n",
        encoding="utf-8",
    )
    run = read_run(path)
    assert run.rankings["q1"].doc_ids == ["d1", "d2"]


def test_read_run_errors(tmp_path):
    path = tmp_path / "run.txt"
    cases = [
        ("q1 Q0 d1 1 0.9\n", ParseError),  # five fields
        ("q1 0 d1 1 0.9 tag\n", ParseError),  # missing Q0 literal
        ("q1 Q0 d1 one 0.9 tag\n", ParseError),
        ("q1 Q0 d1 1 high tag\n", ParseError),
        ("q1 Q0 d1 2 0.9 tag\n", ParseError),  # starts at rank 2
        ("q1 Q0 d1 1 0.9 tag\nq1 Q0 d2 3 0.8 tag\n", ParseError),  # gap
        ("q1 Q0 d1 1 0.9 a\nq2 Q0 d2 1 0.8 b\n", IntegrityError),  # mixed tags
        ("q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2 0.9 tag\n", IntegrityError),  # rising score
        ("q1 Q0 d1 1 0.9 tag\nq1 Q0 d1 2 0.8 tag\n", IntegrityError),  # duplicate doc
    ]
    for text, err in cases:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(err):
            read_run(path)


def test_read_run_interleaved_queries(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text(
        "q1 Q0 d1 1 0.9 t\nq2 Q0 d7 1 0.4 t\nq1 Q0 d2 2 0.8 t\n", encoding="utf-8"
    )
    run = read_run(path)
    assert run.rankings["q1"].doc_ids == ["d1", "d2"]
    assert run.rankings["q2"].doc_ids == ["d7"]


# ------------------------------------------------------------- run scoring


def test_evaluate_run_strict_and_lenient():
    qrels = Qrels({"q1": {"d1": 2, "d2": 1, "d3": 0}})
    run = run_from_ranked([_ranked("q1", [("d2", 0.9), ("d1", 0.5)])], "t")
    strict = evaluate_run(run, qrels, strict=True)
    assert strict.per_query_ap["q1"] == 0.5
    lenient = evaluate_run(run, qrels, strict=False)
    assert lenient.per_query_ap["q1"] == 1.0


def test_evaluate_run_missing_judged_query_scores_zero():
    qrels = Qrels({"q1": {"d1": 2}, "q2": {"d2": 2}})
    run = run_from_ranked([_ranked("q1", [("d1", 1.0)])], "t")
    report = evaluate_run(run, qrels)
    assert report.per_query_ap == {"q1": 1.0, "q2": 0.0}
    assert report.mean_ap == 0.5
    assert report.num_queries == 2


def test_evaluate_run_excludes_and_flags_unjudgeable_queries(caplog):
    qrels = Qrels({"q1": {"d1": 2}, "q2": {"d2": 0}})
    run = run_from_ranked(
        [_ranked("q1", [("d1", 1.0)]), _ranked("q2", [("d2", 1.0)]),
         _ranked("q9", [("d9", 1.0)])],
        "t",
    )
    with caplog.at_level(logging.WARNING, logger="clir.evaluation"):
        report = evaluate_run(run, qrels)
    assert report.skipped == ["q2"]
    assert "q2" in caplog.text
    assert set(report.per_query_ap) == {"q1"}  # q9 unjudged, ignored
    assert report.mean_ap == 1.0


def test_evaluate_run_all_queries_skipped():
    qrels = Qrels({"q1": {"d1": 0}})
    report = evaluate_run(RunFile("t"), qrels)
    assert report.num_queries == 0
    assert report.mean_ap == 0.0
    assert report.skipped == ["q1"]


# ------------------------------------------------------- significance tests


def _reference_wilcoxon(diffs):
    # textbook construction: average ranks on |d|, then the exact two-sided
    # p-value by enumerating every sign assignment
    n = len(diffs)
    order = sorted(range(n), key=lambda i: abs(diffs[i]))
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(diffs[order[j + 1]]) == abs(diffs[order[i]]):
            j += 1
        avg = ((i + 1) + (j + 1)) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    w_plus = sum(r for r, d in zip(ranks, diffs) if d > 0)
    total = sum(ranks)
    w = min(w_plus, total - w_plus)
    hits = 0
    for signs in itertools.product((0, 1), repeat=n):
        s = sum(r for r, bit in zip(ranks, signs) if bit)
        if s <= w or total - s <= w:
            hits += 1
    return w_plus, total - w_plus, hits / 2**n


def test_wilcoxon_matches_sign_enumeration():
    rng = random.Random(20240820)
    checked = 0
    while checked < 200:
        n = rng.randrange(1, 11)
        pairs = [(rng.randrange(0, 6), rng.randrange(0, 6)) for _ in range(n)]
        diffs = [a - b for a, b in pairs if a != b]
        if not diffs:
            continue
        want_plus, want_minus, want_p = _reference_wilcoxon(diffs)
        got = wilcoxon_signed_test(pairs)
        assert got.method == "exact"
        assert got.n == len(diffs)
        assert got.w_plus == pytest.approx(want_plus, abs=1e-12)
        assert got.w_minus == pytest.approx(want_minus, abs=1e-12)
        assert got.p_value == pytest.approx(want_p, abs=1e-12)
        assert got.significant == (got.p_value < 0.05)
        checked += 1


def test_wilcoxon_six_uniform_improvements():
    pairs = [(i + 1.0, 0.0) for i in range(6)]
    res = wilcoxon_signed_test(pairs)
    assert res.n == 6
    assert res.w_minus == 0.0
    assert res.p_value == pytest.approx(0.03125, abs=1e-15)
    assert res.significant


def test_wilcoxon_swapping_sides_mirrors_ranks():
    rng = random.Random(21)
    pairs = [(rng.random(), rng.random()) for _ in range(12)]
    a = wilcoxon_signed_test(pairs)
    b = wilcoxon_signed_test([(y, x) for x, y in pairs])
    assert a.w_plus == pytest.approx(b.w_minus, abs=1e-12)
    assert a.p_value == pytest.approx(b.p_value, abs=1e-12)


def test_wilcoxon_all_zero_differences_flagged(caplog):
    with caplog.at_level(logging.WARNING, logger="clir.evaluation"):
        res = wilcoxon_signed_test([(0.4, 0.4), (0.1, 0.1)])
    assert res.method == "no-information"
    assert res.n == 0
    assert res.p_value is None
    assert res.statistic is None
    assert not res.significant
    assert "no information" in caplog.text


def test_wilcoxon_empty_input():
    res = wilcoxon_signed_test([])
    assert res.n == 0 and res.method == "no-information"
    assert res.statistic is None and res.p_value is None and not res.significant


def test_wilcoxon_zero_differences_dropped():
    pairs = [(1.0, 1.0)] * 5 + [(3.0, 1.0), (4.0, 1.0)]
    res = wilcoxon_signed_test(pairs)
    assert res.n == 2


def test_wilcoxon_large_sample_matches_reference_implementation():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(22)
    for _ in range(10):
        xs = [rng.random() for _ in range(40)]
        ys = [rng.random() for _ in range(40)]
        res = wilcoxon_signed_test(list(zip(xs, ys)))
        if res.w_plus == res.w_minus:
            continue
        assert res.method == "normal"
        try:
            ref = scipy_stats.wilcoxon(xs, ys, correction=True, method="approx")
        except TypeError:
            ref = scipy_stats.wilcoxon(xs, ys, correction=True, mode="approx")
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)


def test_sign_test_counts_and_p_values():
    pairs = [(1.0, 0.0)] * 8 + [(0.0, 1.0)] * 2 + [(0.5, 0.5)]
    res = sign_test(pairs)
    assert (res.n, res.num_positive, res.num_negative) == (10, 8, 2)
    assert res.p_value == pytest.approx(112 / 1024, abs=1e-15)
    assert not res.significant

    res = sign_test([(1.0, 0.0)] * 6)
    assert res.p_value == pytest.approx(0.03125, abs=1e-15)
    assert res.significant


def test_a_p_value_equal_to_the_level_is_not_significant():
    # two improvements: both tests give the exact two-sided p of 2 / 2**2
    pairs = [(1.0, 0.0)] * 2
    for res in (sign_test(pairs, level=0.5), wilcoxon_signed_test(pairs, level=0.5)):
        assert res.p_value == 0.5
        assert res.significant is False


def test_sign_test_degenerate_inputs():
    res = sign_test([(1.0, 1.0)])
    assert res.n == 0 and res.p_value is None and not res.significant
    assert sign_test([]) == res


@pytest.mark.parametrize("test", [wilcoxon_signed_test, sign_test])
@pytest.mark.parametrize("pairs, reason", [
    ([], "no pairs to compare"),
    ([(0.4, 0.4), (0.1, 0.1)], "all paired differences are zero"),
])
def test_a_no_information_result_logs_why(caplog, test, pairs, reason):
    with caplog.at_level(logging.WARNING, logger="clir.evaluation"):
        res = test(pairs)
    assert res == type(res).no_information()
    assert [r.getMessage() for r in caplog.records] == [f"{reason}; test carries no information"]


@pytest.mark.parametrize("level", [math.nan, math.inf, 0.0, 1.0, 2.0, -0.1])
def test_significance_level_must_lie_strictly_between_0_and_1(level):
    pairs = [(1.0, 0.0)] * 6
    for test in (wilcoxon_signed_test, sign_test):
        with pytest.raises(ValueError, match="significance level"):
            test(pairs, level=level)
    with pytest.raises(ValueError):
        check_level(level)
    assert check_level(0.01) == 0.01


# -------------------------------------------------------------- depth sweep


EN_TO_JA = {"library": "toshokan", "computer": "keisanki",
            "network": "netto", "search": "kensaku"}
JA_TO_EN = {v: k for k, v in EN_TO_JA.items()}


def _sweep_setup():
    ja_texts = {
        "j1": "toshokan kensaku",
        "j2": "keisanki netto",
        "j3": "toshokan keisanki netto",
        "j4": "kensaku netto",
        "j5": "toshokan",
    }
    docs = []
    for did, text in ja_texts.items():
        eid = "e" + did[1:]
        docs.append(Document(doc_id=did, lang="ja", abstract=text, pair_id=eid))
        docs.append(Document(
            doc_id=eid, lang="en", pair_id=did,
            abstract=" ".join(JA_TO_EN[t] for t in text.split()),
        ))
    corpus = Corpus(docs, ["en", "ja"])
    index = build_index(corpus.filter_lang("ja"), JA)
    queries = [
        Query(query_id="q1", lang="en", description="library search"),
        Query(query_id="q2", lang="en", description="computer network"),
    ]
    qrels = Qrels({"q1": {"j1": 2, "j5": 1}, "q2": {"j2": 2, "j3": 2}})
    cfg = PipelineConfig(
        n_intermediate=1,
        translation_method=TranslationMethod(kind=MT_SENTENCE, adapter=TableAdapter(EN_TO_JA)),
        doc_adapter=TableAdapter(JA_TO_EN),
    )
    return corpus, index, queries, qrels, cfg


def test_sweep_single_depth_matches_direct_evaluation():
    from dataclasses import replace

    corpus, index, queries, qrels, cfg = _sweep_setup()
    points = sweep_n(queries, index, corpus, [SweepSystem("mt", cfg)],
                     lambda q: EN, JA, qrels, [3])
    assert len(points) == 1
    direct_cfg = replace(cfg, n_intermediate=3)
    ranked = [run_two_stage(q, index, corpus, direct_cfg, EN, JA)[0] for q in queries]
    want = evaluate_run(run_from_ranked(ranked, "mt-n3"), qrels).mean_ap
    assert points[0].mean_ap == pytest.approx(want, abs=1e-12)
    assert points[0].system == "mt" and points[0].n == 3


def test_sweep_first_stage_system_spends_no_translation_time():
    corpus, index, queries, qrels, cfg = _sweep_setup()
    points = sweep_n(queries, index, corpus,
                     [SweepSystem("first", cfg, two_stage=False)],
                     lambda q: EN, JA, qrels, [2, 4])
    assert [(p.system, p.n) for p in points] == [("first", 2), ("first", 4)]
    for p in points:
        assert p.translation_s == 0.0
        assert p.rerank_s == 0.0
        assert p.total_s >= 0.0


def test_sweep_grid_is_system_major():
    corpus, index, queries, qrels, cfg = _sweep_setup()
    systems = [SweepSystem("a", cfg), SweepSystem("b", cfg, two_stage=False)]
    for depths in ([1, 2, 3], iter([1, 2, 3])):  # any iterable of depths
        points = sweep_n(queries, index, corpus, systems, lambda q: EN, JA, qrels, depths)
        assert [(p.system, p.n) for p in points] == [
            ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3)
        ]


# two query translation methods over synth's ambiguity collection: one takes
# each topic's true candidate, the other the misleading one for odd topics.
# A filler word in each query makes stage one rank many documents.
_TRUE_TABLE = {**{f"sa{k}": f"a{k}" for k in range(10)}, **{f"sb{k}": f"b{k}" for k in range(10)},
               **{f"sf{i:02d}": f"f{i:02d}" for i in range(60)}}
_SKEW_TABLE = {**_TRUE_TABLE, **{f"sa{k}": f"c{k}" for k in range(1, 10, 2)}}


class _LoggedTable(TableAdapter):
    """A mock translator that appends each text it translates to ``log``."""

    def __init__(self, table, log, fail_on=None):
        super().__init__(table)
        self.log = log
        self.fail_on = fail_on

    def translate(self, text, src, tgt):
        self.log.append(("translate", text))
        if text == self.fail_on:
            raise TranslationError("translator refused")
        return super().translate(text, src, tgt)


def _two_method_sweep(tail, log, fail_on=None):
    s = synth.build_ambiguity_setup()
    s.queries = [Query(q.query_id, q.lang, f"{q.description} sf{7 * k % 60:02d}")
                 for k, q in enumerate(s.queries)]
    methods = [
        TranslationMethod(kind=MT_SENTENCE, adapter=_LoggedTable(table, log, fail_on))
        for table in (_TRUE_TABLE, _SKEW_TABLE)
    ]
    # under tail keep the skew system needs a shorter prefix than the deepest
    cfgs = [PipelineConfig(n_intermediate=1, translation_method=m, doc_adapter=s.mt_back_table,
                           output_depth=depth, tail_policy=tail)
            for m, depth in zip(methods, (10, 8))]
    systems = [SweepSystem("true", cfgs[0]), SweepSystem("first", cfgs[0], two_stage=False),
               SweepSystem("skew", cfgs[1])]
    return s, systems


@pytest.mark.parametrize("tail", [TAIL_DROP, TAIL_KEEP])
def test_sweep_cells_equal_runs_with_a_fresh_config_per_cell(tail, monkeypatch):
    s, systems = _two_method_sweep(tail, [])
    depths = [2, 4, 7]
    runs = {}

    def kept_run(ranked_lists, tag):
        run = runs[tag] = run_from_ranked(ranked_lists, tag)
        return run

    monkeypatch.setattr("clir.evaluation.run_from_ranked", kept_run)
    points = sweep_n(s.queries, s.index, s.corpus, systems,
                     lambda q: AnalyzerConfig(lang=q.lang), s.tgt_cfg, s.qrels, depths)
    assert [(p.system, p.n) for p in points] == [
        (system.name, n) for system in systems for n in depths]
    # the rankings that one sweep_runs call over every cell yields
    cells = {}
    for system, n, _, ranked, _ in sweep_runs(s.queries, s.index, s.corpus, systems,
                                              lambda q: AnalyzerConfig(lang=q.lang),
                                              s.tgt_cfg, depths):
        cells.setdefault((system.name, n), []).append(ranked)
    for point, (system, n) in zip(points, itertools.product(systems, depths)):
        cfg = replace(system.cfg, n_intermediate=n)
        if system.two_stage:
            want = [run_two_stage(q, s.index, s.corpus, cfg, s.src_cfg, s.tgt_cfg)[0]
                    for q in s.queries]
        else:
            want = [run_first_stage(q, s.index, cfg, s.src_cfg, s.tgt_cfg, depth=n)
                    for q in s.queries]
        assert cells[system.name, n] == want
        # sweep_n scored the same doc ids, and kept no score column
        tag = f"{system.name}-n{n}"
        assert {q: (r.doc_ids, r.scores, r.esims, r.jsims) for q, r in runs[tag].rankings.items()} \
            == {r.query_id: (r.doc_ids, array("d"), array("d"), array("d")) for r in want}
        # the same cell as a sweep of its own, as `clir search` and `search2` run it
        one_cell = list(sweep_runs(s.queries, s.index, s.corpus, [system],
                                   lambda q: AnalyzerConfig(lang=q.lang), s.tgt_cfg, [n]))
        assert [item[:3] for item in one_cell] == [(system, n, q) for q in s.queries]
        assert [ranked for _, _, _, ranked, _ in one_cell] == want
        if not system.two_stage:
            assert all(record == TimingRecord(0.0, 0.0, record.total_s)
                       for *_, record in one_cell)
        assert point.mean_ap == evaluate_run(run_from_ranked(want, tag), s.qrels).mean_ap
        assert point.total_s >= point.translation_s + point.rerank_s
    # the cells differ, so the comparison above is not vacuous
    assert len({p.mean_ap for p in points}) > 3
    if tail == TAIL_KEEP:
        assert max(len(r.doc_ids) for r in cells["true", 2]) == 10
        assert max(len(r.doc_ids) for r in cells["skew", 2]) == 8


@pytest.fixture
def records_built(monkeypatch):
    """How many ``ScoredDoc`` and ``RerankedEntry`` records are made while
    the test runs, whichever name they are made through."""
    built = Counter()
    for record in (ScoredDoc, RerankedEntry):
        def counted(self, *args, _init=record.__init__, _name=record.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(record, "__init__", counted)
    return built


@pytest.mark.parametrize("tail", [TAIL_DROP, TAIL_KEEP])
def test_sweep_builds_no_record_per_ranked_document(tail, records_built):
    s, systems = _two_method_sweep(tail, [])
    points = sweep_n(s.queries, s.index, s.corpus, systems,
                     lambda q: s.src_cfg, s.tgt_cfg, s.qrels, [2, 4, 7])
    assert len(points) == 9 and all(p.mean_ap > 0.0 for p in points)
    assert records_built == Counter()


def test_a_two_stage_run_and_its_run_file_build_no_record(records_built):
    s, systems = _two_method_sweep(TAIL_KEEP, [])
    cfg = replace(systems[0].cfg, n_intermediate=3)
    ranked = run_two_stage(s.queries[0], s.index, s.corpus, cfg, s.src_cfg, s.tgt_cfg)[0]
    text = format_run(run_from_ranked([ranked], "t"))
    assert text.count("\n") == len(ranked.doc_ids) == 10
    assert records_built == Counter()
    # the records appear only when asked for, which shows the count sees them
    ranked.entries
    assert records_built == Counter(RerankedEntry=3, ScoredDoc=7)


def test_sweep_translates_each_query_once_per_method_in_hook_order():
    log = []
    s, systems = _two_method_sweep(TAIL_DROP, log)
    depths = [3, 8, 20]

    def cfg_src_for(query):
        log.append(("hook", query.description))
        return AnalyzerConfig(lang=query.lang)  # a new object on every call

    sweep_n(s.queries, s.index, s.corpus, systems, cfg_src_for, s.tgt_cfg, s.qrels, depths)
    texts = [q.description for q in s.queries]
    hooks = [("hook", text) for text in texts]
    first_cell = [event for text in texts for event in (("hook", text), ("translate", text))]
    # true: stage one in its first cell; first: every prefix reused; skew: its own stage one
    assert log == first_cell + hooks * 2 + hooks * 3 + first_cell + hooks * 2


def test_sweep_runs_call_the_hook_once_per_run_and_cells_are_evaluated_in_between(monkeypatch):
    s, systems = _two_method_sweep(TAIL_DROP, [])
    depths = [3, 8]
    log = []

    def cfg_src_for(query):
        log.append(("hook", query.query_id))
        return s.src_cfg

    runs = sweep_runs(s.queries, s.index, s.corpus, systems, cfg_src_for, s.tgt_cfg, depths)
    for system, n, query in itertools.product(systems, depths, s.queries):
        log.clear()
        assert next(runs)[:3] == (system, n, query)
        assert log == [("hook", query.query_id)]
    log.clear()
    assert next(runs, None) is None and log == []

    def logged_evaluate(run, qrels, strict=True):
        log.append(("evaluate", run.tag))
        return evaluate_run(run, qrels, strict)

    monkeypatch.setattr("clir.evaluation.evaluate_run", logged_evaluate)
    sweep_n(s.queries, s.index, s.corpus, systems, cfg_src_for, s.tgt_cfg, s.qrels, depths)
    hooks = [("hook", q.query_id) for q in s.queries]
    assert log == [event for system, n in itertools.product(systems, depths)
                   for event in (*hooks, ("evaluate", f"{system.name}-n{n}"))]


class _WatchedRanking(RankedList):
    """A ranking that a weak reference can watch."""

    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("chosen, depths", [([0], [3]), ([0], [3, 8]), ([0, 1], [3, 8])])
def test_sweep_runs_drop_each_stage_one_after_the_last_cell_that_reads_it(
        chosen, depths, monkeypatch):
    s, systems = _two_method_sweep(TAIL_DROP, [])
    systems = [systems[k] for k in chosen]  # systems 0 and 1 share their method
    stage_ones = []  # a weak reference to each query's stage one, in query order

    def watched_first_stage(*args, **kwargs):
        ranked = run_first_stage(*args, **kwargs)
        watched = _WatchedRanking(ranked.query_id, doc_ids=ranked.doc_ids, scores=ranked.scores)
        stage_ones.append(weakref.ref(watched))
        return watched

    monkeypatch.setattr("clir.evaluation.run_first_stage", watched_first_stage)
    for system, n, query, _, _ in sweep_runs(s.queries, s.index, s.corpus, systems,
                                             lambda q: s.src_cfg, s.tgt_cfg, depths):
        gc.collect()
        live = [ref() is not None for ref in stage_ones]
        if system is systems[-1] and n == depths[-1]:
            pos = s.queries.index(query)
            assert live == [k >= pos for k in range(len(live))]
        else:
            assert all(live)
    gc.collect()
    assert len(stage_ones) == len(s.queries)
    assert [ref() for ref in stage_ones] == [None] * len(s.queries)


def test_sweep_propagates_a_failed_query_translation():
    log = []
    s, systems = _two_method_sweep(TAIL_DROP, log, fail_on="sa1 sb1 sf07")
    with pytest.raises(TranslationError, match="refused"):
        sweep_n(s.queries, s.index, s.corpus, systems,
                lambda q: s.src_cfg, s.tgt_cfg, s.qrels, [3, 8])
    assert log == [("translate", "sa0 sb0 sf00"), ("translate", "sa1 sb1 sf07")]


def _doc_sweep(make_adapter, depths=(2, 4, 7)):
    """The two-method sweep with the adapter ``make_adapter`` builds from the
    mock back-translation table translating documents, and for each
    two-stage cell (system, depth) the doc_ids heading its queries."""
    s, systems = _two_method_sweep(TAIL_DROP, [])
    adapter = make_adapter(s.mt_back_table.table)
    systems = [replace(system, cfg=replace(system.cfg, doc_adapter=adapter))
               for system in systems]
    heads = {}
    for system in systems:
        for n in depths if system.two_stage else ():
            heads[system.name, n] = [
                run_first_stage(q, s.index, system.cfg, s.src_cfg, s.tgt_cfg, depth=n).doc_ids
                for q in s.queries
            ]
    return s, systems, list(depths), heads, adapter


def test_sweep_translates_each_document_field_once_per_call():
    log = []
    s, systems, depths, heads, _ = _doc_sweep(lambda table: _LoggedTable(table, log))
    used = {doc_id for cell in heads.values() for head in cell for doc_id in head}
    want = Counter(s.corpus.get(doc_id).abstract for doc_id in used)
    for calls in (1, 2):
        sweep_n(s.queries, s.index, s.corpus, systems,
                lambda q: s.src_cfg, s.tgt_cfg, s.qrels, depths)
        assert Counter(text for _, text in log) == Counter(
            {text: calls * k for text, k in want.items()})
    # the deeper cells and the other system use documents a cell before them stored
    assert len(used) < sum(len({d for head in cell for d in head}) for cell in heads.values())


def test_sweep_cells_share_one_table_of_translations(monkeypatch):
    log = []
    s, systems, depths, heads, _ = _doc_sweep(lambda table: _LoggedTable(table, log))
    # keywords repeat across documents, so a cell meets texts that other
    # cells, and its own earlier documents, already sent
    s.corpus = Corpus([replace(d, keywords=[f"kw{i % 3}"]) for i, d in enumerate(s.corpus)])
    memos = []

    class RecordedMemo(DocumentMemo):
        def __init__(self, store=None):
            super().__init__(store)
            memos.append(self)

    monkeypatch.setattr("clir.evaluation.DocumentMemo", RecordedMemo)
    sweep_n(s.queries, s.index, s.corpus, systems,
            lambda q: s.src_cfg, s.tgt_cfg, s.qrels, depths)
    texts = Counter(text for _, text in log)
    assert set(texts.values()) == {1}
    assert {"kw0", "kw1", "kw2"} <= set(texts)
    store = memos[0]
    assert len(memos) == 1 + len(systems) * len(depths)
    assert all(memo.translators is store.translators for memo in memos)


def test_sweep_cells_are_charged_the_translation_time_of_shared_documents():
    delay_s = 0.002
    s, systems, depths, heads, _ = _doc_sweep(lambda table: TableAdapter(table, delay_s=delay_s))
    points = sweep_n(s.queries, s.index, s.corpus, systems,
                     lambda q: s.src_cfg, s.tgt_cfg, s.qrels, depths)
    for p in points:
        if (p.system, p.n) not in heads:
            continue
        fields = len({d for head in heads[p.system, p.n] for d in head})  # one abstract each
        assert p.translation_s >= delay_s * fields
        assert p.total_s >= p.translation_s + p.rerank_s


def test_sweep_retries_a_failed_document_in_every_run_and_never_stores_it(monkeypatch, caplog):
    log = []
    s, systems, depths, heads, adapter = _doc_sweep(lambda table: _LoggedTable(table, log))
    bad = heads["true", depths[0]][0][0]  # the first query's top document
    adapter.fail_on = bad_text = s.corpus.get(bad).abstract
    memos = []

    class RecordedMemo(DocumentMemo):
        def __init__(self, store=None):
            super().__init__(store)
            memos.append(self)

    monkeypatch.setattr("clir.evaluation.DocumentMemo", RecordedMemo)
    with caplog.at_level(logging.WARNING, logger="clir.pipeline"):
        sweep_n(s.queries, s.index, s.corpus, systems,
                lambda q: s.src_cfg, s.tgt_cfg, s.qrels, depths)
    runs = [(cell, q.query_id) for cell, cell_heads in heads.items()
            for q, head in zip(s.queries, cell_heads) if bad in head]
    assert len(runs) > len(depths)  # retrieved by both systems, at every depth
    assert log.count(("translate", bad_text)) == len(runs)
    assert caplog.text.count(f"document {bad} kept untranslated") == len(runs)
    store = memos[0]
    assert all(memo.buckets is store.buckets for memo in memos)
    assert store.buckets
    assert all(bad not in bucket.docs for bucket in store.buckets.values())


def test_sweep_rejects_bad_depths():
    corpus, index, queries, qrels, cfg = _sweep_setup()
    for bad in ([100, 50], [50, 50], [0, 5], [-1]):
        with pytest.raises(ValueError):
            sweep_n(queries, index, corpus, [SweepSystem("s", cfg)],
                    lambda q: EN, JA, qrels, bad)


# ---------------------------------------------------------------- rendering


def test_format_report_layout():
    report = evaluate_run(
        run_from_ranked([_ranked("q1", [("d1", 1.0)])], "sys-a"),
        Qrels({"q1": {"d1": 2}, "q2": {"d9": 0}}),
    )
    assert format_report(report).split("\n") == [
        "runid\tsys-a",
        "ap\tq1\t1.0000",
        "skipped\tq2",
        "num_q\t1",
        "map\t1.0000",
    ]


def test_format_comparison_layout():
    res = wilcoxon_signed_test([(i + 1.0, 0.0) for i in range(6)])
    text = format_comparison("sys-a", "sys-b", res)
    assert "compare\tsys-a\tsys-b" in text
    assert "n\t6" in text
    assert "w_minus\t0" in text
    assert "p_value\t0.03125" in text
    assert "significant\tyes" in text

    flat = wilcoxon_signed_test([(0.5, 0.5)])
    text = format_comparison("sys-a", "sys-b", flat)
    assert "method\tno-information" in text
    assert "significant\tno" in text


def test_format_sweep_layout():
    corpus, index, queries, qrels, cfg = _sweep_setup()
    points = sweep_n(queries, index, corpus, [SweepSystem("mt", cfg)],
                     lambda q: EN, JA, qrels, [2, 4])
    text = format_sweep(points)
    lines = text.split("\n")
    assert lines[0].split() == ["system", "n", "map", "trans_s", "rerank_s", "total_s"]
    machine = [l for l in lines if l.startswith("sweep\t")]
    assert len(machine) == 2
    assert machine[0].split("\t")[1:3] == ["mt", "2"]
