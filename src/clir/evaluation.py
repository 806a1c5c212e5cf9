"""Relevance-judged evaluation: average precision, run files, paired
significance tests, and the depth sweep relating translation cost to
retrieval quality.

File formats follow the TREC conventions: judgments as
``query_id 0 doc_id grade`` and runs as ``query_id Q0 doc_id rank score tag``.
"""

import logging
import math
import time
from dataclasses import dataclass, field, replace
from itertools import count, islice

from clir.corpus import check_run_token
from clir.errors import IntegrityError, ParseError
from clir.files import read_lines
from clir.index import RankedList
from clir.pipeline import DocumentMemo, TimingRecord, first_stage_depth
from clir.pipeline import run_first_stage, run_second_stage
from clir.pipeline import run_two_stage  # noqa: F401  perfbench's tracer wraps this name

logger = logging.getLogger(__name__)

GRADE_RELEVANT = 2
GRADE_PARTIAL = 1
GRADE_NONRELEVANT = 0
_GRADES = (GRADE_NONRELEVANT, GRADE_PARTIAL, GRADE_RELEVANT)

# the signed-rank test's p-value is exact up to this many non-zero pairs
EXACT_CUTOFF = 25


class Qrels:
    """Graded relevance judgments keyed by query id.

    Strict reading counts only fully relevant documents; lenient reading also
    counts partially relevant ones.
    """

    def __init__(self, grades: dict[str, dict[str, int]] | None = None):
        self.grades: dict[str, dict[str, int]] = {}
        if grades:
            for query_id, judged in grades.items():
                for doc_id, grade in judged.items():
                    self.add(query_id, doc_id, grade)

    def add(self, query_id: str, doc_id: str, grade: int):
        if grade not in _GRADES:
            raise IntegrityError(f"grade must be one of {_GRADES}, got {grade!r}")
        judged = self.grades.setdefault(query_id, {})
        if doc_id in judged and judged[doc_id] != grade:
            raise IntegrityError(
                f"conflicting grades for query {query_id!r} document {doc_id!r}"
            )
        judged[doc_id] = grade

    def query_ids(self) -> list[str]:
        return list(self.grades)

    def relevant(self, query_id: str, strict: bool = True) -> set[str]:
        floor = GRADE_RELEVANT if strict else GRADE_PARTIAL
        return {d for d, g in self.grades.get(query_id, {}).items() if g >= floor}


def load_qrels(path) -> Qrels:
    qrels = Qrels()
    for line_no, line in read_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError("expected 'query_id 0 doc_id grade'", path, line_no)
        query_id, _zero, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"grade {grade_text!r} is not an integer", path, line_no) from None
        if grade not in _GRADES:
            raise ParseError(f"grade must be 0, 1 or 2, got {grade}", path, line_no)
        try:
            qrels.add(query_id, doc_id, grade)
        except IntegrityError as exc:
            raise IntegrityError(f"{path}:{line_no}: {exc}") from None
    return qrels


def average_precision(doc_ids, relevant: set) -> float:
    """Non-interpolated average precision of one ranking.

    Precision is sampled at each rank holding a relevant document and the
    mean is taken over all relevant documents, so unretrieved ones pull the
    score down. The caller must pass a non-empty relevant set; queries with
    no relevant documents are excluded upstream rather than scored.
    """
    if not relevant:
        raise ValueError("no relevant documents; exclude this query instead")
    hits = 0
    total = 0.0
    for rank, doc_id in enumerate(doc_ids, 1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_ap(per_query_ap: dict[str, float]) -> float:
    """Arithmetic mean of per-query average precision; empty input is an error.

    The values are summed left to right: builtin ``sum()`` of floats is
    compensated from Python 3.12 on, which could move MAP in the last bit.
    """
    if not per_query_ap:
        raise ValueError("no per-query values to average")
    total = 0.0
    for ap in per_query_ap.values():
        total += ap
    return total / len(per_query_ap)


@dataclass
class EvalReport:
    """Per-query average precision and its mean."""

    per_query_ap: dict[str, float]
    mean_ap: float
    num_queries: int
    skipped: list[str] = field(default_factory=list)
    tag: str = ""


@dataclass
class RunFile:
    """Ranked results per query plus the tag naming the producing system.

    Each ranking is the query's ``RankedList``. Only ``format_run`` also
    takes a list of ``ScoredDoc`` or ``RerankedEntry`` records in rank order,
    which it reads as ``RankedList(query_id, records)``; ``evaluate_run``
    reads the columns and takes ``RankedList`` only.
    """

    tag: str
    rankings: dict[str, RankedList] = field(default_factory=dict)


def run_from_ranked(ranked_lists, tag: str) -> RunFile:
    """A run holding each ranked list as given, not copied."""
    run = RunFile(tag=tag)
    for ranked in ranked_lists:
        if ranked.query_id in run.rankings:
            raise IntegrityError(f"duplicate ranking for query {ranked.query_id!r}")
        run.rankings[ranked.query_id] = ranked
    return run


def _check_ranking(query_id, ranked, where=""):
    doc_ids, scores = ranked.doc_ids, ranked.scores
    if len(scores) != len(doc_ids):
        raise IntegrityError(f"{where}query {query_id!r}: doc_ids and scores differ in length")
    if any(map(math.isnan, scores)):
        raise IntegrityError(f"{where}query {query_id!r}: a score is NaN")
    seen = set()
    for pos, doc_id in enumerate(doc_ids):
        if doc_id in seen:
            raise IntegrityError(f"{where}query {query_id!r}: duplicate document {doc_id!r}")
        seen.add(doc_id)
        if pos and scores[pos] > scores[pos - 1]:
            raise IntegrityError(f"{where}query {query_id!r}: score increases at rank {pos + 1}")


def check_query_id(query_id):
    """``query_id`` as the first field of a run line; ValueError if it fails
    ``check_run_token`` or starts with "#", which would make its lines
    comments to ``read_run``."""
    check_run_token(query_id, "query id")
    if query_id.startswith("#"):
        raise ValueError(f"query id must not start with '#', got {query_id!r}")
    return query_id


def run_lines(query_id, ranked: RankedList, tag: str) -> list:
    """One query's lines of a run in interchange format, validated first:
    scores must be non-increasing and not NaN, the tag and the doc ids must
    pass ``check_run_token`` and the query id ``check_query_id``, so
    ``read_run`` reads them back."""
    _check_ranking(query_id, ranked)
    if not ranked.doc_ids:
        return []
    try:
        check_run_token(tag)
        check_query_id(query_id)
        for doc_id in ranked.doc_ids:
            check_run_token(doc_id, "doc id")
    except ValueError as exc:
        raise IntegrityError(f"query {query_id!r}: {exc}") from None
    return [f"{query_id} Q0 {doc_id} {rank} {score!r} {tag}\n"
            for doc_id, rank, score in zip(ranked.doc_ids, count(1), ranked.scores)]


def format_run(run: RunFile) -> str:
    """Render a run in interchange format, each query's lines by ``run_lines``."""
    lines = []
    for query_id, ranked in run.rankings.items():
        if not isinstance(ranked, RankedList):
            # perfbench's checks.run_texts passes ScoredDoc lists; drop this
            # branch once it passes the RankedList
            ranked = RankedList(query_id, ranked)
        lines += run_lines(query_id, ranked, run.tag)
    return "".join(lines)


def read_run(path) -> RunFile:
    run = RunFile(tag="")
    last_rank: dict[str, int] = {}
    for line_no, line in read_lines(path):
        fields = line.split()
        if fields[0].startswith("#"):
            continue
        if len(fields) != 6:
            raise ParseError("expected 'query_id Q0 doc_id rank score tag'", path, line_no)
        query_id, q0, doc_id, rank_text, score_text, tag = fields
        if q0 != "Q0":
            raise ParseError(f"expected literal 'Q0', got {q0!r}", path, line_no)
        try:
            rank = int(rank_text)
            score = float(score_text)
        except ValueError:
            raise ParseError("rank must be an integer and score a number", path, line_no) from None
        if rank != last_rank.get(query_id, 0) + 1:
            raise ParseError(
                f"query {query_id!r} ranks must run 1,2,... without gaps", path, line_no
            )
        if not run.tag:
            run.tag = tag
        elif tag != run.tag:
            raise IntegrityError(f"{path}:{line_no}: mixed run tags {run.tag!r} and {tag!r}")
        last_rank[query_id] = rank
        ranked = run.rankings.get(query_id)
        if ranked is None:
            ranked = run.rankings[query_id] = RankedList(query_id)
        ranked.doc_ids.append(doc_id)
        ranked.scores.append(score)
    for query_id, ranked in run.rankings.items():
        _check_ranking(query_id, ranked, f"{path}: ")
    return run


def evaluate_run(run: RunFile, qrels: Qrels, strict: bool = True) -> EvalReport:
    """Score a run against judgments.

    The mean is over judged queries with at least one relevant document; such
    a query missing from the run scores zero, and queries with none are
    excluded from the mean and listed as skipped. Unjudged queries in the run
    are ignored.
    """
    per_query_ap: dict[str, float] = {}
    skipped = []
    for query_id in qrels.query_ids():
        relevant = qrels.relevant(query_id, strict)
        if not relevant:
            skipped.append(query_id)
            logger.warning("query %s has no relevant documents; excluded from the mean", query_id)
            continue
        ranked = run.rankings.get(query_id)
        doc_ids = [] if ranked is None else ranked.doc_ids
        per_query_ap[query_id] = average_precision(doc_ids, relevant)
    return EvalReport(
        per_query_ap=per_query_ap,
        mean_ap=mean_ap(per_query_ap) if per_query_ap else 0.0,
        num_queries=len(per_query_ap),
        skipped=skipped,
        tag=run.tag,
    )


@dataclass
class WilcoxonResult:
    """Matched-pairs signed-rank test outcome.

    ``n`` counts non-zero differences. When every difference is zero the test
    carries no information: statistic and p_value are None, method is
    "no-information" and significant is False.
    """

    n: int
    w_plus: float
    w_minus: float
    statistic: float | None
    p_value: float | None
    significant: bool
    method: str

    @classmethod
    def no_information(cls):
        return cls(n=0, w_plus=0.0, w_minus=0.0, statistic=None, p_value=None,
                   significant=False, method="no-information")


def _signed_ranks(diffs):
    # Average ranks over tied |difference| groups. Doubling every rank keeps
    # them integral, which the exact distribution count relies on.
    ordered = sorted(range(len(diffs)), key=lambda i: abs(diffs[i]))
    doubled = [0] * len(diffs)
    pos = 0
    while pos < len(ordered):
        end = pos
        while end + 1 < len(ordered) and abs(diffs[ordered[end + 1]]) == abs(diffs[ordered[pos]]):
            end += 1
        # positions pos..end hold ranks pos+1..end+1; doubled average rank
        # is the sum of the extremes
        shared = (pos + 1) + (end + 1)
        for k in range(pos, end + 1):
            doubled[ordered[k]] = shared
        pos = end + 1
    return doubled


def _exact_two_sided_p(doubled_ranks, w_doubled):
    # Tally the doubled positive-rank sum over all 2^n sign assignments by
    # polynomial multiplication; equivalent to full enumeration but usable
    # at n=25.
    total = sum(doubled_ranks)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in doubled_ranks:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    hit = sum(c for s, c in enumerate(counts) if s <= w_doubled or total - s <= w_doubled)
    return min(1.0, hit / 2 ** len(doubled_ranks))


def check_level(level):
    """The significance level; ValueError unless it is finite and strictly
    between 0 and 1."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"significance level must lie strictly between 0 and 1, got {level!r}")
    return level


def _no_information(pairs, result_type):
    """``result_type``'s no-information result, logged with its reason."""
    why = "all paired differences are zero" if pairs else "no pairs to compare"
    logger.warning("%s; test carries no information", why)
    return result_type.no_information()


def wilcoxon_signed_test(pairs, level: float = 0.05) -> WilcoxonResult:
    """Two-sided matched-pairs signed-rank test on (score_a, score_b) pairs.

    Zero differences are dropped; tied absolute differences get average
    ranks. Up to ``EXACT_CUTOFF`` non-zero pairs the p-value is exact over
    all sign assignments, beyond that a normal approximation with continuity
    and tie corrections is used. No pairs, or all-zero differences, yield a
    flagged no-information result rather than an exception.
    """
    check_level(level)
    pairs = list(pairs)
    diffs = [a - b for a, b in pairs if a != b]
    n = len(diffs)
    if n == 0:
        return _no_information(pairs, WilcoxonResult)
    doubled = _signed_ranks(diffs)
    w_plus_doubled = sum(r for r, d in zip(doubled, diffs) if d > 0)
    w_minus_doubled = sum(doubled) - w_plus_doubled
    w_doubled = min(w_plus_doubled, w_minus_doubled)

    if n <= EXACT_CUTOFF:
        p = _exact_two_sided_p(doubled, w_doubled)
        method = "exact"
    else:
        mean = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        ties: dict[int, int] = {}
        for r in doubled:
            ties[r] = ties.get(r, 0) + 1
        var -= sum(t ** 3 - t for t in ties.values()) / 48.0
        z = (w_doubled / 2.0 - mean + 0.5) / math.sqrt(var)
        p = min(1.0, math.erfc(-z / math.sqrt(2.0)))
        method = "normal"
    return WilcoxonResult(
        n=n,
        w_plus=w_plus_doubled / 2.0,
        w_minus=w_minus_doubled / 2.0,
        statistic=w_doubled / 2.0,
        p_value=p,
        significant=p < level,
        method=method,
    )


@dataclass
class SignTestResult:
    n: int
    num_positive: int
    num_negative: int
    p_value: float | None
    significant: bool

    @classmethod
    def no_information(cls):
        return cls(n=0, num_positive=0, num_negative=0, p_value=None, significant=False)


def sign_test(pairs, level: float = 0.05) -> SignTestResult:
    """Two-sided sign test on (score_a, score_b) pairs, zero differences
    dropped. No pairs, or all-zero differences, carry no information."""
    check_level(level)
    pairs = list(pairs)
    pos = sum(1 for a, b in pairs if a > b)
    neg = sum(1 for a, b in pairs if a < b)
    n = pos + neg
    if n == 0:
        return _no_information(pairs, SignTestResult)
    k = min(pos, neg)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    p = min(1.0, 2.0 * tail)
    return SignTestResult(n=n, num_positive=pos, num_negative=neg, p_value=p, significant=p < level)


@dataclass
class SweepSystem:
    """One row of a depth sweep: a named pipeline setup, either the full
    two-stage flow or the first stage alone truncated at each depth."""

    name: str
    cfg: object
    two_stage: bool = True


@dataclass
class SweepPoint:
    """Outcome of one (system, depth) cell across all queries.

    Times are summed over the queries. They include the stage-one runs and
    document translations the cell shares with other cells (see
    ``sweep_runs``), so the cells sum to more than the sweep's wall time.
    """

    system: str
    n: int
    mean_ap: float
    translation_s: float
    rerank_s: float
    total_s: float


def check_depths(n_values):
    """The depths as a list; ValueError unless they are positive, ascending
    and distinct, and there is at least one."""
    n_values = list(n_values)
    if not n_values or n_values != sorted(set(n_values)) or n_values[0] < 1:
        raise ValueError("depths must be positive, ascending and distinct")
    return n_values


def sweep_runs(queries, index, corpus, systems, cfg_src_for, cfg_tgt, n_values):
    """Run the queries through every system at every depth in ``n_values``,
    yielding ``(system, n, query, ranked, record)`` per run in (system,
    depth, query) order, ``record`` being the run's ``TimingRecord``.
    ``cfg_src_for`` maps a query to its source-side analyzer settings; it is
    called once per (system, depth, query), in that order, just before the
    run. ``n_values`` must pass ``check_depths``.

    Stage one runs once per query for each translation method and source
    analyzer settings, at the deepest depth any cell needs, in the first cell
    that needs it, and the method's last cell drops it after the query's run.
    Every cell takes an exact prefix of it: a stage-one system's ranking is
    its first ``n``, with ``TimingRecord(0.0, 0.0, first_stage_s)``. Each
    document is translated once per call, and each distinct text sent to a
    translator once: the cells' document memos share one store of vectors and
    translations (see ``DocumentMemo``), and each cell re-ranks its own
    head. Each record's ``total_s`` includes the shared stage-one time, and a
    cell's ``translation_s`` and ``total_s`` the recorded translation time of
    each stored document it used. A text that an earlier cell translated for
    a document this cell does not use costs this cell nothing, so its times
    can fall below what a run at that depth costs with a fresh config.
    Where every earlier cell's heads are among this cell's, as for the
    ascending depths of one system, the cell used each of those documents
    and was charged for each text once.
    """
    n_values = check_depths(n_values)
    deepest = max((
        first_stage_depth(replace(system.cfg, n_intermediate=n)) if system.two_stage else n
        for system in systems for n in n_values
    ), default=0)
    # the systems hold their methods, so ids stay distinct for the call
    last_reader = {id(system.cfg.translation_method): k for k, system in enumerate(systems)}
    stage_ones = {}
    store = DocumentMemo()
    for k, system in enumerate(systems):
        method = id(system.cfg.translation_method)
        for n in n_values:
            cfg = replace(system.cfg, n_intermediate=n)
            cfg.doc_memo = DocumentMemo(store)
            last_cell = last_reader[method] == k and n == n_values[-1]
            for pos, query in enumerate(queries):
                cfg_src = cfg_src_for(query)
                key = (pos, method, cfg_src)
                if key not in stage_ones:
                    t0 = time.perf_counter()
                    ranked = run_first_stage(query, index, cfg, cfg_src, cfg_tgt, depth=deepest)
                    stage_ones[key] = ranked, time.perf_counter() - t0
                stage_one, first_stage_s = stage_ones.pop(key) if last_cell else stage_ones[key]
                if system.two_stage:
                    ranked, record = run_second_stage(
                        query, stage_one, corpus, cfg, cfg_src, first_stage_s)
                else:
                    ranked = RankedList(query.query_id, doc_ids=stage_one.doc_ids[:n],
                                        scores=stage_one.scores[:n])
                    record = TimingRecord(0.0, 0.0, first_stage_s)
                yield system, n, query, ranked, record


def sweep_n(queries, index, corpus, systems, cfg_src_for, cfg_tgt, qrels,
            n_values, strict: bool = True) -> list[SweepPoint]:
    """Evaluate every system at every depth in ``n_values`` from the runs of
    ``sweep_runs``, each (system, depth) cell after its last run and before
    the next cell's first. A cell keeps each run's doc ids, the one column
    ``evaluate_run`` reads, not its ranking. Returns one point per cell with
    mean average precision and per-phase time summed over the queries."""
    n_values = check_depths(n_values)
    runs = sweep_runs(queries, index, corpus, systems, cfg_src_for, cfg_tgt, n_values)
    points = []
    for system in systems:
        for n in n_values:
            ranked_lists = []
            translation_s = rerank_s = total_s = 0.0
            for _, _, _, ranked, record in islice(runs, len(queries)):
                translation_s += record.translation_s
                rerank_s += record.rerank_s
                total_s += record.total_s
                ranked_lists.append(RankedList(ranked.query_id, doc_ids=ranked.doc_ids))
            tag = f"{system.name}-n{n}"
            report = evaluate_run(run_from_ranked(ranked_lists, tag), qrels, strict)
            points.append(SweepPoint(
                system=system.name,
                n=n,
                mean_ap=report.mean_ap,
                translation_s=translation_s,
                rerank_s=rerank_s,
                total_s=total_s,
            ))
    return points


def format_report(report: EvalReport) -> str:
    """Tab-separated evaluation summary, one cell per line."""
    lines = []
    if report.tag:
        lines.append(f"runid\t{report.tag}")
    for query_id, ap in report.per_query_ap.items():
        lines.append(f"ap\t{query_id}\t{ap:.4f}")
    for query_id in report.skipped:
        lines.append(f"skipped\t{query_id}")
    lines.append(f"num_q\t{report.num_queries}")
    lines.append(f"map\t{report.mean_ap:.4f}")
    return "\n".join(lines)


def format_comparison(name_a: str, name_b: str, result: WilcoxonResult) -> str:
    lines = [f"compare\t{name_a}\t{name_b}", f"n\t{result.n}"]
    if result.method == "no-information":
        lines.append("method\tno-information")
        lines.append("significant\tno")
        return "\n".join(lines)
    lines += [
        f"w_plus\t{result.w_plus:g}",
        f"w_minus\t{result.w_minus:g}",
        f"statistic\t{result.statistic:g}",
        f"p_value\t{result.p_value:.6g}",
        f"method\t{result.method}",
        f"significant\t{'yes' if result.significant else 'no'}",
    ]
    return "\n".join(lines)


def format_sweep(points) -> str:
    """Aligned table of the sweep, then the same cells as tab-separated lines.

    Each cell's ``trans_s`` and ``total_s`` include the work it shares with
    other cells (see ``sweep_runs``), so the columns sum to more than the sweep
    took.
    """
    header = f"{'system':<16} {'n':>6} {'map':>8} {'trans_s':>9} {'rerank_s':>9} {'total_s':>9}"
    rows = [header]
    for p in points:
        rows.append(
            f"{p.system:<16} {p.n:>6} {p.mean_ap:>8.4f} "
            f"{p.translation_s:>9.3f} {p.rerank_s:>9.3f} {p.total_s:>9.3f}"
        )
    rows.append("")
    for p in points:
        rows.append(
            f"sweep\t{p.system}\t{p.n}\t{p.mean_ap:.4f}"
            f"\t{p.translation_s:.3f}\t{p.rerank_s:.3f}\t{p.total_s:.3f}"
        )
    return "\n".join(rows)
