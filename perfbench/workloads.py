"""Set-up and query passes of the three workloads, through the public API.

One client in one process sends queries one after another (a closed loop),
as ``clir search``, ``clir search2`` and ``clir sweep`` do. A pass replays the
whole query file once; each pass gets fresh adapters and a fresh pipeline
configuration, so nothing the program keeps on those objects carries over
from one pass to the next, as it would not from one command run to the next.
"""

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from clir import evaluation, pipeline
from clir.corpus import AnalyzerConfig, load_corpus, load_queries
from clir.errors import TranslationError
from clir.evaluation import SweepSystem, load_qrels
from clir.index import build_index, load_index, save_index
from clir.pipeline import PipelineConfig
from clir.translate import (
    COMBINED,
    BilingualDictionary,
    MTAdapter,
    TableAdapter,
    TranslationMethod,
)
from gen import SRC_LANG, TGT_LANG

SRC_CFG = AnalyzerConfig(lang=SRC_LANG)
SWEEP_NS = (50, 200, 1000)
SWEEP_SYSTEMS = ("stage1", "mt")
PROBE_WORDS = [f"w{i % 257}" for i in range(400)]
# Scaled times are times on a host where probe() takes this long, about its
# time in the fast phases of a shared 2-vCPU VM.
PROBE_REFERENCE_S = 50e-6


def _probe_once():
    t0 = time.perf_counter()
    counts = {}
    for word in PROBE_WORDS:
        counts[word] = counts.get(word, 0) + 1
    sorted(counts.items(), key=lambda kv: kv[1])
    return time.perf_counter() - t0


def probe():
    """Seconds a fixed piece of dict and sort work takes now: the host's
    speed at this moment. The faster of two tries, so that one interrupt
    does not count."""
    return min(_probe_once(), _probe_once())


@dataclass(frozen=True)
class Workload:
    name: str
    depth: int  # n_intermediate: stage-one depth, or the sweep's first depth
    two_stage: bool
    tag: str  # run tag the CLI gives the same run


WORKLOADS = {
    "search": Workload("search", 1000, two_stage=False, tag="mpbt"),
    "search2": Workload("search2", 200, two_stage=True, tag="mpbt+mt"),
    "sweep": Workload("sweep", SWEEP_NS[0], two_stage=True, tag="mpbt+mt"),
}


class CountingAdapter(MTAdapter):
    """Translator-boundary counters around the real adapter.

    Query-side and document-side traffic go through separate instances.
    With ``doc_of_abstract`` the instance also recognises each document's
    abstract, so it counts document translations and distinct documents
    where the work happens.
    """

    def __init__(self, inner, doc_of_abstract=None):
        self.inner = inner
        self.doc_of_abstract = doc_of_abstract
        self.calls = 0
        self.failures = 0
        self.documents = 0
        self.distinct = set()

    def translate(self, text, src, tgt):
        self.calls += 1
        if self.doc_of_abstract is not None:
            doc_id = self.doc_of_abstract.get(text)
            if doc_id is not None:
                self.documents += 1
                self.distinct.add(doc_id)
        try:
            return self.inner.translate(text, src, tgt)
        except TranslationError:
            self.failures += 1
            raise


@dataclass
class Env:
    corpus: object
    queries: list
    qrels: object
    dictionary: object
    table: object
    index: object
    index_path: str
    doc_of_abstract: dict


@contextmanager
def _phase(phases, name, tracer, readings):
    t0 = time.perf_counter()
    if tracer is None:
        yield
    else:
        with tracer.span(name):
            yield
    phases[name] = time.perf_counter() - t0
    readings.append(probe())


def set_up(files, index_path, tracer=None):
    """Load the generated files, build, save and reload the index.

    Returns the environment, the seconds of each phase, and the set-up's
    seconds scaled to the reference host speed: each phase's time over the
    mean of the probe() readings on either side of it, times
    PROBE_REFERENCE_S. With a tracer, each phase is also a span.
    """
    phases = {}
    readings = [probe()]
    with _phase(phases, "corpus.load", tracer, readings):
        corpus = load_corpus(files.corpus)
        queries = load_queries(files.queries)
        qrels = load_qrels(files.qrels)
    with _phase(phases, "translate.load", tracer, readings):
        dictionary = BilingualDictionary.from_file(files.dictionary)
        table = TableAdapter.from_file(files.table)
    with _phase(phases, "index.build", tracer, readings):
        built = build_index(corpus.filter_lang(TGT_LANG), AnalyzerConfig(lang=TGT_LANG))
    with _phase(phases, "index.save", tracer, readings):
        save_index(built, index_path)
    del built
    with _phase(phases, "index.load", tracer, readings):
        index = load_index(index_path)
    doc_of_abstract = {d.abstract: d.doc_id for d in corpus if d.lang == TGT_LANG}
    env = Env(corpus, queries, qrels, dictionary, table, index, index_path, doc_of_abstract)
    scaled_s = sum(seconds / ((before + after) / 2) for seconds, before, after
                   in zip(phases.values(), readings, readings[1:])) * PROBE_REFERENCE_S
    return env, phases, scaled_s


@dataclass
class Pass:
    """One replay of the query file."""

    wall_s: float = 0.0
    runs: int = 0  # query runs attempted: run_first_stage / run_two_stage calls
    failed: int = 0  # runs that raised or whose output differs from the checked pass
    latencies: list = field(default_factory=list)  # seconds per query run, None if it raised
    probe_units: list = field(default_factory=list)  # each latency / probe time around it
    probes: list = field(default_factory=list)  # probe() readings taken during the pass
    results: dict = field(default_factory=dict)  # query_id -> RankedList, when kept
    points: list = field(default_factory=list)  # sweep points
    query_calls: int = 0
    doc_calls: int = 0
    documents: int = 0  # document translations performed
    distinct_documents: int = 0
    translation_failures: int = 0
    record_s: list = field(default_factory=lambda: [0.0, 0.0, 0.0])  # translation, rerank, total


def _config(env, depth):
    inner = TableAdapter(env.table.table)
    q_side = CountingAdapter(inner)
    d_side = CountingAdapter(inner, env.doc_of_abstract)
    method = TranslationMethod(kind=COMBINED, adapter=q_side, dictionary=env.dictionary)
    return PipelineConfig(n_intermediate=depth, translation_method=method, doc_adapter=d_side)


def _count_adapters(result, cfg):
    q_side = cfg.translation_method.adapter
    d_side = cfg.doc_adapter
    result.query_calls = q_side.calls
    result.doc_calls = d_side.calls
    result.documents = d_side.documents
    result.distinct_documents = len(d_side.distinct)
    result.translation_failures = q_side.failures + d_side.failures


def fingerprint(ranked):
    return hash(tuple((e.doc_id, e.score) for e in ranked.entries))


def _report_failure(what, exc):
    print(f"perfbench: {what} failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def query_pass(env, workload, keep=False, expected=None, order=None):
    """Run every query once, in file order or in ``order`` (a permutation of
    query positions). Latencies stay in file order. ``expected`` maps query
    ids to the fingerprint of the checked pass; a run that differs counts as
    failed."""
    cfg = _config(env, workload.depth)
    num_q = len(env.queries)
    out = Pass(runs=num_q, latencies=[None] * num_q, probe_units=[None] * num_q)
    t_pass = time.perf_counter()
    before = probe()
    for pos in range(num_q) if order is None else order:
        query = env.queries[pos]
        t0 = time.perf_counter()
        try:
            if workload.two_stage:
                ranked, record = pipeline.run_two_stage(
                    query, env.index, env.corpus, cfg, SRC_CFG, env.index.analyzer)
            else:
                ranked = pipeline.run_first_stage(
                    query, env.index, cfg, SRC_CFG, env.index.analyzer)
                record = None
        except Exception as exc:  # one failing query is counted, not fatal
            out.failed += 1
            _report_failure(f"query {query.query_id}", exc)
            before = probe()
            continue
        latency = time.perf_counter() - t0
        after = probe()
        out.probes.append(after)
        out.latencies[pos] = latency
        out.probe_units[pos] = latency / ((before + after) / 2)
        before = after
        if record is not None:
            out.record_s[0] += record.translation_s
            out.record_s[1] += record.rerank_s
            out.record_s[2] += record.total_s
        if keep:
            out.results[query.query_id] = ranked
        if expected is not None and fingerprint(ranked) != expected.get(query.query_id):
            out.failed += 1
    out.wall_s = time.perf_counter() - t_pass
    _count_adapters(out, cfg)
    return out


def sweep_pass(env, workload, expected=None, order=None):
    """One ``sweep_n`` call: stage one alone and two-stage ``mt``, each at
    every depth of SWEEP_NS.

    A latency sample is one point of the sweep, a (depth, query) pair: the
    query's stage-one run plus its two-stage run at that depth. Query runs
    are delimited by the calls of the per-query ``cfg_src_for`` hook, so a
    run lasts from its hook call to the next one, and the last run of a
    cell includes that cell's evaluation. The hook also takes a probe()
    reading, outside the runs' times. ``order`` permutes the query list
    handed to ``sweep_n``; samples stay in (depth, file order). ``expected``
    is the checked pass's list of (system, depth, mean AP); a differing cell
    counts its query runs as failed.
    """
    cfg = _config(env, workload.depth)
    systems = [SweepSystem(name, cfg, two_stage=name != "stage1") for name in SWEEP_SYSTEMS]
    num_q = len(env.queries)
    out = Pass(runs=len(systems) * len(SWEEP_NS) * num_q)
    stamps = []  # (hook entered, probe reading, hook left)

    def stamp():
        t0 = time.perf_counter()
        reading = probe()
        stamps.append((t0, reading, time.perf_counter()))

    def cfg_src_for(_query):
        stamp()
        return SRC_CFG

    order = list(range(num_q)) if order is None else order
    queries = [env.queries[pos] for pos in order]
    t_pass = time.perf_counter()
    try:
        points = evaluation.sweep_n(queries, env.index, env.corpus, systems, cfg_src_for,
                                    env.index.analyzer, env.qrels, list(SWEEP_NS))
    except Exception as exc:  # a failed sweep fails all its query runs
        out.failed = out.runs
        _report_failure("sweep", exc)
        points = []
    stamp()
    out.wall_s = stamps[-1][0] - t_pass
    out.probes = [reading for _, reading, _ in stamps]
    runs = [(b[0] - a[2], (a[1] + b[1]) / 2) for a, b in zip(stamps, stamps[1:])]
    points_per_pass = len(SWEEP_NS) * num_q
    out.latencies = [None] * points_per_pass
    out.probe_units = [None] * points_per_pass
    if points and len(runs) == out.runs:
        for i, (interval, reading) in enumerate(runs):
            cell, pos = divmod(i, num_q)
            point = (cell % len(SWEEP_NS)) * num_q + order[pos]
            out.latencies[point] = (out.latencies[point] or 0.0) + interval
            out.probe_units[point] = (out.probe_units[point] or 0.0) + interval / reading
    elif points:
        # the hook no longer delimits single runs: fall back to the mean point
        reading = statistics.median(out.probes)
        out.latencies = [out.wall_s / points_per_pass] * points_per_pass
        out.probe_units = [out.wall_s / points_per_pass / reading] * points_per_pass
    out.points = [(p.system, p.n, p.mean_ap) for p in points]
    for p in points:
        if p.system == "mt":
            out.record_s[0] += p.translation_s
            out.record_s[1] += p.rerank_s
            out.record_s[2] += p.total_s
    if expected is not None and out.points:
        out.failed += num_q * sum(a != b for a, b in zip(out.points, expected))
        out.failed += num_q * abs(len(out.points) - len(expected))
    _count_adapters(out, cfg)
    return out


def run_pass(env, workload, keep=False, expected=None, order=None):
    """One pass of the workload; ``keep`` keeps each query's ranking."""
    if workload.name == "sweep":
        return sweep_pass(env, workload, expected=expected, order=order)
    return query_pass(env, workload, keep=keep, expected=expected, order=order)


def timed_passes(env, workload, seconds, expected, rng):
    """Whole passes until ``seconds`` have gone by, each in its own query
    order drawn from ``rng``, so that neither a periodic disturbance of the
    host nor the collector's rhythm lands on the same queries every pass."""
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        order = rng.sample(range(len(env.queries)), len(env.queries))
        passes.append(run_pass(env, workload, expected=expected, order=order))
    return passes


def fast_probe(passes):
    """The 5th percentile of the passes' probe() readings: the probe's time
    in the host's fastest phase during them (reported, not used)."""
    readings = [r for p in passes for r in p.probes]
    if len(readings) < 2:
        return readings[0]
    return statistics.quantiles(readings, n=20)[0]


def host_scaled_runs(passes):
    """Each query run's latency at the reference host speed, the median over
    the passes.

    Co-tenants of a shared host slow it by up to 2x, in phases of a few
    seconds to minutes, and no repeat count rides all of them out: a whole
    run can fall in a slow phase. The probe() around each run slows with the
    program (probe 1.1x: program 1.07x; probe 1.8x: program 1.84x, on a
    2-vCPU VM), so a run's time divided by its probe time and multiplied by
    PROBE_REFERENCE_S is its time at the reference speed.
    """
    scaled = []
    for repeats in zip(*(p.probe_units for p in passes)):
        units = [u for u in repeats if u is not None]
        if units:
            scaled.append(PROBE_REFERENCE_S * statistics.median(units))
    return scaled


def fastest_runs(passes):
    """Each query run's fastest latency over the passes, unscaled."""
    best = []
    for repeats in zip(*(p.latencies for p in passes)):
        times = [t for t in repeats if t is not None]
        if times:
            best.append(min(times))
    return best


def percentile(values, q):
    """The q-th percentile (0-100) by ``statistics.quantiles``' exclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
