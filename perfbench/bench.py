"""One benchmark run: generate, set up, warm up, time, check, report.

Imported by ``run.py`` once the program's source is on ``sys.path``.
"""

import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import gen
import spans
import workloads
from clir.evaluation import evaluate_run, run_from_ranked

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# An untraced run sets up at least SETUPS times and until SETUP_SECONDS have
# gone by, at most MAX_SETUPS times; setup_s is the median. Short set-ups need
# more repeats to ride out the host's slow stretches.
SETUPS = 3
MAX_SETUPS = 9
SETUP_SECONDS = 4.0
ORACLE_QUERIES = 5  # queries checked against the independent oracles
CLI_QUERIES = 10  # queries the untraced run replays through the clir command

END_TO_END = {
    "setup_s": "s",
    "queries_per_s": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "translator_calls_per_query": "calls",
    "map": "ratio",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (unit, span it is read from, or None)
PER_LAYER = {
    "corpus.load_s": ("s", None),
    "corpus.analyze_setup_s": ("s", "corpus.analyze"),
    "corpus.analyze_s": ("s/query", "corpus.analyze"),
    "corpus.analyze_calls_per_query": ("calls", "corpus.analyze"),
    "index.build_s": ("s", None),
    "index.save_s": ("s", None),
    "index.save_bytes": ("bytes", None),
    "index.load_s": ("s", None),
    "index.search_s": ("s/query", "index.search"),
    "index.postings_per_query": ("postings", "index.search"),
    "translate.load_s": ("s", None),
    "translate.query_s": ("s/query", "translate.query"),
    "translate.query_calls_per_query": ("calls", None),
    "translate.doc_s": ("s/query", "translate.doc"),
    "translate.doc_calls_per_query": ("calls", None),
    "translate.distinct_doc_share": ("ratio", None),
    "translate.failures": ("count", None),
    "rerank.rerank_s": ("s/query", "rerank.rerank"),
    "rerank.docs_per_query": ("docs", "rerank.rerank"),
    "pipeline.run_s": ("s/query", "pipeline.run"),
    "pipeline.unattributed_s": ("s/query", "pipeline.run"),
    "pipeline.record_unattributed_share": ("ratio", None),
    "evaluation.searches_per_query": ("searches", "index.search"),
    "evaluation.evaluate_s": ("s/query", "evaluation.evaluate"),
    "evaluation.format_run_s": ("s/query", None),
    "cli.run_s": ("s", None),
    "cli.overhead_s": ("s", None),
    "runtime.gc_pause_s": ("s/query", None),
    "runtime.gc_collections_per_query": ("collections", None),
    "trace.overhead_s": ("s/query", None),
    "trace.overhead_share": ("ratio", None),
}


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """One benchmark run: generate, set up, warm up, time, check, report."""

    def __init__(self, args, work):
        self.args = args
        self.work = work
        self.workload = workloads.WORKLOADS[args.workload]
        self.index_path = str(work / "index.json")
        self.lines = []
        self.files = gen.Files.under(str(work))
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--scale", args.scale, "--seed", str(args.seed), "--out", str(work)],
            check=True,
        )

    def say(self, text):
        self.lines.append(text)

    # ------------------------------------------------------------ checks

    def verify(self, env, warm, cli_all):
        """Check the warm-up pass's outputs. Returns (query runs failed,
        format_run seconds per query, clir command seconds)."""
        wl = self.workload
        oracle = checks.Oracle(self.files)
        if wl.name == "sweep":
            return self._verify_sweep(env, warm, oracle)

        texts, refused, format_s = checks.run_texts(warm.results, wl.tag)
        bad = set(refused)
        order = [q.query_id for q in env.queries if q.query_id in texts]
        run_text = "".join(texts[q] for q in order)
        self._check_sha(run_text, bad, [q.query_id for q in env.queries])

        checked = [q for q in env.queries if q.query_id in warm.results]
        step = max(1, len(checked) // ORACLE_QUERIES)
        sample = checked[::step][:ORACLE_QUERIES]
        bad_oracle = checks.check_with_oracle(oracle, sample, warm.results, wl)
        bad.update(bad_oracle)
        also = " and the re-rank definition" if wl.two_stage else ""
        self.say(f"check oracle: {len(sample) - len(bad_oracle)}/{len(sample)} queries agree "
                 f"with exhaustive scoring{also}")

        query_file = self.files.queries
        ids = [q.query_id for q in env.queries]
        if not cli_all:
            ids = ids[:CLI_QUERIES]
            query_file = str(self.work / "cli-queries.jsonl")
            with open(self.files.queries, encoding="utf-8") as src, \
                    open(query_file, "w", encoding="utf-8") as dst:
                for line, _ in zip(src, ids):
                    dst.write(line)
        out = str(self.work / "cli.run")
        argv = checks.cli_argv(wl.name, self.files, env.index_path, query_file, out, wl.depth)
        status, cli_s = checks.run_cli(argv)
        by_query = {}
        if status == 0:
            with open(out, encoding="utf-8") as fh:
                for line in fh:
                    by_query.setdefault(line.split(" ", 1)[0], []).append(line)
        bad_cli = [q for q in ids if "".join(by_query.get(q, [])) != texts.get(q)]
        bad.update(bad_cli)
        self.say(f"check cli: `clir {wl.name}` exit {status}, "
                 f"{len(ids) - len(bad_cli)}/{len(ids)} queries byte-identical to the library run")
        return len(bad), format_s / max(1, len(texts)), cli_s

    def _verify_sweep(self, env, warm, oracle):
        # Recompute two cells with the library, validate their run files,
        # score them with a definitional average precision and compare with
        # what sweep_n reported.
        relevant = {}
        with open(self.files.qrels, encoding="utf-8") as fh:
            for line in fh:
                qid, _, doc_id, grade = line.split()
                if int(grade) >= 2:
                    relevant.setdefault(qid, set()).add(doc_id)
        reported = {(s, n): ap for s, n, ap in warm.points}
        num_q = len(env.queries)
        failed = 0
        run_text = ""
        format_s = 0.0
        for system, wl in (("stage1", workloads.WORKLOADS["search"]),
                           ("mt", workloads.WORKLOADS["search2"])):
            cell = workloads.query_pass(env, wl, keep=True)
            texts, refused, spent = checks.run_texts(cell.results, wl.tag)
            format_s += spent
            run_text += "".join(texts.get(q.query_id, "") for q in env.queries)
            aps = []
            for q in env.queries:
                ranked = cell.results.get(q.query_id)
                rel = relevant.get(q.query_id)
                if not rel:
                    continue
                hits, total = 0, 0.0
                for rank, e in enumerate(ranked.entries if ranked else [], 1):
                    if e.doc_id in rel:
                        hits += 1
                        total += hits / rank
                aps.append(total / len(rel))
            mean_ap = sum(aps) / len(aps)
            got = reported.get((system, wl.depth))
            agree = got is not None and abs(got - mean_ap) <= 1e-12
            sample = env.queries[:ORACLE_QUERIES]
            bad = checks.check_with_oracle(oracle, sample, cell.results, wl)
            failed += len(refused) + len(bad) + cell.failed + (0 if agree else num_q)
            self.say(f"check sweep cell {system}@{wl.depth}: MAP {mean_ap:.6f} recomputed, "
                     f"sweep_n {'agrees' if agree else 'DISAGREES'}; "
                     f"oracle {len(sample) - len(bad)}/{len(sample)}; refused {len(refused)}")
        bad_sha = set()
        self._check_sha(run_text, bad_sha, [q.query_id for q in env.queries])
        return failed + len(bad_sha), format_s / (2 * num_q), None

    def _check_sha(self, run_text, bad, query_ids):
        digest = checks.sha256(run_text)
        with open(HERE / "expected.json", encoding="utf-8") as fh:
            expected = json.load(fh)
        want = expected.get(self.args.scale, {}).get(self.args.workload)
        if self.args.seed != expected["seed"] or want is None:
            self.say(f"check run sha256: {digest} (recorded only for seed {expected['seed']})")
            return
        if digest == want:
            self.say(f"check run sha256: {digest} matches the recorded run")
        else:
            bad.update(query_ids)
            self.say(f"check run sha256: {digest} DIFFERS from the recorded {want}")

    # ------------------------------------------------------------ runs

    def _expected(self, warm):
        if self.workload.name == "sweep":
            return warm.points
        return {qid: workloads.fingerprint(r) for qid, r in warm.results.items()}

    def _order_rng(self):
        return random.Random(f"order:{self.args.workload}:{self.args.seed}")

    def _map(self, env, warm):
        if self.workload.name == "sweep":
            return {(s, n): ap for s, n, ap in warm.points}.get(("mt", workloads.SWEEP_NS[-1]), 0.0)
        ranked = [warm.results[q.query_id] for q in env.queries if q.query_id in warm.results]
        return evaluate_run(run_from_ranked(ranked, self.workload.tag), env.qrels).mean_ap

    def untraced(self):
        totals, raw = [], []
        while len(totals) < SETUPS or (sum(totals) < SETUP_SECONDS and len(totals) < MAX_SETUPS):
            env = None
            gc.collect()
            env, phases, scaled_s = workloads.set_up(self.files, self.index_path)
            totals.append(scaled_s)
            raw.append(sum(phases.values()))
        warm = workloads.run_pass(env, self.workload, keep=True)
        passes = workloads.timed_passes(env, self.workload, self.args.seconds,
                                        self._expected(warm), self._order_rng())
        peak_mb = _peak_rss_mb()
        check_failed, _, _ = self.verify(env, warm, cli_all=False)

        samples = workloads.host_scaled_runs(passes)
        fastest = workloads.fastest_runs(passes)
        runs = sum(p.runs for p in passes)
        wall = sum(p.wall_s for p in passes)
        metrics = {
            "setup_s": statistics.median(totals),
            # the samples partition one pass's query runs
            "queries_per_s": passes[0].runs / sum(samples),
            "latency_p50_ms": statistics.median(samples) * 1e3,
            "latency_p95_ms": workloads.percentile(samples, 95) * 1e3,
            "translator_calls_per_query": (warm.query_calls + warm.doc_calls) / warm.runs,
            "map": self._map(env, warm),
            "peak_rss_mb": peak_mb,
        }
        attempted = warm.runs + runs
        failed = warm.failed + sum(p.failed for p in passes) + check_failed
        self.say(f"set-ups: {', '.join(f'{t:.3f}' for t in totals)} s scaled, "
                 f"{', '.join(f'{t:.3f}' for t in raw)} s unscaled")
        self.say(f"timed: {len(passes)} passes, {runs} query runs in {wall:.3f} s; "
                 f"{len(samples)} latency samples, each the median of {len(passes)} repeats "
                 f"scaled to the host's fastest speed ({len(samples) // 20} beyond p95)")
        self.say(f"unscaled: p50 {statistics.median(fastest) * 1e3:.3f} ms and p95 "
                 f"{workloads.percentile(fastest, 95) * 1e3:.3f} ms of each run's fastest repeat; "
                 f"{runs / wall:.3f} query runs/s over the timed passes; fastest probe "
                 f"{workloads.fast_probe(passes) * 1e6:.2f} us, reference "
                 f"{workloads.PROBE_REFERENCE_S * 1e6:.0f} us")
        if self.workload.name == "sweep":
            sweep_s = statistics.median(p.wall_s for p in passes)
            self.say(f"sweep_s (one sweep_n call): median {sweep_s:.3f} s")
        self.say(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
        return metrics, attempted, failed, END_TO_END

    def traced(self):
        tracer = spans.Tracer()
        with tracer.installed():
            env, phases, _ = workloads.set_up(self.files, self.index_path, tracer)
        setup_end = tracer.mark()
        warm = workloads.run_pass(env, self.workload, keep=True)
        expected = self._expected(warm)
        half = self.args.seconds / 2
        rng = self._order_rng()
        with spans.GcClock() as gc_clock:
            plain = workloads.timed_passes(env, self.workload, half, expected, rng)
        plain_runs = sum(p.runs for p in plain)
        start = tracer.mark()
        with tracer.installed(after={"index.search": _count_postings,
                                     "rerank.rerank": _count_rerank_docs}):
            traced = workloads.timed_passes(env, self.workload, half, expected, rng)
        end = tracer.mark()
        check_failed, format_s, cli_s = self.verify(env, warm, cli_all=True)
        if cli_s is None:
            cli_s = self._sweep_cli(env, warm)

        s0 = tracer.summary(0, setup_end)
        s = tracer.summary(start, end)
        n = sum(p.runs for p in traced)
        plain_best = workloads.host_scaled_runs(plain)
        traced_best = workloads.host_scaled_runs(traced)
        # a sweep's sample is a point of two query runs
        plain_per_run = sum(plain_best) / plain[0].runs
        traced_per_run = sum(traced_best) / traced[0].runs
        plain_pass_s = sum(p.wall_s for p in plain) / len(plain)
        record = [sum(p.record_s[i] for p in plain) for i in range(3)]
        loads = phases["index.load"] + phases["translate.load"]
        if self.workload.name != "search":
            loads += phases["corpus.load"]
        if self.workload.name == "sweep":
            loads *= 2  # one clir sweep call per system

        def span(name, key):
            return s.get(name, {}).get(key, 0.0)

        values = {
            "corpus.load_s": phases["corpus.load"],
            "corpus.analyze_setup_s": s0.get("corpus.analyze", {}).get("self_s", 0.0),
            "corpus.analyze_s": span("corpus.analyze", "self_s") / n,
            "corpus.analyze_calls_per_query": span("corpus.analyze", "count") / n,
            "index.build_s": s0["index.build"]["self_s"],
            "index.save_s": phases["index.save"],
            "index.save_bytes": os.path.getsize(self.index_path),
            "index.load_s": phases["index.load"],
            "index.search_s": span("index.search", "self_s") / n,
            "index.postings_per_query": tracer.counts.get("postings", 0) / n,
            "translate.load_s": phases["translate.load"],
            "translate.query_s": span("translate.query", "self_s") / n,
            "translate.query_calls_per_query": warm.query_calls / warm.runs,
            "translate.doc_s": span("translate.doc", "self_s") / n,
            "translate.doc_calls_per_query": warm.doc_calls / warm.runs,
            "translate.distinct_doc_share":
                warm.distinct_documents / warm.documents if warm.documents else 0.0,
            "translate.failures": warm.translation_failures,
            "rerank.rerank_s": span("rerank.rerank", "self_s") / n,
            "rerank.docs_per_query": tracer.counts.get("rerank_docs", 0) / n,
            "pipeline.run_s": span("pipeline.run", "total_s") / n,
            "pipeline.unattributed_s": span("pipeline.run", "strict_self_s") / n,
            "pipeline.record_unattributed_share":
                1.0 - (record[0] + record[1]) / record[2] if record[2] else 0.0,
            "evaluation.searches_per_query": span("index.search", "count") / n,
            "evaluation.evaluate_s": span("evaluation.evaluate", "total_s") / n,
            "evaluation.format_run_s": format_s,
            "cli.run_s": cli_s,
            "cli.overhead_s": cli_s - loads - plain_pass_s,
            "runtime.gc_pause_s": gc_clock.pause_s / plain_runs,
            "runtime.gc_collections_per_query": gc_clock.collections / plain_runs,
            "trace.overhead_s": traced_per_run - plain_per_run,
            "trace.overhead_share": (traced_per_run - plain_per_run) / plain_per_run,
        }
        missing_spans = {name for module, attr, name in spans.WRAPPED
                         if f"{module}.{attr}" in tracer.missing}
        metrics = {}
        for name, (unit, source) in PER_LAYER.items():
            if source in missing_spans:
                self.say(f"layer metric {name}: MISSING (its span {source} is not recorded)")
                continue
            if source is not None and source not in s and source not in s0:
                self.say(f"layer metric {name}: idle on this workload, reported as 0")
            metrics[name] = values[name]
        for missing in tracer.missing:
            self.say(f"trace: {missing} not found; its layer is reported missing")

        run = s.get("pipeline.run")
        if run:
            self.say(f"trace: pipeline.run {run['total_s']:.6f} s = child spans "
                     f"{run['children_s']:.6f} s + unattributed {run['strict_self_s']:.6f} s")
        self.say(f"trace: {len(plain)} untraced and {len(traced)} traced passes; overhead "
                 f"{(traced_per_run - plain_per_run) * 1e3:.4f} ms per query run")
        self.say("trace: no wait-time metric; one process, one thread and a mock translator "
                 "without delay, so no layer waits on another")
        trace_path = ROOT / ".perfbench" / f"trace-{self.args.workload}.jsonl"
        tracer.write(trace_path)
        self.say(f"trace: {len(tracer.start)} spans written to {trace_path.relative_to(ROOT)}")
        attempted = warm.runs + sum(p.runs for p in plain) + n
        failed = (warm.failed + sum(p.failed for p in plain) + sum(p.failed for p in traced)
                  + check_failed)
        self.say(f"error_rate: {failed}/{attempted} = {failed / attempted:.4f}")
        return metrics, attempted, failed, {k: v[0] for k, v in PER_LAYER.items()}

    def _sweep_cli(self, env, warm):
        """``clir sweep`` once per system; its MAP column must match sweep_n's."""
        total = 0.0
        agree = True
        for stage, system in ((1, "stage1"), (2, "mt")):
            out = str(self.work / f"sweep-{stage}.txt")
            argv = checks.cli_argv("sweep", self.files, env.index_path, self.files.queries, out,
                                   workloads.SWEEP_NS, stage=stage)
            status, seconds = checks.run_cli(argv)
            total += seconds
            want = [(n, f"{ap:.4f}") for s, n, ap in warm.points if s == system]
            agree = agree and status == 0 and checks.sweep_cli_maps(out) == want
        verdict = "match" if agree else "DIFFER from"
        self.say(f"check cli: `clir sweep` MAP columns {verdict} sweep_n")
        return total


def _count_postings(tracer, args, _result):
    index, query_terms = args[0], args[1]
    df = getattr(index, "df", None)
    counts = getattr(query_terms, "counts", None)
    if df is None or counts is None:
        return
    num_docs = index.num_docs
    tracer.count("postings", sum(d for t in counts if 0 < (d := df.get(t, 0)) < num_docs))


def _count_rerank_docs(tracer, args, _result):
    tracer.count("rerank_docs", len(args[0].entries))


