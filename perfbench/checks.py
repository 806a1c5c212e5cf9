"""Output checks: run-file validation, independent oracles, CLI identity.

The oracles read the generated files with ``json`` and string splitting only,
never through ``clir``: exhaustive cosine scoring over every target document
for stage one, and a direct transcription of the second-stage scoring
definition over the retrieved set. The generated text is lower-case tokens
without punctuation, so ``str.split`` is the analyzer.
"""

import contextlib
import hashlib
import io
import json
import math
import time
from collections import Counter

from clir import cli
from clir.evaluation import RunFile, format_run
from clir.errors import IntegrityError
from clir.index import ScoredDoc
from gen import TGT_LANG

SCORE_TOL = 1e-9
EPSILON = 0.0001  # CombineParams' default floor; alpha = beta = 1


def run_texts(results, tag):
    """Validate and render each query's ranking through ``format_run``.

    Returns (query_id -> run lines, query ids whose ranking was refused,
    seconds spent formatting). The lines joined in query order are the run
    file the ``clir`` command writes for the same queries.
    """
    texts, refused = {}, []
    spent = 0.0
    for query_id, ranked in results.items():
        run = RunFile(tag=tag, rankings={
            query_id: [ScoredDoc(doc_id=e.doc_id, score=e.score) for e in ranked.entries]})
        t0 = time.perf_counter()
        try:
            texts[query_id] = format_run(run)
        except IntegrityError:
            refused.append(query_id)
        spent += time.perf_counter() - t0
    return texts, refused, spent


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_tsv(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


class Oracle:
    """Reference scoring read straight from the generated files."""

    def __init__(self, files):
        self.doc_tokens = {}
        with open(files.corpus, encoding="utf-8") as fh:
            for line in fh:
                doc = json.loads(line)
                if doc["lang"] != TGT_LANG:
                    continue
                parts = [doc["title"], *doc["keywords"], doc["abstract"]]
                self.doc_tokens[doc["id"]] = " ".join(p for p in parts if p).split()
        self.table = dict(_read_tsv(files.table))
        self.dictionary = {src: cands.split("|") for src, cands in _read_tsv(files.dictionary)}
        self.df = Counter()
        for tokens in self.doc_tokens.values():
            self.df.update(set(tokens))
        num_docs = len(self.doc_tokens)
        self.doc_weights = {}
        self.doc_norms = {}
        for doc_id, tokens in self.doc_tokens.items():
            counts = Counter(tokens)
            if not counts:
                continue
            max_tf = max(counts.values())
            weights = {t: (0.5 + 0.5 * f / max_tf) * math.log(num_docs / self.df[t])
                       for t, f in counts.items()}
            self.doc_weights[doc_id] = weights
            self.doc_norms[doc_id] = math.sqrt(sum(w * w for w in weights.values()))

    def translated_query(self, description):
        # mpbt: every word through the table, plus the dictionary candidate
        # with the highest document frequency (ties to the smallest string)
        tokens = description.split()
        counts = Counter(self.table.get(t, t) for t in tokens)
        counts.update(min(self.dictionary[t], key=lambda c: (-self.df.get(c, 0), c))
                      for t in tokens if t in self.dictionary)
        return counts

    def stage_one(self, description):
        """Every target document with a positive cosine score, best first."""
        counts = self.translated_query(description)
        max_tf = max(counts.values())
        num_docs = len(self.doc_tokens)
        qw = {}
        for term, f in counts.items():
            df = self.df.get(term, 0)
            if df:
                w = (0.5 + 0.5 * f / max_tf) * math.log(num_docs / df)
                if w > 0.0:
                    qw[term] = w
        qnorm = math.sqrt(sum(w * w for w in qw.values()))
        scored = []
        for doc_id, weights in self.doc_weights.items():
            dot = 0.0
            for term, w in qw.items():
                if term in weights:
                    dot += w * weights[term]
            denom = qnorm * self.doc_norms[doc_id]
            if dot > 0.0 and denom > 0.0:
                scored.append((doc_id, min(dot / denom, 1.0)))
        scored.sort(key=lambda r: (-r[1], r[0]))
        return scored

    def second_stage(self, description, retrieved):
        """Re-rank ``retrieved`` [(doc_id, stage-one score)] by the definition:
        documents back-translated word by word through the table, weights
        (1 + ln tf) * ln(N / n_t) over the retrieved set, inner product, and
        the product of both stage scores with zeros floored."""
        back = {d: Counter(self.table.get(t, t) for t in self.doc_tokens[d]) for d, _ in retrieved}
        support = Counter()
        for vec in back.values():
            support.update(vec.keys())
        n = len(retrieved)
        q = Counter(description.split())
        rows = []
        for doc_id, esim in retrieved:
            vec = back[doc_id]
            jsim = 0.0
            for term, qf in q.items():
                f = vec.get(term, 0)
                if f:
                    idf = math.log(n / support[term])
                    jsim += ((1.0 + math.log(qf)) * idf) * ((1.0 + math.log(f)) * idf)
            e = esim if esim > 0.0 else EPSILON
            j = jsim if jsim > 0.0 else EPSILON
            rows.append((doc_id, e * j))
        rows.sort(key=lambda r: (-r[1], r[0]))
        return rows


def ranking_differs(got, want, all_scores):
    """Compare [(doc_id, score)] lists. A position may hold another document
    only when the reference scores the two within SCORE_TOL of each other,
    so exact near-ties may break either way."""
    if len(got) != len(want):
        return True
    for (g_doc, g_score), (w_doc, w_score) in zip(got, want):
        if not math.isclose(g_score, w_score, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
            return True
        if g_doc != w_doc:
            ref = all_scores.get(g_doc)
            if ref is None or not math.isclose(ref, w_score, rel_tol=SCORE_TOL, abs_tol=SCORE_TOL):
                return True
    return False


def check_with_oracle(oracle, queries, results, workload):
    """Query ids among ``queries`` whose ranking disagrees with the oracle."""
    bad = []
    for query in queries:
        ranked = results[query.query_id]
        scored = oracle.stage_one(query.description)
        top = scored[: workload.depth]
        if workload.two_stage:
            got_first = sorted(((e.doc_id, e.esim) for e in ranked.entries),
                               key=lambda r: (-r[1], r[0]))
        else:
            got_first = [(e.doc_id, e.score) for e in ranked.entries]
        if ranking_differs(got_first, top, dict(scored)):
            bad.append(query.query_id)
            continue
        if workload.two_stage:
            want = oracle.second_stage(query.description, top)
            got = [(e.doc_id, e.sim) for e in ranked.entries]
            if ranking_differs(got, want, dict(want)):
                bad.append(query.query_id)
    return bad


def run_cli(argv):
    """In-process ``clir`` call with its console output captured.
    Returns (exit status, seconds)."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        status = cli.main(argv)
    return status, time.perf_counter() - t0


def cli_argv(verb, files, index_path, query_file, out, depth, stage=None):
    argv = [verb, "--index", index_path, "--query-file", query_file,
            "--method", "mpbt", "--mock-table", files.table, "--dict", files.dictionary,
            "--out", out]
    if verb == "search":
        return argv + ["--n", str(depth)]
    argv += ["--corpus", files.corpus]
    if verb == "search2":
        return argv + ["--n", str(depth), "--doc-channel", "mt", "--tail", "drop"]
    return argv + ["--qrels", files.qrels, "--stage", str(stage),
                   "--ns", ",".join(str(n) for n in depth)]


def sweep_cli_maps(path):
    """(depth, MAP text) per row of a ``clir sweep`` output file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.rstrip("\n").split("\t")
            if fields[0] == "sweep":
                rows.append((int(fields[2]), fields[3]))
    return rows
