"""Command-line front end: build indexes, run one- and two-stage searches,
score runs against judgments, and sweep translation depths.

Exit status: 0 on success, 1 on a usage error, 2 on a data or adapter error.
Results go to stdout or the --out file; diagnostics and timing to stderr.
"""

import argparse
import contextlib
import logging
import re
import sys
from collections import namedtuple

from clir.corpus import (
    CHARACTER_BIGRAM,
    WHITESPACE_WORD,
    AnalyzerConfig,
    load_corpus,
    load_queries,
)
from clir.errors import ClirError, ConfigError, IntegrityError, ParseError
from clir.evaluation import (
    SweepSystem,
    check_depths,
    check_level,
    check_query_id,
    check_run_token,
    evaluate_run,
    format_comparison,
    format_report,
    format_sweep,
    load_qrels,
    read_run,
    run_lines,
    sign_test,
    sweep_n,
    sweep_runs,
    wilcoxon_signed_test,
)
from clir.files import discard, read_lines, replacing
from clir.index import build_index, load_index, save_index
from clir.pipeline import TAIL_DROP, TAIL_KEEP, PipelineConfig
from clir.rerank import CombineParams
from clir.translate import (
    CHANNEL_HT,
    CHANNEL_MT,
    METHOD_KINDS,
    MT_SENTENCE,
    BilingualDictionary,
    CommandAdapter,
    IdentityAdapter,
    TableAdapter,
    TranslationMethod,
)

# stage 1: a flag of every query verb; stage 2: of the two-stage verbs only
_Setting = namedtuple("_Setting", "stage help type choices metavar",
                      defaults=(str, None, None))

# Every run setting, in --help order: a flag and the same-named --config key.
# None has a default here: a setting left unset is not passed on, so the
# library's default applies (--n's 1000 is in _pipeline_config).
SETTINGS = {
    "n": _Setting(1, "retrieval depth of the first stage (default 1000)", int, metavar="N"),
    "method": _Setting(1, "query translation method (default mts with the identity adapter)",
                       choices=sorted(METHOD_KINDS)),
    "adapter-cmd": _Setting(1, "external translator command; receives source and target "
                               "language as arguments, text on stdin, and prints the translation",
                            metavar="CMD"),
    "mock-table": _Setting(1, "exact-match translation table file", metavar="PATH"),
    "dict": _Setting(1, "bilingual dictionary file", metavar="PATH"),
    "tag": _Setting(1, "run tag (default: derived from the method)", metavar="TAG"),
    "doc-channel": _Setting(2, "how retrieved documents come back to the query language: machine "
                               "translation or comparable human-written pairs (default mt)",
                            choices=(CHANNEL_MT, CHANNEL_HT)),
    "alpha": _Setting(2, "exponent on the original-query score (default 1)", float, metavar="A"),
    "beta": _Setting(2, "exponent on the translated-query score (default 1)", float, metavar="B"),
    "epsilon": _Setting(2, "floor substituted for zero scores before combining (default 0.0001)",
                        float, metavar="E"),
    "tail": _Setting(2, "below the re-ranked block, drop first-stage results or keep them "
                        "(default drop)", choices=(TAIL_DROP, TAIL_KEEP)),
    "depth": _Setting(2, "output depth with --tail keep (default 1000)", int, metavar="K"),
}

# "#" opens a comment at the start of a line or after whitespace only
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config(path):
    """Read a ``key = value`` settings file; keys mirror the CLI flag names
    and each may appear once."""
    values = {}
    first_lines = {}
    for line_no, raw in read_lines(path):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", path, line_no)
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ParseError("empty key", path, line_no)
        if key in values:
            raise ParseError(f"configuration key {key!r} repeated; first set on line "
                             f"{first_lines[key]}", path, line_no)
        values[key] = value.strip()
        first_lines[key] = line_no
    return values


class UsageError(Exception):
    pass


class _Formatter(argparse.HelpFormatter):
    # fixed width keeps --help output identical across terminals
    def __init__(self, prog):
        super().__init__(prog, max_help_position=26, width=96)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise UsageError(message)


def _usage_error(message):
    print(f"clir: error: {message}", file=sys.stderr)
    raise UsageError(message)


def _add_common(p):
    p.add_argument("--out", metavar="PATH", help="write results here instead of stdout")
    p.add_argument("--verbose", "-v", action="store_true", help="more diagnostics on stderr")


def _add_run_flags(p, two_stage=False):
    p.add_argument("--config", metavar="PATH",
                   help="key = value file supplying defaults for the flags below")
    for key, setting in SETTINGS.items():
        if setting.stage == 1 or two_stage:
            p.add_argument("--" + key, type=setting.type, choices=setting.choices,
                           metavar=setting.metavar, help=setting.help)


def build_parser() -> _Parser:
    parser = _Parser(prog="clir", formatter_class=_Formatter,
                     description="Two-stage cross-language retrieval and its evaluation.")
    sub = parser.add_subparsers(dest="verb", metavar="verb", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("index", formatter_class=_Formatter,
                       help="build and save an inverted index",
                       description="Build an inverted index over one language of a collection.")
    p.add_argument("--corpus", required=True, metavar="PATH", help="JSON-lines collection")
    p.add_argument("--lang", required=True, metavar="LANG", help="language to index")
    p.add_argument("--stopwords", metavar="PATH", help="stopword file, one word per line")
    p.add_argument("--tokenizer", choices=("word", "bigram"), default="word",
                   help="whitespace words or character bigrams (default word)")
    p.add_argument("--min-token-len", type=int, default=1, metavar="L",
                   help="drop word tokens shorter than this (default 1)")
    p.add_argument("--out", required=True, metavar="PATH", help="index file to write")
    p.add_argument("--verbose", "-v", action="store_true", help="more diagnostics on stderr")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", formatter_class=_Formatter,
                       help="first-stage search with a translated query",
                       description="Translate each query and rank documents against the index.")
    p.add_argument("--index", required=True, metavar="PATH", help="index file")
    p.add_argument("--query-file", required=True, metavar="PATH", help="JSON-lines queries")
    _add_run_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("search2", formatter_class=_Formatter,
                       help="two-stage search with re-ranking",
                       description="First-stage search, then translate the top N documents "
                                   "back and re-rank them against the original query.")
    p.add_argument("--index", required=True, metavar="PATH", help="index file")
    p.add_argument("--corpus", required=True, metavar="PATH",
                   help="collection holding the indexed documents and any comparable pairs")
    p.add_argument("--query-file", required=True, metavar="PATH", help="JSON-lines queries")
    _add_run_flags(p, two_stage=True)
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", formatter_class=_Formatter,
                       help="score a run against relevance judgments",
                       description="Average precision per query and its mean; optionally "
                                   "compare two runs with a paired significance test.")
    p.add_argument("--run", required=True, metavar="PATH", help="run file to score")
    p.add_argument("--qrels", required=True, metavar="PATH", help="relevance judgments")
    p.add_argument("--lenient", action="store_true",
                   help="count partially relevant documents as relevant")
    p.add_argument("--compare", metavar="PATH", help="second run for a paired comparison")
    p.add_argument("--level", type=float, default=0.05, metavar="P",
                   help="significance level (default 0.05)")
    p.add_argument("--sign-test", action="store_true",
                   help="also report the plain sign test for the comparison")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", formatter_class=_Formatter,
                       help="accuracy and timing across first-stage depths",
                       description="Run the pipeline at several depths N and tabulate mean "
                                   "average precision and per-phase time for each.")
    p.add_argument("--index", required=True, metavar="PATH", help="index file")
    p.add_argument("--corpus", required=True, metavar="PATH", help="JSON-lines collection")
    p.add_argument("--query-file", required=True, metavar="PATH", help="JSON-lines queries")
    p.add_argument("--qrels", required=True, metavar="PATH", help="relevance judgments")
    p.add_argument("--ns", required=True, metavar="N1,N2,...",
                   help="comma-separated depths, ascending")
    p.add_argument("--stage", type=int, choices=(1, 2), default=2,
                   help="truncate after the first stage (1) or re-rank (2, default)")
    p.add_argument("--lenient", action="store_true",
                   help="count partially relevant documents as relevant")
    _add_run_flags(p, two_stage=True)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _merge_config(args):
    """Fill the settings the command line left unset from the --config file,
    which is checked as a whole, whatever the verb and the command line: a
    repeated or unknown key or a value that does not parse as its type is a
    data error, a value outside its setting's choices a usage error, and a
    key the verb has no flag for is ignored. A run tag that cannot be one
    field of a run line is a usage error. All before any data file is read."""
    path = getattr(args, "config", None)
    for key, raw in (read_config(path) if path else {}).items():
        setting = SETTINGS.get(key)
        if setting is None:
            raise ConfigError(f"{path}: unknown configuration key {key!r}")
        try:
            value = setting.type(raw)
        except ValueError:
            raise ConfigError(f"{path}: bad value for configuration key {key!r}: {raw!r}") from None
        if setting.choices and value not in setting.choices:
            _usage_error(f"{path}: bad value for configuration key {key!r}: {raw!r} "
                         f"(choose from {', '.join(setting.choices)})")
        dest = key.replace("-", "_")
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)
    if getattr(args, "tag", None):
        with _usage_errors():
            check_run_token(args.tag)


@contextlib.contextmanager
def _usage_errors():
    """Around the construction of the library's config objects: a value they
    reject is a usage error."""
    try:
        yield
    except (ConfigError, ValueError) as exc:
        _usage_error(str(exc))


def _build_adapter(args):
    if args.adapter_cmd and args.mock_table:
        _usage_error("--adapter-cmd and --mock-table are mutually exclusive")
    if args.adapter_cmd:
        return CommandAdapter(args.adapter_cmd)
    if args.mock_table:
        return TableAdapter.from_file(args.mock_table)
    return None


def _build_method(args, adapter):
    """Resolve the query translation method from flags.

    Without --method, queries are used as-is (sentence mode through the
    identity adapter), which makes monolingual runs work with no extras.
    """
    if args.method is None:
        return TranslationMethod(kind=MT_SENTENCE, adapter=adapter or IdentityAdapter())
    dictionary = BilingualDictionary.from_file(args.dict) if args.dict else None
    with _usage_errors():
        return TranslationMethod(kind=args.method, adapter=adapter, dictionary=dictionary)


def _given(args, **dests):
    """{parameter: value} of each flag, named by its dest, that the command
    line or the --config file set; the library's defaults stand for the rest."""
    return {param: getattr(args, dest) for param, dest in dests.items()
            if getattr(args, dest, None) is not None}


def _pipeline_config(args, n, two_stage=True):
    """The settings the flags describe, checked before any collection file is
    loaded. ``n`` None is --n's default 1000, the one default the CLI keeps:
    ``n_intermediate`` has none in the library. Stage one alone never
    translates documents, so its channel is ht, which needs no adapter."""
    method = _build_method(args, _build_adapter(args))
    settings = _given(args, doc_channel="doc_channel", output_depth="depth", tail_policy="tail")
    if not two_stage:
        settings["doc_channel"] = CHANNEL_HT
    with _usage_errors():
        return PipelineConfig(
            n_intermediate=1000 if n is None else n,
            translation_method=method,
            combine=CombineParams(**_given(args, alpha="alpha", beta="beta", epsilon="epsilon")),
            **settings,
        )


def _source_analyzer(query):
    """Analyzer settings of a query's own language, for its translation and
    for the re-rank against it."""
    return AnalyzerConfig(lang=query.lang)


def _default_tag(args, suffix=""):
    if args.tag:
        return args.tag
    return (args.method or "plain") + suffix


def _emit(texts, out_path):
    """Write each text as it comes, to stdout or through the one writer, and
    return the exit status: 0, or 141 (128 + SIGPIPE, as a shell reports for
    ``cat``) once the reader has closed the pipe, which stops the command."""
    with replacing(out_path) if out_path else contextlib.nullcontext(sys.stdout) as fh:
        for text in texts:
            try:
                fh.write(text)
                fh.flush()
            except BrokenPipeError:
                discard(fh)  # the flush at exit then has nothing to fail on
                return 141
    return 0


def _load_stopwords(path):
    words = (line.strip().lower() for _, line in read_lines(path))
    return frozenset(word for word in words if not word.startswith("#"))


def _load_run_queries(path):
    """The queries of ``path``, every id checked as a run file's query id
    before any query runs."""
    queries = load_queries(path)
    for query in queries:
        try:
            check_query_id(query.query_id)
        except ValueError as exc:
            raise IntegrityError(f"{path}: {exc}") from None
    return queries


def cmd_index(args) -> int:
    stopwords = _load_stopwords(args.stopwords) if args.stopwords else frozenset()
    kind = CHARACTER_BIGRAM if args.tokenizer == "bigram" else WHITESPACE_WORD
    with _usage_errors():
        cfg = AnalyzerConfig(lang=args.lang, stopword_list=stopwords,
                             tokenizer_kind=kind, min_token_len=args.min_token_len)
    corpus = load_corpus(args.corpus).filter_lang(args.lang)
    index = build_index(corpus, cfg)
    save_index(index, args.out)
    print(f"indexed {index.num_docs} documents, {len(index.df)} terms -> {args.out}",
          file=sys.stderr)
    return 0


def cmd_search(args) -> int:
    two_stage = args.verb == "search2"
    cfg = _pipeline_config(args, args.n, two_stage)
    index = load_index(args.index)
    corpus = load_corpus(args.corpus) if two_stage else None
    queries = _load_run_queries(args.query_file)
    tag = _default_tag(args, "+" + cfg.doc_channel if two_stage else "")
    runs = sweep_runs(queries, index, corpus, [SweepSystem("", cfg, two_stage)],
                      _source_analyzer, index.analyzer, [cfg.n_intermediate])
    return _emit(_run_texts(runs, tag, two_stage, args.verbose), args.out)


def _run_texts(runs, tag, two_stage, verbose):
    """Each query's run lines as one text, for ``search`` and ``search2`` to
    write as the query finishes. search2 logs the query's timing first, and
    with --verbose precedes each re-ranked line with a comment carrying its
    component scores (a stage-one ranking has none)."""
    for _, _, query, ranked, timing in runs:
        if two_stage:
            print(f"timing {query.query_id} translation_s={timing.translation_s:.3f} "
                  f"rerank_s={timing.rerank_s:.3f} total_s={timing.total_s:.3f}", file=sys.stderr)
        lines = run_lines(query.query_id, ranked, tag)
        if verbose:
            lines[:len(ranked.esims)] = [
                f"# {query.query_id} {doc_id} esim={esim!r} jsim={jsim!r} sim={sim!r}\n{line}"
                for line, doc_id, esim, jsim, sim in zip(lines, ranked.doc_ids, ranked.esims,
                                                         ranked.jsims, ranked.scores)]
        yield "".join(lines)


def cmd_eval(args) -> int:
    with _usage_errors():
        check_level(args.level)
    qrels = load_qrels(args.qrels)
    run = read_run(args.run)
    strict = not args.lenient
    report = evaluate_run(run, qrels, strict)
    blocks = [format_report(report)]
    if args.compare:
        other = read_run(args.compare)
        other_report = evaluate_run(other, qrels, strict)
        blocks.append(format_report(other_report))
        pairs = [
            (report.per_query_ap[q], other_report.per_query_ap[q])
            for q in sorted(report.per_query_ap)
        ]
        result = wilcoxon_signed_test(pairs, level=args.level)
        blocks.append(format_comparison(run.tag or "run-a", other.tag or "run-b", result))
        if args.sign_test:
            s = sign_test(pairs, level=args.level)
            p_text = "NA" if s.p_value is None else f"{s.p_value:.6g}"
            blocks.append(
                f"sign_test\tn\t{s.n}\tpositive\t{s.num_positive}\tnegative\t{s.num_negative}"
                f"\tp_value\t{p_text}\tsignificant\t{'yes' if s.significant else 'no'}"
            )
    return _emit(["\n".join(blocks) + "\n"], args.out)


def cmd_sweep(args) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError:
        _usage_error(f"--ns must be a comma-separated list of integers, got {args.ns!r}")
    with _usage_errors():
        check_depths(ns)
    two_stage = args.stage == 2
    # checked at the largest depth, so no per-depth config can fail later
    cfg = _pipeline_config(args, ns[-1], two_stage)
    index = load_index(args.index)
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.query_file)
    qrels = load_qrels(args.qrels)
    name = _default_tag(args, "+" + cfg.doc_channel if two_stage else "")
    system = SweepSystem(name=name, cfg=cfg, two_stage=two_stage)
    points = sweep_n(
        queries, index, corpus, [system], _source_analyzer, index.analyzer,
        qrels, ns, strict=not args.lenient,
    )
    return _emit([format_sweep(points) + "\n"], args.out)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError:
        return 1
    except SystemExit as exc:
        return exc.code or 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        _merge_config(args)
        return args.func(args)
    except UsageError:
        return 1
    except (ClirError, OSError, ValueError) as exc:
        print(f"clir: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
