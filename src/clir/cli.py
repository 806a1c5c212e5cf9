"""Command-line front end: build indexes, run one- and two-stage searches,
score runs against judgments, and sweep translation depths.

Exit status: 0 on success, 1 on a usage error, 2 on a data or adapter error.
Results go to stdout or the --out file; diagnostics and timing to stderr.
"""

import argparse
import contextlib
import logging
import sys

from clir.corpus import (
    CHARACTER_BIGRAM,
    WHITESPACE_WORD,
    AnalyzerConfig,
    load_corpus,
    load_queries,
)
from clir.errors import ClirError, ConfigError
from clir.evaluation import (
    SignTestResult,
    SweepSystem,
    WilcoxonResult,
    check_depths,
    check_level,
    evaluate_run,
    format_comparison,
    format_report,
    format_run,
    format_sweep,
    load_qrels,
    read_run,
    run_from_ranked,
    sign_test,
    sweep_n,
    wilcoxon_signed_test,
)
from clir.files import read_lines
from clir.index import build_index, load_index, save_index, search
from clir.pipeline import (
    TAIL_DROP,
    TAIL_KEEP,
    DocumentMemo,
    PipelineConfig,
    read_config,
    run_two_stage,
    translate_query,
)
from clir.rerank import CombineParams
from clir.translate import (
    CHANNEL_HT,
    CHANNEL_MT,
    COMBINED,
    DICT_PHRASE,
    MT_PHRASE,
    MT_SENTENCE,
    BilingualDictionary,
    CommandAdapter,
    IdentityAdapter,
    TableAdapter,
    TranslationMethod,
)

logger = logging.getLogger(__name__)

METHOD_FLAGS = {
    "mts": MT_SENTENCE,
    "mtp": MT_PHRASE,
    "pbt": DICT_PHRASE,
    "mpbt": COMBINED,
}

# keys accepted in a --config file; values mirror the same-named flags
_CONFIG_KEYS = {
    "n": int,
    "method": str,
    "doc-channel": str,
    "alpha": float,
    "beta": float,
    "epsilon": float,
    "tail": str,
    "adapter-cmd": str,
    "dict": str,
    "mock-table": str,
    "tag": str,
}

# values of flags left unset on the command line and in the --config file
_DEFAULTS = {
    "n": 1000,
    "doc_channel": CHANNEL_MT,
    "tail": TAIL_DROP,
    "alpha": 1.0,
    "beta": 1.0,
    "epsilon": 0.0001,
}


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


def _add_translation_flags(p):
    p.add_argument("--config", metavar="PATH",
                   help="key = value file supplying defaults for the flags below")
    p.add_argument("--n", type=int, metavar="N",
                   help="retrieval depth of the first stage (default 1000)")
    p.add_argument("--method", choices=sorted(METHOD_FLAGS),
                   help="query translation method (default mts with the identity adapter)")
    p.add_argument("--adapter-cmd", metavar="CMD",
                   help="external translator command; receives source and target language "
                        "as arguments, text on stdin, and prints the translation")
    p.add_argument("--mock-table", metavar="PATH", help="exact-match translation table file")
    p.add_argument("--dict", metavar="PATH", help="bilingual dictionary file")
    p.add_argument("--tag", metavar="TAG", help="run tag (default: derived from the method)")


def _add_second_stage_flags(p):
    p.add_argument("--doc-channel", choices=(CHANNEL_MT, CHANNEL_HT),
                   help="how retrieved documents come back to the query language: "
                        "machine translation or comparable human-written pairs (default mt)")
    p.add_argument("--alpha", type=float, metavar="A",
                   help="exponent on the original-query score (default 1)")
    p.add_argument("--beta", type=float, metavar="B",
                   help="exponent on the translated-query score (default 1)")
    p.add_argument("--epsilon", type=float, metavar="E",
                   help="floor substituted for zero scores before combining (default 0.0001)")
    p.add_argument("--tail", choices=(TAIL_DROP, TAIL_KEEP),
                   help="below the re-ranked block, drop first-stage results or keep them "
                        "(default drop)")
    p.add_argument("--depth", type=int, default=1000, metavar="K",
                   help="output depth with --tail keep (default 1000)")


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
    _add_translation_flags(p)
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
    _add_translation_flags(p)
    _add_second_stage_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_search2)

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
    _add_translation_flags(p)
    _add_second_stage_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    return parser


def _merge_config(args):
    """Fill unset translation/pipeline flags from the --config file, then
    apply the documented defaults."""
    if getattr(args, "config", None):
        for key, raw in read_config(args.config).items():
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"{args.config}: unknown configuration key {key!r}")
            dest = key.replace("-", "_")
            if getattr(args, dest, None) is None:
                try:
                    setattr(args, dest, _CONFIG_KEYS[key](raw))
                except ValueError:
                    raise ConfigError(
                        f"{args.config}: bad value for configuration key {key!r}: {raw!r}"
                    ) from None
    for dest, value in _DEFAULTS.items():
        if hasattr(args, dest) and getattr(args, dest) is None:
            setattr(args, dest, value)


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
    if args.method not in METHOD_FLAGS:
        _usage_error(f"unknown method {args.method!r}")
    dictionary = BilingualDictionary.from_file(args.dict) if args.dict else None
    with _usage_errors():
        return TranslationMethod(kind=METHOD_FLAGS[args.method], adapter=adapter,
                                 dictionary=dictionary)


def _pipeline_config(args, n, doc_channel):
    """The two-stage settings the flags describe, checked before any
    collection file is loaded."""
    adapter = _build_adapter(args)
    method = _build_method(args, adapter)
    with _usage_errors():
        return PipelineConfig(
            n_intermediate=n,
            translation_method=method,
            doc_channel=doc_channel,
            combine=CombineParams(alpha=args.alpha, beta=args.beta, epsilon=args.epsilon),
            output_depth=args.depth,
            tail_policy=args.tail,
            doc_adapter=adapter,
        )


def _default_tag(args, suffix=""):
    if args.tag:
        return args.tag
    return (args.method or "plain") + suffix


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_stopwords(path):
    words = (line.strip().lower() for _, line in read_lines(path))
    return frozenset(word for word in words if not word.startswith("#"))


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
    if args.n < 1:
        _usage_error("--n must be at least 1")
    method = _build_method(args, _build_adapter(args))
    # one table of translations for the command, as in search2 and sweep
    adapter = DocumentMemo().translator(method.adapter)
    index = load_index(args.index)
    queries = load_queries(args.query_file)
    ranked_lists = []
    for query in queries:
        cfg_src = AnalyzerConfig(lang=query.lang)
        translated = translate_query(query, method, index, cfg_src, index.analyzer, adapter=adapter)
        if translated.unresolved:
            logger.warning("query %s: untranslated terms %s", query.query_id, translated.unresolved)
        ranked_lists.append(search(index, translated.terms, args.n, query_id=query.query_id))
    run = run_from_ranked(ranked_lists, _default_tag(args))
    _emit(format_run(run), args.out)
    return 0


def cmd_search2(args) -> int:
    cfg = _pipeline_config(args, args.n, args.doc_channel)
    index = load_index(args.index)
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.query_file)
    ranked_lists = []
    for query in queries:
        cfg_src = AnalyzerConfig(lang=query.lang)
        ranked, timing = run_two_stage(query, index, corpus, cfg, cfg_src, index.analyzer)
        print(f"timing {query.query_id} translation_s={timing.translation_s:.3f} "
              f"rerank_s={timing.rerank_s:.3f} total_s={timing.total_s:.3f}", file=sys.stderr)
        ranked_lists.append(ranked)
    text = format_run(run_from_ranked(ranked_lists, _default_tag(args, "+" + args.doc_channel)))
    if args.verbose:
        # the same run lines, each re-ranked document preceded by a comment
        # carrying its component scores
        run_lines = iter(text.splitlines(keepends=True))
        lines = []
        for ranked in ranked_lists:
            for entry in ranked.entries:
                if hasattr(entry, "esim"):
                    lines.append(f"# {ranked.query_id} {entry.doc_id} esim={entry.esim!r} "
                                 f"jsim={entry.jsim!r} sim={entry.sim!r}\n")
                lines.append(next(run_lines))
        text = "".join(lines)
    _emit(text, args.out)
    return 0


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
        # with no judged query the tests carry no information, as for equal runs
        result = (wilcoxon_signed_test(pairs, level=args.level) if pairs
                  else WilcoxonResult.no_information())
        blocks.append(format_comparison(run.tag or "run-a", other.tag or "run-b", result))
        if args.sign_test:
            s = sign_test(pairs, level=args.level) if pairs else SignTestResult.no_information()
            p_text = "NA" if s.p_value is None else f"{s.p_value:.6g}"
            blocks.append(
                f"sign_test\tn\t{s.n}\tpositive\t{s.num_positive}\tnegative\t{s.num_negative}"
                f"\tp_value\t{p_text}\tsignificant\t{'yes' if s.significant else 'no'}"
            )
    _emit("\n".join(blocks) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    try:
        ns = [int(x) for x in args.ns.split(",") if x.strip()]
    except ValueError:
        _usage_error(f"--ns must be a comma-separated list of integers, got {args.ns!r}")
    with _usage_errors():
        check_depths(ns)
    two_stage = args.stage == 2
    # checked at the largest depth, so no per-depth config can fail later;
    # stage 1 never translates documents, so its channel needs no adapter
    cfg = _pipeline_config(args, ns[-1], args.doc_channel if two_stage else CHANNEL_HT)
    index = load_index(args.index)
    corpus = load_corpus(args.corpus)
    queries = load_queries(args.query_file)
    qrels = load_qrels(args.qrels)
    name = _default_tag(args, "+" + args.doc_channel if two_stage else "")
    system = SweepSystem(name=name, cfg=cfg, two_stage=two_stage)
    points = sweep_n(
        queries, index, corpus, [system],
        lambda q: AnalyzerConfig(lang=q.lang), index.analyzer,
        qrels, ns, strict=not args.lenient,
    )
    _emit(format_sweep(points) + "\n", args.out)
    return 0


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
