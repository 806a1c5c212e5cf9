"""Two-stage cross-language retrieval: translated-query search, re-ranking
over back-translated documents, and a TREC-style evaluation harness."""

__version__ = "0.1.0"

from clir.corpus import (
    AnalyzerConfig,
    Corpus,
    Document,
    Query,
    TermVector,
    analyze,
    load_corpus,
    load_queries,
    tokenize,
)
from clir.errors import (
    ClirError,
    ConfigError,
    IntegrityError,
    NoPairError,
    NotFoundError,
    ParseError,
    TranslationError,
)
from clir.evaluation import (
    EvalReport,
    Qrels,
    RunFile,
    average_precision,
    evaluate_run,
    load_qrels,
    mean_ap,
    read_run,
    sign_test,
    sweep_n,
    wilcoxon_signed_test,
    write_run,
)
from clir.index import (
    InvertedIndex,
    RankedList,
    ScoredDoc,
    build_index,
    load_index,
    save_index,
    search,
    weight_atc,
)
from clir.pipeline import (
    PipelineConfig,
    TimingRecord,
    run_first_stage,
    run_two_stage,
    translate_query,
)
from clir.rerank import (
    CombineParams,
    RerankedEntry,
    combine_scores,
    rerank,
    rerank_idf,
    rerank_tf,
    score_inner_product,
)
from clir.translate import (
    BilingualDictionary,
    CommandAdapter,
    IdentityAdapter,
    TableAdapter,
    TranslatedQuery,
    TranslationMethod,
    combine_translations,
    translate_document,
    translate_query_dict,
    translate_query_mt,
)
