"""End-to-end orchestration: translate the query, search, translate the top
documents back, re-rank, and time each phase.

Only the top N retrieved documents are ever translated; that bound is the
cost/accuracy knob the whole design revolves around.
"""

import logging
import re
import time
from dataclasses import dataclass, field, fields

from clir.corpus import TermVector
from clir.errors import ConfigError, NoPairError, ParseError, TranslationError
from clir.index import RankedList, ScoredDoc, search
from clir.rerank import CombineParams, document_vector, rerank
from clir.translate import (
    CHANNEL_MT,
    COMBINED,
    DICT_PHRASE,
    DOC_CHANNELS,
    MT_PHRASE,
    MT_SENTENCE,
    TranslationMethod,
    combine_translations,
    translate_document,
    translate_query_dict,
    translate_query_mt,
)

logger = logging.getLogger(__name__)

TAIL_DROP = "drop"
TAIL_KEEP = "keep"

# "#" opens a comment at the start of a line or after whitespace only
_COMMENT = re.compile(r"(?:^|\s)#")


def analyzer_settings(analyzer):
    """The analyzer's field values: equal settings give equal analyses, even
    from two distinct ``AnalyzerConfig`` objects."""
    return tuple(getattr(analyzer, f.name) for f in fields(analyzer))


class DocumentMemo:
    """Analysed term vectors of translated documents, reused across queries.

    A vector depends on the document, the channel, the document adapter, the
    target language and the source analyzer's settings; ``bucket`` returns the
    doc_id -> TermVector map for one such combination. Term strings are
    interned through one vocabulary, so a term shared by many stored vectors
    is held once. Only successful translations are stored.
    """

    def __init__(self):
        self.buckets = {}
        self.vocab = {}

    def bucket(self, channel, adapter, target_lang, analyzer):
        key = (channel, adapter, target_lang, analyzer_settings(analyzer))
        return self.buckets.setdefault(key, {})

    def intern(self, vec):
        vocab = self.vocab
        counts = {vocab.setdefault(t, t): f for t, f in vec.counts.items()}
        return TermVector(counts=counts, max_tf=vec.max_tf)


@dataclass
class PipelineConfig:
    """Settings of one two-stage run.

    ``n_intermediate`` is how many first-stage documents reach the second
    stage. With ``tail_policy="keep"`` the first-stage ranking between
    ``n_intermediate`` and ``output_depth`` is appended, in order, below the
    re-ranked block; "drop" truncates the run at the re-ranked block.
    ``doc_adapter`` translates retrieved documents and defaults to the query
    method's adapter; dictionary-only query translation combined with the
    machine document channel needs it set explicitly.

    Each config carries a ``doc_memo`` of the documents its runs translated,
    so a document retrieved again by a later query is neither translated nor
    analysed again. It is not a setting: ``dataclasses.replace`` gives the new
    config an empty memo.
    """

    n_intermediate: int
    translation_method: TranslationMethod
    doc_channel: str = CHANNEL_MT
    combine: CombineParams = field(default_factory=CombineParams)
    output_depth: int = 1000
    tail_policy: str = TAIL_DROP
    doc_adapter: object = None
    use_idf: bool = True
    doc_memo: DocumentMemo = field(
        default_factory=DocumentMemo, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        if self.n_intermediate < 1:
            raise ConfigError("n_intermediate must be >= 1")
        if self.output_depth < 1:
            raise ConfigError("output_depth must be >= 1")
        if self.doc_channel not in DOC_CHANNELS:
            raise ConfigError(f"unknown document channel {self.doc_channel!r}")
        if self.tail_policy not in (TAIL_DROP, TAIL_KEEP):
            raise ConfigError(f"unknown tail policy {self.tail_policy!r}")
        if self.tail_policy == TAIL_KEEP and self.n_intermediate > self.output_depth:
            raise ConfigError("with tail_policy 'keep', n_intermediate must not exceed output_depth")
        if self.doc_channel == CHANNEL_MT and self.resolve_doc_adapter() is None:
            raise ConfigError("machine document channel needs an adapter")

    def resolve_doc_adapter(self):
        return self.doc_adapter if self.doc_adapter is not None else self.translation_method.adapter


@dataclass
class TimingRecord:
    """Wall-clock seconds of the document-translation batch, the re-ranking
    call, and the whole run.

    ``translation_s`` covers fetching the head documents' vectors: translating
    and analysing the documents missing from the config's memo, and looking up
    the rest.
    """

    translation_s: float
    rerank_s: float
    total_s: float


def translate_query(query, method, index, cfg_src, cfg_tgt):
    """Produce target-language query terms with the configured method."""
    if method.kind == MT_SENTENCE:
        return translate_query_mt(query, method.adapter, "sentence", cfg_src, cfg_tgt)
    if method.kind == MT_PHRASE:
        return translate_query_mt(
            query, method.adapter, "phrase", cfg_src, cfg_tgt, phrases=method.dictionary
        )
    if method.kind == DICT_PHRASE:
        return translate_query_dict(query, method.dictionary, index, cfg_src)
    mt = translate_query_mt(
        query, method.adapter, "phrase", cfg_src, cfg_tgt, phrases=method.dictionary
    )
    by_dict = translate_query_dict(query, method.dictionary, index, cfg_src)
    return combine_translations(mt, by_dict)


def _check_langs(index, cfg_tgt):
    if index.lang != cfg_tgt.lang:
        raise ConfigError(
            f"index language {index.lang!r} does not match translation target {cfg_tgt.lang!r}"
        )


def first_stage_depth(cfg):
    """How deep the first stage must rank: the whole output under tail
    "keep", else the head that reaches the second stage."""
    return cfg.output_depth if cfg.tail_policy == TAIL_KEEP else cfg.n_intermediate


def run_first_stage(query, index, cfg, cfg_src, cfg_tgt, depth=None):
    """Translate the query and retrieve its top ``depth`` documents, by
    default ``first_stage_depth(cfg)``.

    The ranking at a smaller depth is an exact prefix of this one, because
    ties break on doc_id.
    """
    _check_langs(index, cfg_tgt)
    translated = translate_query(query, cfg.translation_method, index, cfg_src, cfg_tgt)
    depth = first_stage_depth(cfg) if depth is None else depth
    return search(index, translated.terms, depth, query_id=query.query_id)


# run_two_stage calls stage one by this private name, so that a tracer which
# wraps both public names (perfbench's does) times one run per query, not two
# nested ones
_run_first_stage = run_first_stage


def _rescaled_tail(tail, floor):
    # First-stage scores need not sit below the combined scores above them;
    # remap into (0, floor) keeping the original order and ties.
    top = tail[0].score
    return [ScoredDoc(e.doc_id, floor * e.score / (2.0 * top)) for e in tail]


def run_second_stage(query, stage_one, corpus, cfg, cfg_src, first_stage_s):
    """Translate the head of a first-stage ranking, re-rank it and, under
    tail "keep", append the rest of the first ``first_stage_depth(cfg)``
    entries of ``stage_one`` below it.

    ``stage_one`` is the query's ranked first-stage entries, at least as
    deep as the config needs. Each head document is translated and analysed
    once per ``cfg``: later runs take its vector from ``cfg.doc_memo``.
    Documents whose translation fails are logged and kept with a zero
    second-stage score, and are tried again by the next run that retrieves
    them. The timing's ``total_s`` is this stage's time plus
    ``first_stage_s``, the time spent producing ``stage_one``.
    """
    t_run = time.perf_counter()
    head = stage_one[: cfg.n_intermediate]
    tail = stage_one[cfg.n_intermediate : first_stage_depth(cfg)]

    adapter = cfg.resolve_doc_adapter()
    memo = cfg.doc_memo.bucket(cfg.doc_channel, adapter, query.lang, cfg_src)
    doc_vectors = {}
    t0 = time.perf_counter()
    for entry in head:
        vec = memo.get(entry.doc_id)
        if vec is None:
            doc = corpus.get(entry.doc_id)
            try:
                translated = translate_document(
                    doc, cfg.doc_channel, corpus=corpus, adapter=adapter, target_lang=query.lang
                )
            except (TranslationError, NoPairError) as exc:
                logger.warning("query %s: document %s kept untranslated: %s", query.query_id, entry.doc_id, exc)
                continue
            vec = memo[entry.doc_id] = cfg.doc_memo.intern(document_vector(translated, cfg_src))
        doc_vectors[entry.doc_id] = vec
    translation_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reranked = rerank(
        RankedList(query_id=query.query_id, entries=head),
        doc_vectors,
        query,
        cfg_src,
        cfg.combine,
        use_idf=cfg.use_idf,
    )
    rerank_s = time.perf_counter() - t0

    entries = list(reranked.entries)
    if cfg.tail_policy == TAIL_KEEP and tail and entries:
        entries.extend(_rescaled_tail(tail, entries[-1].sim))
    total_s = first_stage_s + time.perf_counter() - t_run
    return RankedList(query_id=query.query_id, entries=entries), TimingRecord(
        translation_s=translation_s, rerank_s=rerank_s, total_s=total_s
    )


def run_two_stage(query, index, corpus, cfg, cfg_src, cfg_tgt):
    """Full two-stage run for one query: ``run_first_stage`` then
    ``run_second_stage``.

    Returns the final ranked list and the per-phase timing, whose
    ``total_s`` covers both stages. The run never aborts over a single
    document whose translation fails.
    """
    t_run = time.perf_counter()
    stage_one = _run_first_stage(query, index, cfg, cfg_src, cfg_tgt)
    return run_second_stage(
        query, stage_one.entries, corpus, cfg, cfg_src, time.perf_counter() - t_run
    )


def read_config(path):
    """Read a ``key = value`` settings file; keys mirror the CLI flag names."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", path, line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            if not key:
                raise ParseError("empty key", path, line_no)
            values[key] = value.strip()
    return values
