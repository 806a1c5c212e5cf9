"""End-to-end orchestration: translate the query, search, translate the top
documents back, re-rank, and time each phase.

Only the top N retrieved documents are ever translated; that bound is the
cost/accuracy knob the whole design revolves around.
"""

import logging
import time
from dataclasses import dataclass, field

from clir.errors import ConfigError, NoPairError, NotFoundError, TranslationError
from clir.index import RankedList, search
from clir.rerank import CombineParams, TranslatedDocs, document_vector, rerank
from clir.translate import (
    CHANNEL_MT,
    DOC_CHANNELS,
    MTAdapter,
    TranslationMethod,
    translate_document,
    translate_query,
)

logger = logging.getLogger(__name__)

TAIL_DROP = "drop"
TAIL_KEEP = "keep"


class _RememberingAdapter(MTAdapter):
    """``adapter`` behind a table of its successful translations: a text it
    translated once between the same two languages is answered from the
    table. A failed call stores nothing, so the next one tries again.

    ``forget`` drops a stored document's texts that no later request can
    ask for: those no other field of its collection holds."""

    def __init__(self, adapter):
        self.adapter = adapter
        self.tables = {}  # (source language, target language) -> {text: translation}

    def translate(self, text, src, tgt):
        table = self.tables.get((src, tgt))
        if table is None:
            table = self.tables[src, tgt] = {}
        out = table.get(text)
        if out is None:
            out = table[text] = self.adapter.translate(text, src, tgt)
        return out

    def forget(self, doc, tgt, shared):
        """Drop the translations into ``tgt`` of ``doc``'s title, keywords
        and abstract, except those in ``shared``."""
        table = self.tables.get((doc.lang, tgt), {})
        for text in doc.texts:
            if text not in shared:
                table.pop(text, None)


class DocumentMemo:
    """Translated documents, kept term-major, and the translations of texts,
    reused across queries.

    A document's term vector depends on the document, the channel, the
    document adapter, the target language and the source analyzer, a frozen
    ``AnalyzerConfig`` that equal settings make an equal key; ``bucket``
    returns, for one such combination, the ``TranslatedDocs`` of the
    documents stored for it, and the set of doc_ids this memo's runs have
    used. The store holds one ``{doc_id: tf}`` map per term and each
    document's seconds spent translating and analysing it, which is the form
    ``rerank`` reads. Only successful translations are stored.

    ``translator`` wraps an adapter in a table of its successful
    translations, one ``{text: translation}`` dict per source and target
    language, so each distinct text reaches the adapter once per memo and
    source analyzer: a query unit or sentence asked again by a later query,
    or a title, keyword or abstract repeated across documents. Once a
    document's vector is stored, ``run_second_stage`` has the table forget
    the document's texts that no other field of the collection holds
    (``Corpus.shared_texts``), unless the document is in the query's
    language; a document stored again under another source analyzer sends
    those texts again. ``MTAdapter`` requires equal inputs to give equal
    outputs within a run, so the table changes no result.

    ``DocumentMemo(store)`` shares the stored documents and translations of
    the memo ``store`` and keeps its own record of used documents. The first
    time its runs use a document that another memo stored, the run charges
    that document's recorded seconds, so its times are what it would cost
    with a memo of its own. A translation another memo stored is not
    charged. A memo that shares nothing never charges anything.
    """

    def __init__(self, store=None):
        self.buckets = {} if store is None else store.buckets
        self.translators = {} if store is None else store.translators
        self.used = {}

    def bucket(self, channel, adapter, target_lang, analyzer):
        key = (channel, adapter, target_lang, analyzer)
        stored = self.buckets.get(key)
        if stored is None:
            stored = self.buckets[key] = TranslatedDocs()
        return stored, self.used.setdefault(key, set())

    def translator(self, adapter):
        """``adapter`` behind this memo's table of translations; None stays None."""
        if adapter is None:
            return None
        wrapped = self.translators.get(adapter)
        if wrapped is None:
            wrapped = self.translators[adapter] = _RememberingAdapter(adapter)
        return wrapped


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
    analysed again, and of the texts its adapters translated, so each
    distinct query unit, sentence, title, keyword or abstract reaches the
    translator once per config and source analyzer. It is not a setting:
    ``dataclasses.replace`` gives the new config an empty memo.
    """

    n_intermediate: int
    translation_method: TranslationMethod
    doc_channel: str = CHANNEL_MT
    combine: CombineParams = field(default_factory=CombineParams)
    output_depth: int = 1000
    tail_policy: str = TAIL_DROP
    doc_adapter: object = None
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
    the rest. A memo that shares another's store also charges the recorded
    seconds of each shared vector on its first use (see ``DocumentMemo``);
    ``total_s`` includes them too.
    """

    translation_s: float
    rerank_s: float
    total_s: float


def _check_target(index, cfg_tgt):
    if cfg_tgt != index.analyzer:
        raise ConfigError(f"translation target analyzer {cfg_tgt!r} is not the index's "
                          f"analyzer {index.analyzer!r}")


def first_stage_depth(cfg):
    """How deep the first stage must rank: the whole output under tail
    "keep", else the head that reaches the second stage."""
    return cfg.output_depth if cfg.tail_policy == TAIL_KEEP else cfg.n_intermediate


def run_first_stage(query, index, cfg, cfg_src, cfg_tgt, depth=None):
    """Translate the query and retrieve its top ``depth`` documents, by
    default ``first_stage_depth(cfg)``.

    The ranking at a smaller depth is an exact prefix of this one, because
    ties break on doc_id. The query's texts go to the translator through
    ``cfg.doc_memo``, so a text an earlier query sent is not sent again.
    Query terms left untranslated are logged as a warning, and so is a
    translated query whose terms match no document. ``cfg_tgt`` must
    equal ``index.analyzer``, which analyses the translated query.
    """
    _check_target(index, cfg_tgt)
    method = cfg.translation_method
    translated = translate_query(query, method, index, cfg_src,
                                 adapter=cfg.doc_memo.translator(method.adapter))
    if translated.unresolved:
        logger.warning("query %s: untranslated terms %s", query.query_id, translated.unresolved)
    depth = first_stage_depth(cfg) if depth is None else depth
    ranked = search(index, translated.terms, depth, query_id=query.query_id)
    if translated.terms.counts and not ranked.doc_ids:
        logger.warning("query %s: no document matches its translated terms", query.query_id)
    return ranked


# run_two_stage calls stage one by this private name, so that a tracer which
# wraps both public names (perfbench's does) times one run per query, not two
# nested ones
_run_first_stage = run_first_stage


def run_second_stage(query, stage_one, corpus, cfg, cfg_src, first_stage_s):
    """Translate the head of a first-stage ranking, re-rank it and, under
    tail "keep", append the rest of the first ``first_stage_depth(cfg)``
    entries of ``stage_one`` below it.

    ``stage_one`` is the query's first-stage ``RankedList``, at least as
    deep as the config needs. Each head document is translated and analysed
    once per ``cfg``: later runs take its vector from ``cfg.doc_memo``. Its
    title, keywords and abstract go to the translator through the same memo,
    so a text that another document already sent is not sent again; once
    the vector is stored, the memo forgets those of its texts that no other
    field of ``corpus`` holds, unless the document is in the query's
    language. Documents whose translation fails, or which are missing from
    ``corpus``, are logged and kept with a zero second-stage score; nothing
    is stored or forgotten, so the next run that retrieves them tries again
    and sends only what failed. The timing's ``total_s`` is this stage's
    time plus ``first_stage_s``, the time spent producing ``stage_one``.
    """
    t_run = time.perf_counter()
    n = cfg.n_intermediate
    head = RankedList(query.query_id, doc_ids=stage_one.doc_ids[:n], scores=stage_one.scores[:n])

    adapter = cfg.resolve_doc_adapter()
    stored, used = cfg.doc_memo.bucket(cfg.doc_channel, adapter, query.lang, cfg_src)
    adapter = cfg.doc_memo.translator(adapter)
    charged_s = 0.0
    t0 = time.perf_counter()
    for doc_id in head.doc_ids:
        if doc_id in used:
            continue
        hit = stored.docs.get(doc_id)
        if hit is None:
            t_doc = time.perf_counter()
            try:
                doc = corpus.get(doc_id)
                translated = translate_document(doc, cfg.doc_channel, corpus=corpus,
                                                adapter=adapter, target_lang=query.lang)
            except (TranslationError, NoPairError, NotFoundError) as exc:
                logger.warning("query %s: document %s kept untranslated: %s", query.query_id, doc_id, exc)
                continue
            counts = document_vector(translated, cfg_src).counts
            stored.add(doc_id, counts, time.perf_counter() - t_doc)
            if cfg.doc_channel == CHANNEL_MT and doc.lang != query.lang:
                adapter.forget(doc, query.lang, corpus.shared_texts)
        else:
            charged_s += hit
        used.add(doc_id)
    translation_s = time.perf_counter() - t0 + charged_s

    t0 = time.perf_counter()
    ranked = rerank(head, stored, query, cfg_src, cfg.combine)
    rerank_s = time.perf_counter() - t0

    tail = stage_one.scores[n : first_stage_depth(cfg)]
    if cfg.tail_policy == TAIL_KEEP and tail and ranked.scores:
        # First-stage scores need not sit below the combined scores above
        # them; remap into (0, floor) keeping the original order and ties.
        floor, top = ranked.scores[-1], tail[0]
        ranked.doc_ids += stage_one.doc_ids[n : n + len(tail)]
        ranked.scores.extend(floor * score / (2.0 * top) for score in tail)
    total_s = first_stage_s + time.perf_counter() - t_run + charged_s
    return ranked, TimingRecord(translation_s=translation_s, rerank_s=rerank_s, total_s=total_s)


def run_two_stage(query, index, corpus, cfg, cfg_src, cfg_tgt):
    """Full two-stage run for one query: ``run_first_stage`` then
    ``run_second_stage``.

    Returns the final ranked list and the per-phase timing, whose
    ``total_s`` covers both stages. The run never aborts over a single
    document whose translation fails.
    """
    t_run = time.perf_counter()
    stage_one = _run_first_stage(query, index, cfg, cfg_src, cfg_tgt)
    return run_second_stage(query, stage_one, corpus, cfg, cfg_src, time.perf_counter() - t_run)

