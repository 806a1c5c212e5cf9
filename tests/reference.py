"""A stateless reference engine: a two-stage run computed from README's
definitions, for the differential test of whole query sequences.

It keeps plain dicts keyed by doc_id and term: no ordinals, no posting
lists, no kept products or dictionary choices, no memo of translated
documents and no table of translations. Nothing outlives one run, so a
query's ranking cannot depend on the queries or cells before it. Every sum
runs in README's order: a document's norm in its own token order, and the
query norm, the dot products and the second-stage inner products in query
term order, each from 0.0 and left to right.

Only the analyzer settings, the translation method, the adapters and the
settings of a ``PipelineConfig`` are read from the library, as data; every
score is computed here.
"""

import math
import string
import sys
from collections import Counter

from clir.corpus import CHARACTER_BIGRAM
from clir.errors import TranslationError
from clir.pipeline import TAIL_KEEP
from clir.translate import CHANNEL_HT, COMBINED, DICT_PHRASE, MT_PHRASE, MT_SENTENCE

_MAX_SCORE = sys.float_info.max


def tokenize(text, cfg):
    """The analyzer: lowercase; character bigrams of each whitespace-free run
    (a one-character run is its own token), or whitespace words stripped of
    punctuation at their edges and kept from ``min_token_len`` characters on;
    then stopwords out."""
    text = text.lower()
    if cfg.tokenizer_kind == CHARACTER_BIGRAM:
        tokens = [run if len(run) == 1 else run[i:i + 2]
                  for run in text.split() for i in range(max(len(run) - 1, 1))]
    else:
        words = [word.strip(string.punctuation) for word in text.split()]
        tokens = [word for word in words if word and len(word) >= cfg.min_token_len]
    return [token for token in tokens if token not in cfg.stopword_list]


def term_counts(tokens):
    """{term: tf} in the order of each term's first occurrence."""
    counts = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return counts


def indexable_text(doc):
    return " ".join(part for part in (doc.title, *doc.keywords, doc.abstract) if part)


def shared_texts(docs):
    """The texts that more than one title, keyword or abstract holds."""
    held = Counter(text for doc in docs for text in (doc.title, *doc.keywords, doc.abstract))
    return {text for text, k in held.items() if k > 1}


class Collection:
    """The indexed documents: document frequencies, and each document's
    weights {term: weight} and norm, the weights in its token order."""

    def __init__(self, documents, analyzer):
        self.analyzer = analyzer
        counts = {doc.doc_id: term_counts(tokenize(indexable_text(doc), analyzer))
                  for doc in documents}
        self.num_docs = len(counts)
        self.df = Counter(term for terms in counts.values() for term in terms)
        self.weights = {doc_id: _augmented(terms, self.idf) for doc_id, terms in counts.items()}
        self.norms = {doc_id: _norm(weights) for doc_id, weights in self.weights.items()}

    def idf(self, term):
        return math.log(self.num_docs / self.df[term]) if term in self.df else 0.0


def _augmented(counts, idf):
    """{term: (0.5 + 0.5 tf / max_tf) idf} in term order, a zero idf left out;
    max_tf is taken over every term of ``counts``."""
    max_tf = max(counts.values(), default=0)
    return {term: (0.5 + 0.5 * tf / max_tf) * idf(term) for term, tf in counts.items()
            if idf(term)}


def _norm(weights):
    total = 0.0
    for w in weights.values():
        total += w * w
    return math.sqrt(total)


def segment(tokens, dictionary):
    """Greedy longest match of the dictionary's source phrases: (unit, candidates or None)."""
    entries = dictionary.entries if dictionary is not None else {}
    longest = max(map(len, entries), default=0)
    units, i = [], 0
    while i < len(tokens):
        span = next((s for s in range(min(longest, len(tokens) - i), 0, -1)
                     if entries.get(tuple(tokens[i:i + s]))), 1)
        units.append((" ".join(tokens[i:i + span]), entries.get(tuple(tokens[i:i + span]))))
        i += span
    return units


def translate_query(coll, query, method, cfg_src):
    """The translated query's term counts, in the target analyzer's terms."""
    target = coll.analyzer
    if method.kind == MT_SENTENCE:
        if not query.description.strip():
            return {}
        out = method.adapter.translate(query.description, query.lang, target.lang)
        return term_counts(tokenize(out, target))
    units = segment(tokenize(query.description, cfg_src), method.dictionary)
    tokens = []
    if method.kind in (MT_PHRASE, COMBINED):
        for unit, _ in units:
            tokens += tokenize(method.adapter.translate(unit, query.lang, target.lang), target)
    if method.kind in (DICT_PHRASE, COMBINED):
        for _, candidates in units:
            if candidates:
                # the candidate of highest df, a candidate's df being the
                # least of its terms'; ties to the lexicographically first
                def df(c):
                    return min((coll.df.get(t, 0) for t in tokenize(c, target)), default=0)
                best = min(candidates, key=lambda c: (-df(c), c))
                tokens += tokenize(best, target)
    return term_counts(tokens)


def first_stage(coll, query, method, cfg_src, depth):
    """[(doc_id, cosine)] of the top ``depth``: augmented tf times idf on
    both sides, cosines above 1.0 taken as 1.0, zeros left out, ties by doc_id."""
    qw = _augmented(translate_query(coll, query, method, cfg_src), coll.idf)
    qnorm = _norm(qw)
    scores = {}
    for doc_id, dw in coll.weights.items():
        dot = 0.0
        for term, w in qw.items():
            if term in dw:
                dot += w * dw[term]
        if dot:
            scores[doc_id] = min(dot / (qnorm * coll.norms[doc_id]), 1.0)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:depth]


def document_terms(doc, cfg, docs_by_id, query, cfg_src):
    """The term counts of ``doc`` rendered in the query's language, or None
    when its translation fails or it has no comparable pair."""
    if cfg.doc_channel == CHANNEL_HT:
        pair = docs_by_id.get(doc.pair_id)
        if pair is None or pair.lang == doc.lang:
            return None
        return term_counts(tokenize(indexable_text(pair), cfg_src))
    adapter = cfg.doc_adapter or cfg.translation_method.adapter

    def translated(text):
        return adapter.translate(text, doc.lang, query.lang) if text else text

    try:
        parts = [translated(doc.title), *map(translated, doc.keywords), translated(doc.abstract)]
    except TranslationError:
        return None
    return term_counts(tokenize(" ".join(part for part in parts if part), cfg_src))


def _dampened(tf):
    return 1.0 + math.log(tf)


def _combined(esim, jsim, p):
    e, j = (esim if esim > 0.0 else p.epsilon), (jsim if jsim > 0.0 else p.epsilon)
    try:
        return min(e ** p.alpha * j ** p.beta, _MAX_SCORE)
    except OverflowError:
        return _MAX_SCORE


def second_stage(stage_one, n, query, cfg, cfg_src, docs_by_id):
    """(doc_ids, scores, esims, jsims) of the first ``n`` of ``stage_one``
    re-ranked: dampened tf times idf over that head, a plain inner product,
    the floored geometric mean, ties by its logarithm and then doc_id; under
    tail "keep" the rest of ``stage_one`` rescaled below the head."""
    head, tail = stage_one[:n], stage_one[n:]
    vectors = {doc_id: document_terms(docs_by_id[doc_id], cfg, docs_by_id, query, cfg_src)
               for doc_id, _ in head}
    query_counts = term_counts(tokenize(query.description, cfg_src))
    weights = {}
    for term, tf in query_counts.items():
        holders = sum(1 for v in vectors.values() if v is not None and term in v)
        if holders:
            idf = math.log(len(head) / holders)
            weights[term] = (_dampened(tf) * idf, idf)
    p = cfg.combine
    rows = []
    for doc_id, esim in head:
        vector = vectors[doc_id] or {}
        jsim = 0.0
        for term, (weight, idf) in weights.items():
            if term in vector:
                jsim += weight * (_dampened(vector[term]) * idf)
        sim = _combined(esim, jsim, p)
        log = (p.alpha * math.log(esim if esim > 0.0 else p.epsilon)
               + p.beta * math.log(jsim if jsim > 0.0 else p.epsilon))
        rows.append((-sim, -log, doc_id, esim, jsim, sim))
    rows.sort()
    doc_ids = [row[2] for row in rows]
    scores = [row[5] for row in rows]
    esims, jsims = [row[3] for row in rows], [row[4] for row in rows]
    if cfg.tail_policy == TAIL_KEEP and tail and rows:
        floor, top = scores[-1], tail[0][1]
        doc_ids += [doc_id for doc_id, _ in tail]
        scores += [floor * score / (2.0 * top) for _, score in tail]
    return doc_ids, scores, esims, jsims


def run(coll, docs_by_id, query, cfg, cfg_src, n, two_stage):
    """(doc_ids, scores, esims, jsims) of one query at depth ``n``, from nothing."""
    method = cfg.translation_method
    if not two_stage:
        ranked = first_stage(coll, query, method, cfg_src, n)
        return [d for d, _ in ranked], [s for _, s in ranked], [], []
    depth = cfg.output_depth if cfg.tail_policy == TAIL_KEEP else n
    stage_one = first_stage(coll, query, method, cfg_src, depth)
    return second_stage(stage_one, n, query, cfg, cfg_src, docs_by_id)


def average_precision(doc_ids, relevant):
    hits, total = 0, 0.0
    for rank, doc_id in enumerate(doc_ids, 1):
        if doc_id in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def mean_ap(rankings, grades):
    """MAP over the judged queries with a relevant (grade 2) document, in
    judgment order; a judged query without a ranking scores 0."""
    values = [average_precision(rankings.get(query_id, []), relevant)
              for query_id, judged in grades.items()
              if (relevant := {d for d, g in judged.items() if g >= 2})]
    total = 0.0
    for ap in values:
        total += ap
    return total / len(values) if values else 0.0


def run_lines(query_id, doc_ids, scores, tag):
    return "".join(f"{query_id} Q0 {doc_id} {rank} {score!r} {tag}\n"
                   for rank, (doc_id, score) in enumerate(zip(doc_ids, scores), 1))
