"""Query translation (dictionary phrases, external MT, or both) and document translation.

The external translator is an interchangeable adapter: a subprocess contract
for real systems and a table-driven mock for deterministic tests. Dictionary
translation disambiguates candidates by their document frequency in the target
collection.
"""

import shlex
import subprocess
import time
from collections import Counter
from dataclasses import dataclass

from clir.corpus import Document, TermVector, analyze, pair_lookup, tokenize
from clir.errors import ConfigError, ParseError, TranslationError
from clir.files import read_lines

MT_SENTENCE = "mts"
MT_PHRASE = "mtp"
DICT_PHRASE = "pbt"
COMBINED = "mpbt"
METHOD_KINDS = (MT_SENTENCE, MT_PHRASE, DICT_PHRASE, COMBINED)

CHANNEL_MT = "mt"
CHANNEL_HT = "ht"
DOC_CHANNELS = (CHANNEL_MT, CHANNEL_HT)

COMMAND_TIMEOUT_S = 60.0


class BilingualDictionary:
    """Source phrases (one or more tokens) mapped to candidate translations."""

    def __init__(self, entries):
        self.entries = {}
        for phrase, candidates in entries.items():
            key = tuple(phrase.split())
            if not key:
                raise ConfigError("dictionary entry with empty source phrase")
            cleaned = [c.strip() for c in candidates if c and c.strip()]
            if not cleaned:
                raise ConfigError(f"dictionary entry {' '.join(key)!r} has no candidates")
            bucket = self.entries.setdefault(key, [])
            for cand in cleaned:
                if cand not in bucket:
                    bucket.append(cand)
        self.max_phrase_len = max((len(k) for k in self.entries), default=0)

    @classmethod
    def from_file(cls, path):
        """Read tab-separated lines: ``source phrase<TAB>cand1|cand2|...``."""
        entries = {}
        for line_no, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 2:
                raise ParseError("expected exactly one tab separator", path, line_no)
            source, cands = parts
            if not source.strip():
                raise ParseError("empty source phrase", path, line_no)
            candidates = [c.strip() for c in cands.split("|") if c.strip()]
            if not candidates:
                raise ParseError("no candidate translations", path, line_no)
            entries.setdefault(source.strip(), []).extend(candidates)
        return cls(entries)


class MTAdapter:
    """Behavioral contract for translators.

    ``translate`` must be deterministic per input within one run and return
    plain text in the requested target language. The pipeline relies on that:
    a retrieved document is translated once per pipeline configuration and
    its analysed text reused for every later query that retrieves it, and
    each distinct (source language, target language, text) is sent once per
    configuration and source analyzer, its output reused wherever the same
    text comes again.
    Adapters must be hashable; the configuration's memo is keyed by them.
    """

    def translate(self, text, src, tgt):
        raise NotImplementedError


class CommandAdapter(MTAdapter):
    """External translator process: argv plus the two language tags as arguments,
    source text on stdin, translation on stdout, exit status 0 on success.
    Both streams are UTF-8; output that does not decode is a failed call, and
    so is a call still running after ``COMMAND_TIMEOUT_S`` seconds."""

    def __init__(self, command):
        self.argv = shlex.split(command)
        if not self.argv:
            raise ConfigError("empty translator command")

    def translate(self, text, src, tgt):
        try:
            proc = subprocess.run(
                self.argv + [src, tgt],
                input=text,
                capture_output=True,
                encoding="utf-8",
                timeout=COMMAND_TIMEOUT_S,
            )
        except UnicodeDecodeError as exc:
            raise TranslationError(
                f"translator output is not UTF-8 on input {text[:80]!r}: {exc.reason}"
            ) from None
        except subprocess.TimeoutExpired:
            raise TranslationError(f"translator timed out on input {text[:80]!r}") from None
        except OSError as exc:
            raise TranslationError(f"cannot run translator {self.argv[0]!r}: {exc}") from None
        if proc.returncode != 0:
            detail = proc.stderr.strip()[:200]
            raise TranslationError(
                f"translator exited {proc.returncode} on input {text[:80]!r}: {detail}"
            )
        return proc.stdout.rstrip("\n")


class TableAdapter(MTAdapter):
    """Deterministic in-memory mock translator.

    Looks the whole (stripped) input up first; otherwise maps token by token,
    passing unknown tokens through unchanged. ``delay_s`` adds a fixed per-call
    sleep for cost experiments. Behind a pipeline configuration each distinct
    text is sent once per source analyzer, so the sleep applies once per
    distinct text per configuration and source analyzer.
    """

    def __init__(self, table, delay_s=0.0):
        self.table = dict(table)
        self.delay_s = delay_s

    @classmethod
    def from_file(cls, path):
        """Read tab-separated lines, one per source, each with exactly one translation.
        Each distinct source or translation is one string object, key and value alike."""
        table = {}
        first_lines = {}
        share = {}.setdefault
        for line_no, line in read_lines(path):
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0].strip():
                raise ParseError("expected 'source<TAB>translation'", path, line_no)
            if "|" in parts[1] or not parts[1].strip():
                raise ParseError("mock table entries take exactly one translation", path, line_no)
            source = parts[0].strip()
            if first_lines.setdefault(source, line_no) != line_no:
                raise ParseError(f"source {source!r} repeated; first given on line "
                                 f"{first_lines[source]}", path, line_no)
            translation = parts[1].strip()
            table[share(source, source)] = share(translation, translation)
        return cls(table)

    def translate(self, text, src, tgt):
        if self.delay_s:
            time.sleep(self.delay_s)
        key = text.strip()
        if key in self.table:
            return self.table[key]
        tokens = text.split()
        return " ".join(map(self.table.get, tokens, tokens))


class IdentityAdapter(MTAdapter):
    """Returns its input verbatim; handy for monolingual wiring checks."""

    def translate(self, text, src, tgt):
        return text


@dataclass
class TranslationMethod:
    """One of the four query translation setups.

    Sentence MT translates the whole description. The other three share one
    segmentation of the query against the bilingual dictionary, if any:
    phrase MT translates its units one by one, dictionary phrase translation
    picks a candidate for each matched phrase, and combined merges the
    phrase-MT and dictionary outputs with doubled shared terms.
    """

    kind: str
    adapter: MTAdapter | None = None
    dictionary: BilingualDictionary | None = None

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ConfigError(f"unknown translation method {self.kind!r}")
        if self.kind in (MT_SENTENCE, MT_PHRASE, COMBINED) and self.adapter is None:
            raise ConfigError(f"method {self.kind!r} needs a translator adapter")
        if self.kind in (DICT_PHRASE, COMBINED) and self.dictionary is None:
            raise ConfigError(f"method {self.kind!r} needs a bilingual dictionary")


@dataclass
class TranslatedQuery:
    terms: TermVector
    method: str
    unresolved: list
    lang: str


def translate_query(query, method, index, cfg_src, adapter):
    """Target-language query terms by ``method``, analysed by ``index.analyzer``.

    ``adapter`` is the translator to call; dictionary phrase translation
    calls none. Sentence MT sends the whole description and analyzes the
    output; a blank description gives an empty vector without a call. The
    other methods tokenize the description once with ``cfg_src`` and segment
    the tokens once against ``method.dictionary`` (``_segment``): phrase MT
    translates each unit, dictionary phrase translation picks each matched
    unit's candidate by its document frequency in ``index``, the target
    collection, and combined merges the two with ``combine_translations``.
    """
    target = index.analyzer
    if method.kind == MT_SENTENCE:
        if not query.description.strip():
            return TranslatedQuery(TermVector.from_counts({}), MT_SENTENCE, [], target.lang)
        out = adapter.translate(query.description, query.lang, target.lang)
        return TranslatedQuery(analyze(out, target), MT_SENTENCE, [], target.lang)
    units = _segment(tokenize(query.description, cfg_src), method.dictionary)
    if method.kind == DICT_PHRASE:
        return _by_dictionary(units, index)
    by_mt = _by_phrase_mt(units, adapter, query.lang, target)
    if method.kind == MT_PHRASE:
        return by_mt
    return combine_translations(by_mt, _by_dictionary(units, index))


def _segment(tokens, dictionary):
    # The query's units in order, each (unit text, candidates or None): greedy
    # segmentation, longest dictionary phrase first, and each token no phrase
    # covers a unit of its own, without candidates. With no dictionary every
    # token is a unit. Dictionary entries must be in the source analyzer's
    # normal form.
    longest = dictionary.max_phrase_len if dictionary is not None else 0
    units = []
    i = 0
    n = len(tokens)
    while i < n:
        for span in range(min(longest, n - i), 0, -1):
            candidates = dictionary.entries.get(tuple(tokens[i : i + span]))
            if candidates:
                break
        else:
            span, candidates = 1, None
        units.append((" ".join(tokens[i : i + span]), candidates))
        i += span
    return units


def _by_dictionary(units, target_index):
    # Each matched unit adds the index analyzer's terms of its candidate of
    # highest df in the target index, the least df of its terms (ties break
    # lexicographically), chosen once per index and kept in its ``choices``.
    # A unit with no candidates, or no terms chosen, is unresolved.
    df, choices, target = target_index.df, target_index.choices, target_index.analyzer
    counts = Counter()
    unresolved = []
    for unit, candidates in units:
        chosen = []
        if candidates is not None:
            key = tuple(candidates)
            chosen = choices.get(key)
            if chosen is None:
                terms = {c: tokenize(c, target) for c in candidates}
                best = min(terms, key=lambda c: (-min((df.get(t, 0) for t in terms[c]), default=0), c))
                chosen = choices[key] = terms[best]
            counts.update(chosen)
        if not chosen and unit not in unresolved:
            unresolved.append(unit)
    return TranslatedQuery(TermVector.from_counts(counts), DICT_PHRASE, unresolved, target.lang)


def _by_phrase_mt(units, adapter, src_lang, target):
    # Each unit is translated on its own; outputs are merged by summing term
    # frequencies, and a unit whose output analyzes to nothing is unresolved.
    counts = Counter()
    unresolved = []
    for unit, _ in units:
        tokens = tokenize(adapter.translate(unit, src_lang, target.lang), target)
        if tokens:
            counts.update(tokens)
        elif unit not in unresolved:
            unresolved.append(unit)
    return TranslatedQuery(TermVector.from_counts(counts), MT_PHRASE, unresolved, target.lang)


def combine_translations(a, b):
    """Merge two translated queries; terms both produced count twice.

    Unresolved tokens survive only if neither method resolved them.
    """
    if a.lang != b.lang:
        raise ConfigError(f"cannot combine translations into {a.lang!r} and {b.lang!r}")
    counts = Counter(a.terms.counts)
    counts.update(b.terms.counts)
    b_unresolved = set(b.unresolved)
    unresolved = [t for t in a.unresolved if t in b_unresolved]
    return TranslatedQuery(TermVector.from_counts(counts), COMBINED, unresolved, a.lang)


def translate_document(doc, channel, corpus=None, adapter=None, target_lang=None):
    """Render one retrieved document in the query language.

    The machine channel passes title, keywords and abstract through the
    adapter; the human channel returns the comparable paired document verbatim.
    """
    if channel == CHANNEL_HT:
        if corpus is None:
            raise ConfigError("human-translation channel needs the corpus for pair lookup")
        return pair_lookup(corpus, doc.doc_id)
    if channel == CHANNEL_MT:
        if adapter is None or not target_lang:
            raise ConfigError("machine-translation channel needs an adapter and a target language")
        return Document(
            doc_id=doc.doc_id,
            lang=target_lang,
            title=adapter.translate(doc.title, doc.lang, target_lang) if doc.title else "",
            keywords=[
                adapter.translate(k, doc.lang, target_lang) if k else k for k in doc.keywords
            ],
            abstract=adapter.translate(doc.abstract, doc.lang, target_lang)
            if doc.abstract
            else "",
            pair_id=doc.pair_id,
        )
    raise ConfigError(f"unknown document channel {channel!r}")
