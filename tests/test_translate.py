"""Query and document translation: dictionary segmentation with collection
statistics, adapter-based MT in sentence and phrase modes, method
combination, and the two document channels."""

import random
import shlex
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clir.translate
from clir.corpus import (
    CHARACTER_BIGRAM,
    AnalyzerConfig,
    Corpus,
    Document,
    Query,
    TermVector,
    analyze,
    tokenize,
)
from clir.errors import ConfigError, NoPairError, ParseError, TranslationError
from clir.index import InvertedIndex, build_index
from clir.translate import (
    CHANNEL_HT,
    CHANNEL_MT,
    COMBINED,
    DICT_PHRASE,
    METHOD_KINDS,
    MT_PHRASE,
    MT_SENTENCE,
    BilingualDictionary,
    CommandAdapter,
    IdentityAdapter,
    MTAdapter,
    TableAdapter,
    TranslatedQuery,
    TranslationMethod,
    combine_translations,
    translate_document,
    translate_query,
)

EN = AnalyzerConfig(lang="en")
JA = AnalyzerConfig(lang="ja")

# ids of the tests parametrized by method, each method spelled out
METHOD_IDS = {MT_SENTENCE: "mt-sentence", MT_PHRASE: "mt-phrase",
              DICT_PHRASE: "dict-phrase", COMBINED: "combined"}


def _index_from_texts(texts: dict[str, str], lang="ja"):
    cfg = AnalyzerConfig(lang=lang)
    docs = [Document(doc_id=d, lang=lang, abstract=t) for d, t in texts.items()]
    return build_index(Corpus(docs, [lang]), cfg)


def _query(text, lang="en"):
    return Query(query_id="q", lang=lang, description=text)


def _by_dict(text, dictionary, index):
    method = TranslationMethod(kind=DICT_PHRASE, dictionary=dictionary)
    return translate_query(_query(text), method, index, EN, None)


def _by_mt(text, adapter, kind, target=JA, phrases=None):
    # machine translation reads no collection statistics: an empty index
    # carries the target analyzer
    method = TranslationMethod(kind=kind, adapter=adapter, dictionary=phrases)
    return translate_query(_query(text), method, InvertedIndex(target, {}), EN, adapter)


# ---------------------------------------------------------------- dictionary


def test_dictionary_from_file(tmp_path):
    path = tmp_path / "d.tsv"
    path.write_text(
        "library\ttoshokan|raiburari\ndigital library\tdenshi toshokan\n",
        encoding="utf-8",
    )
    d = BilingualDictionary.from_file(path)
    assert len(d.entries) == 2
    assert ("library",) in d.entries
    assert ("digital", "library") in d.entries
    assert d.max_phrase_len == 2
    assert d.entries[("library",)] == ["toshokan", "raiburari"]


def test_dictionary_file_errors(tmp_path):
    for bad in ("no tab here\n", "\tcand\n", "word\t |\n"):
        path = tmp_path / "bad.tsv"
        path.write_text(bad, encoding="utf-8")
        with pytest.raises(ParseError):
            BilingualDictionary.from_file(path)


def test_dictionary_rejects_empty_entries():
    with pytest.raises(ConfigError):
        BilingualDictionary({"": ["x"]})
    with pytest.raises(ConfigError):
        BilingualDictionary({"word": []})


def test_dict_translation_prefers_frequent_candidate():
    # y occurs in 9 of 10 documents, x in 3: y must win
    texts = {f"d{i}": "y filler" for i in range(9)}
    texts["d9"] = "x x x"
    for i in range(3):
        texts[f"d{i}"] += " x"
    index = _index_from_texts(texts)
    d = BilingualDictionary({"term": ["x", "y"]})
    out = _by_dict("term", d, index)
    assert out.terms.counts == {"y": 1}
    assert out.method == DICT_PHRASE
    assert out.unresolved == []


def test_dict_translation_tie_breaks_lexicographically():
    index = _index_from_texts({"d1": "aa bb", "d2": "aa bb"})
    d = BilingualDictionary({"term": ["bb", "aa"]})
    out = _by_dict("term", d, index)
    assert out.terms.counts == {"aa": 1}


def test_dict_translation_longest_match_wins():
    index = _index_from_texts({"d1": "denshi toshokan", "d2": "dejitaru"})
    d = BilingualDictionary({
        "digital": ["dejitaru"],
        "libraries": ["toshokan"],
        "digital libraries": ["denshi toshokan"],
    })
    out = _by_dict("digital libraries", d, index)
    assert out.terms.counts == {"denshi": 1, "toshokan": 1}


def test_dict_translation_unmatched_goes_to_unresolved():
    index = _index_from_texts({"d1": "x"})
    d = BilingualDictionary({"known": ["x"]})
    out = _by_dict("known mystery", d, index)
    assert out.terms.counts == {"x": 1}
    assert out.unresolved == ["mystery"]
    assert all(t not in out.terms.counts for t in out.unresolved)


def test_dict_translation_repeated_source_token_accumulates():
    index = _index_from_texts({"d1": "x"})
    d = BilingualDictionary({"term": ["x"]})
    out = _by_dict("term term", d, index)
    assert out.terms.counts == {"x": 2}


def test_single_candidate_dictionary_ignores_index_statistics():
    d = BilingualDictionary({"cat": ["neko"], "big cat": ["oneko"]})
    first = _by_dict("big cat sat", d, _index_from_texts({"d1": "neko neko"}))
    second = _by_dict("big cat sat", d, _index_from_texts({"d1": "oneko", "d2": "zzz"}))
    assert first.terms == second.terms
    assert first.unresolved == second.unresolved == ["sat"]


def test_dict_translation_emits_only_candidate_terms():
    rng = random.Random(3)
    entries = {f"w{i}": [f"c{i}a", f"c{i}b"] for i in range(6)}
    d = BilingualDictionary(entries)
    index = _index_from_texts({"d1": "c0a c1b", "d2": "c2a c3b zzz"})
    allowed = {tok for cands in entries.values() for c in cands for tok in c.split()}
    for _ in range(20):
        words = [rng.choice([f"w{i}" for i in range(6)] + ["junk"]) for _ in range(5)]
        out = _by_dict(" ".join(words), d, index)
        assert set(out.terms.counts) <= allowed


def test_dict_candidates_are_analysed_by_the_target_analyzer():
    # "Toshokan," is the indexed term toshokan, held by two documents, once
    # lowercased and stripped of edge punctuation, so it beats deta
    index = _index_from_texts({"d1": "toshokan", "d2": "toshokan deta", "d3": "x"})
    d = BilingualDictionary({"library": ["deta", "Toshokan,"], "of": [","]})
    out = _by_dict("library of", d, index)
    assert out.terms.counts == {"toshokan": 1}
    # "of"'s only candidate analyses to nothing, so "of" is left untranslated
    assert out.unresolved == ["of"]
    bigram = AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM)
    docs = [Document(doc_id="d1", lang="ja", abstract="としょかん"),
            Document(doc_id="d2", lang="ja", abstract="けんさく")]
    index = build_index(Corpus(docs, ["ja"]), bigram)
    method = TranslationMethod(kind=DICT_PHRASE,
                               dictionary=BilingualDictionary({"library": ["としょかん"]}))
    out = translate_query(_query("library"), method, index, EN, None)
    assert out.terms.counts == {"とし": 1, "しょ": 1, "ょか": 1, "かん": 1}


@pytest.mark.parametrize("kind", METHOD_KINDS, ids=METHOD_IDS.get)
def test_translation_into_a_bigram_index_yields_its_bigrams(kind):
    # no target analyzer is passed: the index's own analyses the output
    bigram = AnalyzerConfig(lang="ja", tokenizer_kind=CHARACTER_BIGRAM)
    index = build_index(Corpus([Document(doc_id="d1", lang="ja", abstract="としょかん")]), bigram)
    adapter = TableAdapter({"library": "としょかん"})
    method = TranslationMethod(kind=kind, adapter=adapter,
                               dictionary=BilingualDictionary({"library": ["としょかん"]}))
    out = translate_query(_query("library"), method, index, EN, adapter)
    times = 2 if kind == COMBINED else 1
    assert out.terms.counts == {term: times for term in ("とし", "しょ", "ょか", "かん")}
    assert out.lang == "ja"


def test_a_dict_word_whose_candidate_is_an_index_stopword_is_unresolved_once():
    cfg = AnalyzerConfig(lang="ja", stopword_list=["toshokan"])
    docs = [Document(doc_id="d1", lang="ja", abstract="toshokan kensaku")]
    index = build_index(Corpus(docs, ["ja"]), cfg)
    method = TranslationMethod(kind=DICT_PHRASE, dictionary=BilingualDictionary(
        {"library": ["toshokan"], "search": ["kensaku"]}))
    out = translate_query(_query("library search library"), method, index, EN, None)
    assert out.terms.counts == {"kensaku": 1}
    assert out.unresolved == ["library"]


# ------------------------------------------------------------------ adapters


def test_table_adapter_exact_match_precedes_tokenwise():
    t = TableAdapter({"digital library": "denshi toshokan", "digital": "WRONG"})
    assert t.translate("digital library", "en", "ja") == "denshi toshokan"
    assert t.translate("digital thing", "en", "ja") == "WRONG thing"


def test_the_adapter_contract_has_no_translation_of_its_own():
    with pytest.raises(NotImplementedError):
        MTAdapter().translate("library", "en", "ja")


def _table_definition(table, text):
    # the mock table written out: the whole stripped text, else token by token
    key = text.strip()
    if key in table:
        return table[key]
    return " ".join(table.get(w, w) for w in text.split())


_MOCK_WORDS = ["cat", "dog", "Cat", "zzz", "big cat", "cat,"]


@settings(max_examples=200, deadline=None)
@given(table=st.dictionaries(st.sampled_from(_MOCK_WORDS),
                             st.sampled_from(["neko", "inu", "ookii neko", "cat"]), max_size=5),
       words=st.lists(st.sampled_from(_MOCK_WORDS), max_size=6),
       gaps=st.lists(st.sampled_from(["", " ", "\t", "\n", " \t\n  "]), min_size=7, max_size=7))
@example(table={"big cat": "ookii neko"}, words=["big cat"], gaps=["\n ", "\t "] + [""] * 5)
@example(table={"cat": "neko"}, words=["zzz", "cat", "dog"], gaps=["\t\t", "\n\n", "   "] + [""] * 4)
@example(table={"cat": "neko"}, words=[], gaps=[""] * 7)
def test_table_adapter_equals_its_per_token_definition(table, words, gaps):
    text = gaps[0] + "".join(w + g for w, g in zip(words, gaps[1:]))
    assert TableAdapter(table).translate(text, "en", "ja") == _table_definition(table, text)


def test_table_adapter_from_file(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("library\ttoshokan\n", encoding="utf-8")
    t = TableAdapter.from_file(path)
    assert t.translate("library", "en", "ja") == "toshokan"


def test_table_adapter_from_file_holds_one_string_per_distinct_text(tmp_path):
    path = tmp_path / "m.tsv"
    # a two-way table: each translation comes again as a source, before or after
    path.write_text("toshokan\tlibrary\nlibrary\ttoshokan\nbook\thon\n"
                    "hon\tbook\nvolume\thon\n", encoding="utf-8")
    table = TableAdapter.from_file(path).table
    keys = {key: key for key in table}
    assert all(value is keys[value] for value in table.values())
    assert table["book"] is table["volume"]


def test_table_adapter_file_rejects_multiple_candidates(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("library\ttoshokan|raiburari\n", encoding="utf-8")
    with pytest.raises(ParseError):
        TableAdapter.from_file(path)


def _write_script(tmp_path, body):
    script = tmp_path / "mt.py"
    script.write_text(body, encoding="utf-8")
    return shlex.join([sys.executable, str(script)])


def test_command_adapter_round_trip(tmp_path):
    command = _write_script(
        tmp_path,
        "import sys\n"
        "table = {'library': 'toshokan', 'digital': 'dejitaru'}\n"
        "text = sys.stdin.read()\n"
        "print(' '.join(table.get(w, w) for w in text.split()))\n",
    )
    adapter = CommandAdapter(command)
    assert adapter.translate("digital library", "en", "ja") == "dejitaru toshokan"


def test_command_adapter_receives_language_arguments(tmp_path):
    command = _write_script(tmp_path, "import sys\nprint(sys.argv[1], sys.argv[2])\n")
    assert CommandAdapter(command).translate("x", "en", "ja") == "en ja"


def test_command_adapter_nonzero_exit(tmp_path):
    command = _write_script(
        tmp_path, "import sys\nsys.stderr.write('boom')\nsys.exit(3)\n"
    )
    with pytest.raises(TranslationError, match="some input text"):
        CommandAdapter(command).translate("some input text", "en", "ja")


def test_command_adapter_undecodable_output(tmp_path):
    command = _write_script(
        tmp_path, "import sys\nsys.stdin.read()\nsys.stdout.buffer.write(b'\\xff\\xfe')\n"
    )
    with pytest.raises(TranslationError, match="not UTF-8"):
        CommandAdapter(command).translate("some input text", "en", "ja")


def test_command_adapter_missing_binary():
    adapter = CommandAdapter("/no/such/translator")
    with pytest.raises(TranslationError):
        adapter.translate("x", "en", "ja")


def test_command_adapter_timeout(tmp_path, monkeypatch):
    monkeypatch.setattr(clir.translate, "COMMAND_TIMEOUT_S", 0.5)
    command = _write_script(tmp_path, "import time\ntime.sleep(5)\n")
    adapter = CommandAdapter(command)
    with pytest.raises(TranslationError):
        adapter.translate("slow input", "en", "ja")


def test_command_adapter_rejects_empty_command():
    with pytest.raises(ConfigError):
        CommandAdapter("")


# ----------------------------------------------------------------- MT modes


def test_mt_sentence_mode():
    adapter = TableAdapter({
        "middleware construction in network collaboration":
            "middleware construction network collaboration"
    })
    out = _by_mt("middleware construction in network collaboration", adapter, MT_SENTENCE)
    assert out.terms.counts == {
        "middleware": 1, "construction": 1, "network": 1, "collaboration": 1
    }
    assert out.method == MT_SENTENCE
    assert out.lang == "ja"


def test_mt_empty_description():
    out = _by_mt("   ", TableAdapter({}), MT_SENTENCE)
    assert out.terms.counts == {}
    assert out.unresolved == []


class _LoggingAdapter(MTAdapter):
    """Echoes its input and keeps every text it was sent."""

    def __init__(self):
        self.texts = []

    def translate(self, text, src, tgt):
        self.texts.append(text)
        return text


@pytest.mark.parametrize("description", ["", "   ", "\t\n"], ids=["empty", "spaces", "tab"])
@pytest.mark.parametrize("kind", METHOD_KINDS, ids=METHOD_IDS.get)
def test_blank_description_sends_nothing_under_every_method(kind, description):
    adapter = _LoggingAdapter()
    method = TranslationMethod(kind=kind, adapter=adapter,
                               dictionary=BilingualDictionary({"term": ["x"]}))
    index = _index_from_texts({"d1": "x"})
    out = translate_query(_query(description), method, index, EN, adapter)
    assert adapter.texts == []
    assert out.terms.counts == {}
    assert out.unresolved == []
    assert (out.method, out.lang) == (kind, "ja")


def test_mt_identity_adapter_echoes_analyzed_source():
    out = _by_mt("Alpha beta alpha", IdentityAdapter(), MT_SENTENCE, target=EN)
    assert out.terms.counts == {"alpha": 2, "beta": 1}


def test_mt_phrase_mode_translates_units_independently():
    adapter = TableAdapter({"digital": "dejitaru", "libraries": "toshokan"})
    out = _by_mt("digital libraries", adapter, MT_PHRASE)
    assert out.terms.counts == {"dejitaru": 1, "toshokan": 1}
    assert out.method == MT_PHRASE


def test_mt_phrase_mode_groups_dictionary_phrases():
    # with the pair listed as a phrase, it is translated as one unit
    adapter = TableAdapter({"digital libraries": "denshi", "digital": "WRONG",
                            "libraries": "WRONG"})
    phrases = BilingualDictionary({"digital libraries": ["denshi"]})
    out = _by_mt("digital libraries", adapter, MT_PHRASE, phrases=phrases)
    assert out.terms.counts == {"denshi": 1}


def test_mt_phrase_mode_sums_duplicate_outputs():
    adapter = TableAdapter({"car": "kuruma", "automobile": "kuruma"})
    out = _by_mt("car automobile", adapter, MT_PHRASE)
    assert out.terms.counts == {"kuruma": 2}


def test_mt_phrase_mode_empty_output_is_unresolved():
    adapter = TableAdapter({"known": "x", "gone": ""})
    out = _by_mt("known gone", adapter, MT_PHRASE)
    assert out.terms.counts == {"x": 1}
    assert out.unresolved == ["gone"]


# ------------------------------------------------------------- segmentation


class _Recorder(MTAdapter):
    """Echoes each text and keeps the texts it was sent, in order."""

    def __init__(self):
        self.sent = []

    def translate(self, text, src, tgt):
        self.sent.append(text)
        return text


def _pair_units(tokens, phrases):
    # Reference: the adjacent-pair rule phrase MT once had of its own. A pair
    # listed in ``phrases`` is one unit, every other token a unit alone.
    units = []
    i = 0
    while i < len(tokens):
        pair = tuple(tokens[i : i + 2])
        if phrases is not None and len(pair) == 2 and pair in phrases.entries:
            units.append(tokens[i] + " " + tokens[i + 1])
            i += 2
        else:
            units.append(tokens[i])
            i += 1
    return units


def _longest_match(tokens, dictionary, index):
    # Reference: dictionary translation's own greedy loop, longest phrase
    # first, as (term counts, unresolved tokens).
    counts = Counter()
    unresolved = []
    i = 0
    while i < len(tokens):
        for span in range(min(dictionary.max_phrase_len, len(tokens) - i), 0, -1):
            candidates = dictionary.entries.get(tuple(tokens[i : i + span]))
            if candidates:
                df = {c: min(index.df.get(t, 0) for t in c.split()) for c in candidates}
                counts.update(min(candidates, key=lambda c: (-df[c], c)).split())
                i += span
                break
        else:
            if tokens[i] not in unresolved:
                unresolved.append(tokens[i])
            i += 1
    return dict(counts), unresolved


_SOURCE = st.sampled_from("abcde")
_SEG_INDEX = _index_from_texts({"d1": "x y z", "d2": "y z", "d3": "z w"})


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_SOURCE, max_size=10),
       entries=st.none() | st.dictionaries(
           st.lists(_SOURCE, min_size=1, max_size=2).map(" ".join),
           st.lists(st.sampled_from(["x", "y", "z", "w", "x y", "v"]), min_size=1, max_size=3),
           min_size=1, max_size=8))
def test_segmentation_with_phrases_of_at_most_two_tokens_keeps_both_old_rules(tokens, entries):
    dictionary = None if entries is None else BilingualDictionary(entries)
    text = " ".join(tokens)
    recorder = _Recorder()
    _by_mt(text, recorder, MT_PHRASE, phrases=dictionary)
    assert recorder.sent == _pair_units(tokens, dictionary)
    if dictionary is not None:
        out = _by_dict(text, dictionary, _SEG_INDEX)
        assert (out.terms.counts, out.unresolved) == _longest_match(tokens, dictionary, _SEG_INDEX)
        combined = _Recorder()
        method = TranslationMethod(kind=COMBINED, adapter=combined, dictionary=dictionary)
        translate_query(_query(text), method, _SEG_INDEX, EN, combined)
        assert combined.sent == recorder.sent


def test_a_three_token_phrase_is_one_unit_under_every_method():
    dictionary = BilingualDictionary({
        "digital library": ["denshi toshokan"],
        "digital library system": ["denshi toshokan shisutemu"],
    })
    adapter = TableAdapter({"digital library system": "denshi toshokan shisutemu",
                            "digital library": "WRONG", "system": "WRONG", "search": ""})
    text = "digital library system search"
    recorder = _Recorder()
    _by_mt(text, recorder, MT_PHRASE, phrases=dictionary)
    assert recorder.sent == ["digital library system", "search"]
    index = _index_from_texts({"d1": "denshi toshokan shisutemu"})
    by_dict = _by_dict(text, dictionary, index)
    assert by_dict.terms.counts == {"denshi": 1, "toshokan": 1, "shisutemu": 1}
    assert by_dict.unresolved == ["search"]
    method = TranslationMethod(kind=COMBINED, adapter=adapter, dictionary=dictionary)
    out = translate_query(_query(text), method, index, EN, adapter)
    assert out.terms.counts == {"denshi": 2, "toshokan": 2, "shisutemu": 2}
    assert out.unresolved == ["search"]


@pytest.mark.parametrize("kind,segmentations",
                         [(MT_SENTENCE, 0), (MT_PHRASE, 1), (DICT_PHRASE, 1), (COMBINED, 1)],
                         ids=METHOD_IDS.get)
def test_one_translation_segments_the_query_once(monkeypatch, kind, segmentations):
    calls = []
    segment = clir.translate._segment

    def counting(tokens, dictionary):
        calls.append(tokens)
        return segment(tokens, dictionary)

    monkeypatch.setattr(clir.translate, "_segment", counting)
    dictionary = BilingualDictionary({"digital library": ["denshi toshokan"]})
    adapter = IdentityAdapter()
    method = TranslationMethod(kind=kind, adapter=adapter, dictionary=dictionary)
    index = _index_from_texts({"d1": "denshi toshokan"})
    translate_query(_query("digital library search"), method, index, EN, adapter)
    assert len(calls) == segmentations


def _chosen_terms(candidates, index, cfg):
    # Reference: the definition, with no table. Candidates are tried in
    # lexicographic order and a later one replaces the best only with a
    # strictly higher df, the least df of its terms (0 for no terms).
    best = None
    for candidate in sorted(candidates):
        terms = tokenize(candidate, cfg)
        df = min((index.df.get(t, 0) for t in terms), default=0)
        if best is None or df > best[0]:
            best = (df, terms)
    return best[1]


def _by_dict_uncached(text, dictionary, index, cfg):
    counts = Counter()
    unresolved = []
    for unit, candidates in clir.translate._segment(tokenize(text, EN), dictionary):
        chosen = [] if candidates is None else _chosen_terms(candidates, index, cfg)
        counts.update(chosen)
        if not chosen and unit not in unresolved:
            unresolved.append(unit)
    return list(counts.items()), unresolved


# x and y are each in two documents, so a choice between them is a df tie;
# "!!" and "," analyse to nothing
_CHOICE_INDEX_TEXTS = {"d1": "x y z", "d2": "x y", "d3": "z w"}
_CANDIDATES = ["x", "y", "z", "w", "v", "x y", "Z,", "!!", ","]


@settings(max_examples=150, deadline=None)
@given(tokens=st.lists(_SOURCE, max_size=10),
       entries=st.dictionaries(st.lists(_SOURCE, min_size=1, max_size=2).map(" ".join),
                               st.lists(st.sampled_from(_CANDIDATES), min_size=1, max_size=3),
                               min_size=1, max_size=8))
@example(tokens=list("ab"), entries={"a": ["y", "x"], "b": ["!!", ","]})
def test_dictionary_choices_cold_and_warm_equal_the_uncached_definition(tokens, entries):
    dictionary = BilingualDictionary(entries)
    index = _index_from_texts(_CHOICE_INDEX_TEXTS)
    text = " ".join(tokens)
    expected = _by_dict_uncached(text, dictionary, index, JA)
    for _ in ("cold", "warm"):
        out = _by_dict(text, dictionary, index)
        assert (list(out.terms.counts.items()), out.unresolved) == expected
    used = {tuple(c) for _, c in clir.translate._segment(tokens, dictionary) if c is not None}
    assert set(index.choices) == used


def test_each_candidate_list_is_tokenized_once_per_index(monkeypatch):
    calls = []

    def counting(text, cfg):
        calls.append((text, cfg))
        return tokenize(text, cfg)

    monkeypatch.setattr(clir.translate, "tokenize", counting)
    dictionary = BilingualDictionary({"library": ["toshokan", "raiburari"], "search": ["kensaku"]})
    method = TranslationMethod(kind=DICT_PHRASE, dictionary=dictionary)
    texts = {"d1": "toshokan kensaku", "d2": "raiburari"}
    indexes = [_index_from_texts(texts), _index_from_texts(texts)]
    for index in indexes:
        for _ in range(3):
            translate_query(_query("library search library"), method, index, EN, None)
    candidate_calls = Counter(call for call in calls if call[1] != EN)
    assert candidate_calls == {(c, JA): 2 for c in ("toshokan", "raiburari", "kensaku")}


def _merged_per_unit(units, adapter, target):
    # Reference: one TermVector per unit, merged in unit order by summing
    # term frequencies, as (term count items in order, unresolved units)
    counts = Counter()
    unresolved = []
    for unit in units:
        vec = analyze(adapter.translate(unit, "en", target.lang), target)
        if vec.counts:
            counts.update(vec.counts)
        elif unit not in unresolved:
            unresolved.append(unit)
    return TranslatedQuery(TermVector.from_counts(counts), MT_PHRASE, unresolved, target.lang)


# outputs that repeat a term, share terms with each other, or analyse to nothing
_UNIT_OUTPUTS = ["x y x", "y", "z x", "x", "", "!! ,", "Y y"]


@settings(max_examples=200, deadline=None)
@given(tokens=st.lists(_SOURCE, max_size=10),
       outputs=st.dictionaries(st.sampled_from(["a", "b", "c", "d", "a b", "c d"]),
                               st.sampled_from(_UNIT_OUTPUTS), max_size=6),
       entries=st.none() | st.dictionaries(
           st.lists(_SOURCE, min_size=1, max_size=2).map(" ".join),
           st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=2),
           min_size=1, max_size=6))
def test_phrase_mt_merges_unit_outputs_as_one_term_vector_per_unit(tokens, outputs, entries):
    dictionary = None if entries is None else BilingualDictionary(entries)
    adapter = TableAdapter(outputs)
    text = " ".join(tokens)
    units = [unit for unit, _ in clir.translate._segment(tokens, dictionary)]
    expected = _merged_per_unit(units, adapter, JA)
    out = _by_mt(text, adapter, MT_PHRASE, phrases=dictionary)
    assert list(out.terms.counts.items()) == list(expected.terms.counts.items())
    assert out.unresolved == expected.unresolved
    if dictionary is not None:
        method = TranslationMethod(kind=COMBINED, adapter=adapter, dictionary=dictionary)
        out = translate_query(_query(text), method, _SEG_INDEX, EN, adapter)
        combined = combine_translations(expected, _by_dict(text, dictionary, _SEG_INDEX))
        assert list(out.terms.counts.items()) == list(combined.terms.counts.items())
        assert out.unresolved == combined.unresolved


# -------------------------------------------------------------- combination


def _tq(counts, unresolved=(), lang="ja"):
    from clir.corpus import TermVector

    return TranslatedQuery(TermVector.from_counts(counts), MT_PHRASE,
                           list(unresolved), lang)


def test_combine_sums_shared_terms():
    out = combine_translations(_tq({"a": 1, "b": 1}), _tq({"b": 1, "c": 1}))
    assert out.terms.counts == {"a": 1, "b": 2, "c": 1}
    assert out.method == COMBINED


def test_combine_with_empty_is_identity():
    a = _tq({"a": 2, "b": 1})
    out = combine_translations(a, _tq({}))
    assert out.terms == a.terms


def test_combine_doubles_identical_queries():
    out = combine_translations(_tq({"t": 1}), _tq({"t": 1}))
    assert out.terms.counts == {"t": 2}


def test_combine_rejects_language_mismatch():
    with pytest.raises(ConfigError):
        combine_translations(_tq({"a": 1}, lang="ja"), _tq({"a": 1}, lang="en"))


def test_combine_unresolved_is_intersection():
    out = combine_translations(
        _tq({"a": 1}, unresolved=["p", "q"]), _tq({"b": 1}, unresolved=["q", "r"])
    )
    assert out.unresolved == ["q"]


def test_combine_commutative_and_associative_on_terms():
    rng = random.Random(41)
    vocab = [f"t{i}" for i in range(8)]
    for _ in range(30):
        a = _tq(dict(Counter(rng.choice(vocab) for _ in range(rng.randrange(0, 10)))))
        b = _tq(dict(Counter(rng.choice(vocab) for _ in range(rng.randrange(0, 10)))))
        c = _tq(dict(Counter(rng.choice(vocab) for _ in range(rng.randrange(0, 10)))))
        assert combine_translations(a, b).terms == combine_translations(b, a).terms
        left = combine_translations(combine_translations(a, b), c).terms
        right = combine_translations(a, combine_translations(b, c)).terms
        assert left == right


_TERM = st.text(alphabet="abcd", min_size=1, max_size=2)


@settings(max_examples=200)
@given(counts=st.tuples(*[st.dictionaries(_TERM, st.integers(0, 3), max_size=6)] * 2),
       unresolved=st.tuples(*[st.lists(_TERM, max_size=4)] * 2))
def test_combine_translations_is_commutative(counts, unresolved):
    a, b = (_tq(c, u) for c, u in zip(counts, unresolved))
    ab, ba = combine_translations(a, b), combine_translations(b, a)
    assert ab.terms.counts == ba.terms.counts
    assert set(ab.unresolved) == set(ba.unresolved)


# --------------------------------------------------------- document channel


def _paired_corpus():
    return Corpus(
        [
            Document(doc_id="e1", lang="en", title="library", abstract="digital library",
                     pair_id="j1"),
            Document(doc_id="j1", lang="ja", title="toshokan", abstract="denshi toshokan",
                     pair_id="e1"),
            Document(doc_id="e2", lang="en", abstract="no pair here"),
        ],
        ["en", "ja"],
    )


def test_translate_document_ht_channel_verbatim():
    corpus = _paired_corpus()
    out = translate_document(corpus.get("e1"), CHANNEL_HT, corpus=corpus)
    assert out is corpus.get("j1")


def test_translate_document_ht_missing_pair():
    corpus = _paired_corpus()
    with pytest.raises(NoPairError):
        translate_document(corpus.get("e2"), CHANNEL_HT, corpus=corpus)


def test_translate_document_ht_needs_the_corpus():
    with pytest.raises(ConfigError, match="corpus"):
        translate_document(_paired_corpus().get("e1"), CHANNEL_HT)


def test_translate_document_mt_sends_no_empty_field():
    adapter = _LoggingAdapter()
    doc = Document(doc_id="d", lang="en", title="library", keywords=["k", ""], abstract="")
    out = translate_document(doc, CHANNEL_MT, adapter=adapter, target_lang="ja")
    assert (out.title, out.keywords, out.abstract) == ("library", ["k", ""], "")
    assert adapter.texts == ["library", "k"]


def test_translate_document_identity_adapter_swaps_language_only():
    doc = Document(doc_id="d", lang="ja", title="t", keywords=["k1", "k2"], abstract="a")
    out = translate_document(doc, CHANNEL_MT, adapter=IdentityAdapter(), target_lang="en")
    assert out.lang == "en"
    assert (out.title, out.keywords, out.abstract) == ("t", ["k1", "k2"], "a")
    assert out.doc_id == "d"


def test_translate_document_mt_table():
    doc = Document(doc_id="d", lang="en", abstract="library of things")
    adapter = TableAdapter({"library": "toshokan"})
    out = translate_document(doc, CHANNEL_MT, adapter=adapter, target_lang="ja")
    assert "toshokan" in out.abstract


def test_translate_document_mt_needs_adapter_and_target():
    doc = Document(doc_id="d", lang="en", abstract="x")
    with pytest.raises(ConfigError):
        translate_document(doc, CHANNEL_MT, target_lang="ja")
    with pytest.raises(ConfigError):
        translate_document(doc, CHANNEL_MT, adapter=IdentityAdapter())
    with pytest.raises(ConfigError):
        translate_document(doc, "fax")


# ------------------------------------------------------------ method wiring


def test_translation_method_validation():
    d = BilingualDictionary({"a": ["b"]})
    adapter = IdentityAdapter()
    TranslationMethod(kind=MT_SENTENCE, adapter=adapter)
    TranslationMethod(kind=DICT_PHRASE, dictionary=d)
    TranslationMethod(kind=COMBINED, adapter=adapter, dictionary=d)
    with pytest.raises(ConfigError):
        TranslationMethod(kind=MT_SENTENCE)
    with pytest.raises(ConfigError):
        TranslationMethod(kind=DICT_PHRASE)
    with pytest.raises(ConfigError):
        TranslationMethod(kind=COMBINED, adapter=adapter)
    with pytest.raises(ConfigError):
        TranslationMethod(kind="osmosis", adapter=adapter)
