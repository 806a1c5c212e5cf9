"""Deterministic synthetic bilingual collections for end-to-end tests.

Two builders:

* ``build_ambiguity_setup``: a 200-document paired collection (100 per
  language) with ten queries whose dictionary translations are deliberately
  ambiguous. Every query word has two candidates and the misleading one is
  planted with the higher document frequency, so first-stage dictionary
  retrieval picks it up and only the second stage can recover. Machine
  back-translation is a lookup table with a few queries' vocabulary corrupted,
  keeping it strictly between the first stage and the clean paired channel.

* ``build_timing_setup``: a flat single-language collection where one term
  matches almost every document, so any retrieval depth is actually reached
  and per-document translation cost scales with the depth.

* ``build_random_setup``: a small random collection with every feature the
  engine keeps state for, for the differential test against
  ``tests/reference.py``.
"""

import random
from collections import Counter
from types import SimpleNamespace

from clir.corpus import AnalyzerConfig, Corpus, Document, Query
from clir.errors import TranslationError
from clir.evaluation import Qrels
from clir.index import build_index
from clir.translate import BilingualDictionary, TableAdapter

SRC = AnalyzerConfig(lang="en")
TGT = AnalyzerConfig(lang="ja")

NUM_QUERIES = 10
RELEVANT_PER_QUERY = 6
DISTRACTORS_PER_QUERY = 4
FOREIGN_PLANTS = 5  # extra documents carrying each misleading term
CORRUPTED_QUERIES = (2, 5, 8)  # back-translation broken for these


def build_ambiguity_setup(seed=20240821):
    rng = random.Random(seed)
    fillers = [f"f{i:02d}" for i in range(60)]

    relevant_tokens = {}
    distractor_tokens = {}
    for k in range(NUM_QUERIES):
        for r in range(RELEVANT_PER_QUERY):
            relevant_tokens[(k, r)] = [f"a{k}", f"b{k}"] + rng.sample(fillers, 2)
        for x in range(DISTRACTORS_PER_QUERY):
            distractor_tokens[(k, x)] = [f"c{k}", f"c{k}"] + rng.sample(fillers, 2)
    # plant each misleading term in a few other queries' distractors so its
    # document frequency beats the true candidate's
    for k in range(NUM_QUERIES):
        for i in range(1, FOREIGN_PLANTS + 1):
            other = (k + i) % NUM_QUERIES
            distractor_tokens[(other, (i - 1) % DISTRACTORS_PER_QUERY)].append(f"c{k}")

    docs = []
    qrels = Qrels()

    def add_pair(doc_id, tokens):
        source_id = "s" + doc_id
        docs.append(Document(doc_id=doc_id, lang="ja", abstract=" ".join(tokens),
                             pair_id=source_id))
        docs.append(Document(doc_id=source_id, lang="en",
                             abstract=" ".join("s" + t for t in tokens),
                             pair_id=doc_id))

    for (k, r), tokens in sorted(relevant_tokens.items()):
        doc_id = f"t{k:02d}r{r}"
        add_pair(doc_id, tokens)
        qrels.add(f"q{k:02d}", doc_id, 2)
    for (k, x), tokens in sorted(distractor_tokens.items()):
        doc_id = f"t{k:02d}x{x}"
        add_pair(doc_id, tokens)
        qrels.add(f"q{k:02d}", doc_id, 0)

    corpus = Corpus(docs, ["en", "ja"])
    index = build_index(corpus.filter_lang("ja"), TGT)

    queries = [
        Query(query_id=f"q{k:02d}", lang="en", description=f"sa{k} sb{k}")
        for k in range(NUM_QUERIES)
    ]

    # each query word has a true and a misleading candidate; the misleading
    # one for the first word is planted more widely, the one for the second
    # word never occurs at all
    entries = {}
    for k in range(NUM_QUERIES):
        entries[f"sa{k}"] = [f"a{k}", f"c{k}"]
        entries[f"sb{k}"] = [f"b{k}", f"m{k}"]
    dictionary = BilingualDictionary(entries)

    back = {f"c{k}": f"sc{k}" for k in range(NUM_QUERIES)}
    back.update({f: "s" + f for f in fillers})
    for k in range(NUM_QUERIES):
        if k in CORRUPTED_QUERIES:
            back[f"a{k}"] = f"zza{k}"
            back[f"b{k}"] = f"zzb{k}"
        else:
            back[f"a{k}"] = f"sa{k}"
            back[f"b{k}"] = f"sb{k}"
    mt_back_table = TableAdapter(back)

    return SimpleNamespace(
        corpus=corpus,
        index=index,
        queries=queries,
        dictionary=dictionary,
        qrels=qrels,
        mt_back_table=mt_back_table,
        src_cfg=SRC,
        tgt_cfg=TGT,
    )


def build_timing_setup(num_docs=100):
    docs = []
    qrels = Qrels()
    for i in range(num_docs):
        tokens = [] if i == num_docs - 1 else ["shared"]
        tokens += [f"extra{i:03d}", f"pad{i % 7}"]
        docs.append(Document(doc_id=f"j{i:03d}", lang="ja", abstract=" ".join(tokens)))
    corpus = Corpus(docs, ["ja"])
    index = build_index(corpus, TGT)
    queries = [
        Query(query_id="tq1", lang="en", description="shared"),
        Query(query_id="tq2", lang="en", description="shared pad1"),
    ]
    qrels.add("tq1", "j000", 2)
    qrels.add("tq2", "j001", 2)
    return SimpleNamespace(corpus=corpus, index=index, queries=queries, qrels=qrels,
                           src_cfg=SRC, tgt_cfg=TGT)


class FailingTable(TableAdapter):
    """A mock table that refuses every text in ``fails`` asked from ``ja``
    into ``en``, each time, and counts its successful calls per (source,
    target, text). A query into ``ja`` always translates."""

    def __init__(self, table, fails=()):
        super().__init__(table)
        self.fails = frozenset(fails)
        self.calls = Counter()

    def translate(self, text, src, tgt):
        if (src, tgt) == ("ja", "en") and text in self.fails:
            raise TranslationError(f"refused {text!r}")
        self.calls[src, tgt, text] += 1
        return super().translate(text, src, tgt)


def build_random_setup(seed):
    """A random ``ja`` collection of 40 to 70 documents with ``en`` pairs,
    a dictionary, a mock table serving both directions, queries and
    judgments, drawn from ``seed``.

    * Documents hold titles, keywords from a pool of eight (so many texts
      are shared across fields and documents), and abstracts of skewed word
      frequencies; a few are empty, have no pair, or link to a missing one.
      Doc ids are random, so their order is not the collection's.
    * The table maps each ``ja`` word to an ``en`` word or two, some with
      capitals or punctuation, and each ``en`` word back to a ``ja`` word,
      a few to the wrong one; some words of either side are missing, and
      pass through. A few keywords and one query have whole-text entries.
      ``fails`` holds one to three document texts that never translate
      into ``en``.
    * Dictionary entries, of one word and of two, share the first candidate
      of their candidate lists, and some candidates are two words or occur
      in no document.
    * Queries repeat words within and across queries, one is asked again
      under a new id, and one is in ``ja``, of words the table lacks.
      Judgments grade six documents for each query but the last, and one
      document for a query never asked.
    """
    rng = random.Random(seed)
    ja_words = [f"t{i}" for i in range(30)]
    en_words = []
    while len(en_words) < len(ja_words):
        word = "".join(rng.choice("abdefgiklmnoprsuvy") for _ in range(rng.randint(2, 6)))
        if word not in en_words:
            en_words.append(word)
    to_en = dict(zip(ja_words, en_words))

    def words(k, pool, skew=1.3):
        return rng.choices(pool, weights=[1 / (r + 1) ** skew for r in range(len(pool))], k=k)

    table = {}
    for ja, en in to_en.items():
        roll = rng.random()
        if roll < 0.1:
            continue  # passes through untranslated
        table[ja] = (en if roll < 0.7 else f"{en} {rng.choice(en_words)}" if roll < 0.85
                     else en.capitalize() + rng.choice(",.;!"))
        table[en] = ja if rng.random() < 0.85 else rng.choice(ja_words)
    untranslated = [ja for ja in ja_words if ja not in table]
    keywords = [" ".join(words(rng.randint(1, 2), ja_words)) for _ in range(8)]
    for keyword in rng.sample(keywords, 2):
        table.setdefault(keyword, " ".join(words(2, en_words)))

    docs = []
    for i in range(rng.randint(40, 70)):
        doc_id = f"{rng.randrange(10**6):06d}-{i}"
        title = "" if rng.random() < 0.5 else rng.choice(keywords) if rng.random() < 0.3 else (
            " ".join(words(rng.randint(1, 3), ja_words)))
        abstract = "" if rng.random() < 0.08 else " ".join(words(rng.randint(1, 12), ja_words))
        roll = rng.random()
        pair_id = None if roll < 0.1 else "missing" if roll < 0.15 else "e" + doc_id
        docs.append(Document(doc_id, "ja", title, rng.sample(keywords, rng.randint(0, 3)),
                             abstract, pair_id))
        if pair_id and pair_id != "missing":
            en_text = " ".join(to_en[w] for w in f"{title} {abstract}".split())
            docs.append(Document(pair_id, "en", abstract=en_text, pair_id=doc_id))
    texts = [text for d in docs if d.lang == "ja" for text in (d.title, *d.keywords, d.abstract)
             if text]
    fails = set(rng.sample(texts, rng.randint(1, 3)))

    heads = rng.sample(ja_words, 3)
    entries = {}
    for phrase in rng.sample(en_words, 10) + [" ".join(rng.sample(en_words, 2)) for _ in range(3)]:
        others = [rng.choice(ja_words + ["t99", "t99 t1"]) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            others.append(" ".join(rng.sample(ja_words, 2)))
        entries[phrase] = [rng.choice(heads), *others]
    phrases = [phrase for phrase in entries if " " in phrase]

    queries = []
    for k in range(rng.randint(5, 8)):
        terms = words(rng.randint(1, 5), en_words, skew=0.8)
        if rng.random() < 0.4:
            terms.insert(rng.randrange(len(terms) + 1), rng.choice(phrases))
        if rng.random() < 0.3:
            terms.append(terms[0])
        terms = [t.upper() if rng.random() < 0.1 else t for t in terms]
        queries.append(Query(f"q{k}", "en", " ".join(terms)))
    table[queries[0].description] = " ".join(words(3, ja_words))
    queries.insert(rng.randrange(1, len(queries) + 1),
                   Query("again", "en", rng.choice(queries).description))
    if untranslated:
        queries.append(Query("qja", "ja", " ".join(words(2, untranslated))))

    qrels = Qrels()
    ja_ids = [d.doc_id for d in docs if d.lang == "ja"]
    for query in queries[:-1]:
        for doc_id in rng.sample(ja_ids, 6):
            qrels.add(query.query_id, doc_id, rng.choice((0, 1, 2, 2)))
    qrels.add("unasked", ja_ids[0], 2)
    return SimpleNamespace(docs=docs, corpus=Corpus(docs, ["en", "ja"]), queries=queries,
                           qrels=qrels, table=table, fails=fails,
                           dictionary=BilingualDictionary(entries))
