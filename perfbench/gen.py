"""Seeded generator of the benchmark's bilingual collections.

Everything the program reads comes from here, written as the files the
``clir`` command loads: a JSON-lines collection (target-language documents
with their source-language pairs), a JSON-lines query file, TREC judgments,
a bilingual dictionary and a two-way mock translation table.

Target-language ("ja") tokens start with ``j``, source-language ("en") tokens
with ``e``; the mock table maps each one to the other, so one table serves
query translation (en -> ja) and document translation (ja -> en).

Quality is kept away from the ceiling the way ``tests/synth.py`` does it,
with fixed shares so that mean average precision moves little between seeds:

* topics come in pairs that share two of their six words;
* two of each topic's own words, and one of each pair's shared words, have a
  second dictionary candidate: a decoy planted in more documents than the
  true word, so the dictionary half of ``mpbt`` picks it and stage one pulls
  in off-topic documents;
* the mock table mistranslates one own word of every topic into the target
  language, and every word of every fifth topic back out of it;
* relevant documents carry only a random subset of their topic's words.
"""

import argparse
import bisect
import itertools
import json
import os
import random
from dataclasses import dataclass

SRC_LANG = "en"
TGT_LANG = "ja"
OWN_WORDS = 4  # words of one topic only
SHARED_WORDS = 2  # words a pair of topics shares


@dataclass(frozen=True)
class Shape:
    """Size and make-up of one generated collection."""

    topics: int
    relevant_per_topic: int
    background_docs: int
    vocab: int  # background Zipf vocabulary
    queries: int
    query_head_words: int = 8
    head: int = 24  # the Zipf-head words queries draw from
    abstract_len: tuple = (30, 70)
    keywords: int = 3  # fixed, so translator calls per document are fixed too
    decoy_docs: int = 40  # documents each topic's decoys are planted in


SHAPES = {
    "full": {
        "search": Shape(topics=500, relevant_per_topic=8, background_docs=2000,
                        vocab=8000, queries=200, decoy_docs=30),
        "search2": Shape(topics=50, relevant_per_topic=20, background_docs=1000,
                         vocab=3000, queries=200),
        "sweep": Shape(topics=50, relevant_per_topic=20, background_docs=1000,
                       vocab=3000, queries=34),
    },
    "tiny": {
        "search": Shape(topics=20, relevant_per_topic=5, background_docs=60,
                        vocab=300, queries=12, decoy_docs=8),
        "search2": Shape(topics=10, relevant_per_topic=6, background_docs=60,
                         vocab=300, queries=12, decoy_docs=8),
        "sweep": Shape(topics=10, relevant_per_topic=6, background_docs=60,
                       vocab=300, queries=6, decoy_docs=8),
    },
}


@dataclass
class Files:
    """Paths of one generated collection's files."""

    corpus: str
    queries: str
    qrels: str
    dictionary: str
    table: str

    @classmethod
    def under(cls, out_dir):
        return cls(
            corpus=os.path.join(out_dir, "corpus.jsonl"),
            queries=os.path.join(out_dir, "queries.jsonl"),
            qrels=os.path.join(out_dir, "qrels.txt"),
            dictionary=os.path.join(out_dir, "dict.tsv"),
            table=os.path.join(out_dir, "table.tsv"),
        )


def _zipf_sampler(rng, vocab, s=1.0):
    cum = list(itertools.accumulate(1.0 / (r + 1) ** s for r in range(len(vocab))))
    total = cum[-1]

    def draw(k):
        return [vocab[bisect.bisect(cum, rng.random() * total)] for _ in range(k)]

    return draw


def generate(shape, seed, workload, out_dir):
    """Write one collection into ``out_dir`` and return the paths of its files.

    The same (shape, seed, workload) always gives byte-identical files.
    """
    rng = random.Random(f"clir-bench:{workload}:{seed}")
    background = [f"jb{i}" for i in range(shape.vocab)]
    draw = _zipf_sampler(rng, background)
    own = [[f"jt{k}w{j}" for j in range(OWN_WORDS)] for k in range(shape.topics)]
    shared = [[f"jt{p}s{j}" for j in range(SHARED_WORDS)] for p in range((shape.topics + 1) // 2)]
    topic_words = [own[k] + shared[k // 2] for k in range(shape.topics)]

    def make_doc(topic):
        lo, hi = shape.abstract_len
        abstract = draw(rng.randint(lo, hi))
        title = draw(rng.randint(2, 4))
        keywords = [" ".join(draw(rng.randint(1, 2))) for _ in range(shape.keywords)]
        if topic is not None:
            words = [w for w in topic_words[topic] if rng.random() < 0.5]
            words = words or [rng.choice(topic_words[topic])]
            for w in words:
                for _ in range(rng.randint(1, 3)):
                    abstract.insert(rng.randrange(len(abstract) + 1), w)
            title.insert(rng.randrange(len(title) + 1), rng.choice(words))
            keywords[rng.randrange(len(keywords))] = rng.choice(words)
        return {"title": title, "keywords": keywords, "abstract": abstract}

    docs = []  # (doc_id, topic or None, fields)
    for k in range(shape.topics):
        for _ in range(shape.relevant_per_topic):
            docs.append((f"d{len(docs):06d}", k, make_doc(k)))
    for _ in range(shape.background_docs):
        docs.append((f"d{len(docs):06d}", None, make_doc(None)))

    # One topic's decoys share their host documents, which then match
    # several query words and outscore relevant documents.
    decoyed = set()
    for k in range(shape.topics):
        words = rng.sample(own[k], 2)
        if k % 2 == 0:
            words.append(rng.choice(shared[k // 2]))
        decoyed.update(words)
        hosts = [d for d in rng.sample(docs, shape.decoy_docs) if d[1] != k]
        for w in words:
            for _doc_id, _topic, fields in hosts:
                if rng.random() < 0.7:
                    abstract = fields["abstract"]
                    abstract.insert(rng.randrange(len(abstract) + 1), "jx" + w[1:])

    dictionary = {}
    table = {}
    for w in background:
        dictionary["e" + w[1:]] = [w]
        table["e" + w[1:]] = w
        table[w] = "e" + w[1:]
    for k in range(shape.topics):
        broken = rng.choice(own[k])
        for w in topic_words[k] if k % 2 == 0 else own[k]:
            src = "e" + w[1:]
            cands = [w]
            if w in decoyed:
                cands.append("jx" + w[1:])
                table["jx" + w[1:]] = "ex" + w[1:]
                rng.shuffle(cands)
            dictionary[src] = cands
            if w in own[k]:
                table[src] = "jz" + w[1:] if w == broken else w
                table[w] = "ez" + w[1:] if k % 5 == 4 else src
            else:
                table[src] = w
                table[w] = src
    seen_abstracts = set()
    lines = []
    for doc_id, _topic, fields in docs:
        abstract = " ".join(fields["abstract"])
        # abstracts are unique: the benchmark maps them back to document ids
        if abstract in seen_abstracts:
            raise RuntimeError(f"generated abstract of {doc_id} repeats another")
        seen_abstracts.add(abstract)
        tgt = {"id": doc_id, "lang": TGT_LANG, "title": " ".join(fields["title"]),
               "keywords": fields["keywords"], "abstract": abstract, "pair_id": "e" + doc_id}
        src = {"id": "e" + doc_id, "lang": SRC_LANG,
               "title": _to_src(tgt["title"]),
               "keywords": [_to_src(kw) for kw in tgt["keywords"]],
               "abstract": _to_src(abstract), "pair_id": doc_id}
        lines.append(json.dumps(tgt))
        lines.append(json.dumps(src))

    relevant = {}
    for doc_id, topic, _fields in docs:
        if topic is not None:
            relevant.setdefault(topic, []).append(doc_id)
    head = background[: shape.head]
    query_lines, qrels_lines = [], []
    for q in range(shape.queries):
        topic = q % shape.topics
        words = rng.sample(own[topic], OWN_WORDS - 1) + [rng.choice(shared[topic // 2])]
        words += rng.sample(head, shape.query_head_words)
        rng.shuffle(words)
        qid = f"q{q:04d}"
        query_lines.append(json.dumps({"id": qid, "lang": SRC_LANG,
                                       "description": " ".join("e" + w[1:] for w in words)}))
        qrels_lines.extend(f"{qid} 0 {doc_id} 2" for doc_id in relevant[topic])

    os.makedirs(out_dir, exist_ok=True)
    files = Files.under(out_dir)
    _write(files.corpus, lines)
    _write(files.queries, query_lines)
    _write(files.qrels, qrels_lines)
    _write(files.dictionary, (f"{s}\t{'|'.join(c)}" for s, c in dictionary.items()))
    _write(files.table, (f"{s}\t{t}" for s, t in table.items()))
    return files


def _to_src(text):
    return " ".join("e" + tok[1:] for tok in text.split())


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description="Write one seeded benchmark collection.")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES["full"]))
    parser.add_argument("--scale", default="full", choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    generate(SHAPES[args.scale][args.workload], args.seed, args.workload, args.out)


if __name__ == "__main__":
    main()
