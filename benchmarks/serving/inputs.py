"""Seeded corpus and request-stream generator for the serving benchmark.

Stdlib only, and deliberately independent of ``repro.workloads`` (which
later changes may edit): the benchmark's inputs must stay frozen.

The seed moves *where* things are and never *how much* there is.  Every
document is a fixed abstract layout (which clusters of planted terms
share a section, a chapter, a part) put through a seeded automorphism
of its tree — sibling order is shuffled at every level — plus seeded
filler words and document placement.  Fragment sizes and heights depend
only on tree distances, which an automorphism keeps, so two seeds cost
the program exactly the same joins, answers and bytes; a metric's
spread across seeds is the machine's, not the inputs'.  Request streams
are seeded shuffles of a fixed multiset for the same reason.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

__all__ = ["Request", "Inputs", "SIZES", "make_inputs", "make_request",
           "write_corpus", "sha256_of"]

#: Corpus dimensions per mode.  ``quick`` exists for the harness test.
SIZES = {
    "full": {"wide_docs": 1500, "wide_queries": 32,
             "deep_docs": 24, "deep_fanout": (4, 4, 5, 9)},
    "quick": {"wide_docs": 100, "wide_queries": 8,
              "deep_docs": 4, "deep_fanout": (4, 2, 3, 5)},
}

_FILLER = 4000                      # filler vocabulary size
_WIDE_SECS, _WIDE_PARS = 6, 33      # 1 + 6 + 33 = 40 nodes per document
_DENSE = [f"dense{i}x" for i in range(8)]
_SMALL_FANOUT = (4, 1, 3, 4)        # 69-node documents the writer adds
_STREAM_BLOCKS = 16                 # request stream length, in blocks


@dataclass(frozen=True)
class Request:
    """One ``POST /query`` of a stream; ``query`` keys its expected answer."""

    kind: str        # "plain" | "stream"
    query: str
    body: bytes

    @property
    def limit(self) -> int:
        """Hits the response carries at most (the server's page size)."""
        return 10 if self.kind == "stream" else 50


@dataclass
class Inputs:
    """Everything one workload run feeds the program."""

    corpus: dict[str, str]                 # file name -> XML text
    queries: list[str]                     # distinct queries
    streams: dict[str, list[Request]]      # request class -> sequence
    empty_query: str                       # a query with zero hits
    #: The writer's script: ("add" | "remove", document name, version key).
    writes: list[tuple] = field(default_factory=list)
    versions: dict[str, str] = field(default_factory=dict)  # key -> XML

    @property
    def xml_bytes(self) -> int:
        return sum(len(text.encode("utf-8"))
                   for text in self.corpus.values())

    def fingerprint(self) -> dict:
        """sha256 of the XML set and of the request stream."""
        stream = {kind: [r.body.decode("utf-8") for r in requests]
                  for kind, requests in self.streams.items()}
        return {"corpus_sha256": sha256_of([self.corpus, self.versions]),
                "requests_sha256": sha256_of([stream, self.writes])}


def sha256_of(obj) -> str:
    """Stable sha256 of a JSON-serialisable object."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def make_request(kind: str, query: str) -> Request:
    payload = {"query": query}
    if kind == "stream":
        payload.update(stream=True, limit=10)
    return Request(kind, query, json.dumps(payload).encode("utf-8"))


def _words(rng: random.Random, n: int) -> str:
    return " ".join(f"w{rng.randrange(_FILLER):04d}" for _ in range(n))


def _streams(rng: random.Random, strata: list[list[str]]) -> dict:
    """Per-class request sequences: blocks of evenly spread strata.

    A block holds every member of every stratum once.  Each stratum is
    shuffled and its members spaced evenly through the block from a
    seeded phase, so whatever the seed a window of requests holds the
    strata in fixed proportion: the timed mix does not depend on where
    an interval happens to start or stop.
    """
    def block() -> list[str]:
        keyed = []
        for members in strata:
            phase = rng.random()
            for j, query in enumerate(rng.sample(members, len(members))):
                keyed.append(((j + phase) / len(members), query))
        return [query for _, query in sorted(keyed)]

    return {kind: [make_request(kind, query)
                   for _ in range(_STREAM_BLOCKS) for query in block()]
            for kind in ("plain", "stream")}


# -- wide corpus: many small documents, selective queries ---------------

def _wide(rng: random.Random, size: dict) -> Inputs:
    docs, nq = size["wide_docs"], size["wide_queries"]
    texts = [[_words(rng, 4) for _ in range(1 + _WIDE_SECS + _WIDE_PARS)]
             for _ in range(docs)]
    # Slot numbering: 0 the doc, 1..6 its sections, then the paragraphs,
    # dealt round-robin to the sections.
    pars_of = [[] for _ in range(_WIDE_SECS)]
    for p in range(_WIDE_PARS):
        pars_of[p % _WIDE_SECS].append(1 + _WIDE_SECS + p)

    queries, strata = [], []
    for i in range(nq):
        a, b = f"qa{i:02d}x", f"qb{i:02d}x"
        # Every eighth query has no hits: its terms never share a document.
        both = 0 if i % 8 == 5 else (15, 30, 45)[i % 3] * docs // 1500
        alone = 90 * docs // 1500 - both       # each term: 6% of documents
        chosen = rng.sample(range(docs), both + 2 * alone)
        for j, doc in enumerate(chosen[:both]):
            if j % 2:                          # same section: 3-node answer
                pa, pb = rng.sample(rng.choice(pars_of), 2)
            else:                              # two sections: 5-node answer
                sa, sb = rng.sample(pars_of, 2)
                pa, pb = rng.choice(sa), rng.choice(sb)
            texts[doc][pa] += " " + a
            texts[doc][pb] += " " + b
        for j, doc in enumerate(chosen[both:]):
            texts[doc][rng.choice(rng.choice(pars_of))] += \
                " " + (a if j % 2 else b)
        query = f"{a} {b} [size<=6]"
        queries.append(query)
        # Zipf over a fixed ranking: rank r appears ~32/r times a block,
        # its repeats spread evenly.
        strata.append([query] * max(1, round(32 / (i + 1))))
    corpus = {}
    for d, t in enumerate(texts):
        secs = "".join(
            f"<sec>{t[1 + s]}"
            + "".join(f"<p>{t[n]}</p>" for n in pars_of[s]) + "</sec>"
            for s in range(_WIDE_SECS))
        corpus[f"wide-{d:04d}.xml"] = f"<doc>{t[0]}{secs}</doc>"
    return Inputs(corpus, queries, _streams(rng, strata), queries[5])


# -- deep corpus: few large documents, dense terms, join-heavy ----------

def _deep_layout(variant: int, chapters: int) -> dict[tuple, list[str]]:
    """Abstract paragraph coordinates -> planted terms, for one variant.

    Eight slots; the variant deals the eight terms to them (an affine
    map mod 8, so over the variants every pair of terms is neighbours
    in some documents and strangers in others).  Slots ``2k`` and
    ``2k+1`` share section ``(k, 0, 0)`` (two paragraphs each: 3-node
    joint fragments).  Each slot has a second two-paragraph cluster:
    slot ``2k``'s beside its own shared section, slot ``2k+1``'s beside
    the *next* pair's, so slots ``(2k+1, 2k+2)`` meet only across
    sections.  The variant also moves second clusters from the
    neighbouring section (5-node paths) to a neighbouring chapter
    (7-node paths), which is what separates the ``size<=5``,
    ``size<=7`` and ``height<=2`` filters.
    """
    layout: dict[tuple, list[str]] = {}
    stride, shift = (1, 3, 5, 7)[variant % 4], variant // 4
    for slot in range(8):
        term = _DENSE[(stride * slot + shift) % 8]
        pair, odd = divmod(slot, 2)
        # Second cluster: one chapter over when the shift's bit for this
        # parity is set (and the document has a second chapter).
        chapter = min((shift >> odd) & 1, chapters - 1)
        part = (pair + odd) % 4
        for p in (0, 1):
            layout.setdefault((pair, 0, 0, 2 * odd + p), []).append(term)
            layout.setdefault((part, chapter, 1 + odd, p), []).append(term)
    return layout


def _deep_document(rng: random.Random, fanout: tuple, variant: int) -> str:
    """One book (part/chapter/section/p) under a seeded automorphism."""
    layout = _deep_layout(variant, fanout[1])
    out = [f"<book>{_words(rng, 3)}"]

    def shuffled(n: int) -> list[int]:
        return rng.sample(range(n), n)

    for a in shuffled(fanout[0]):
        out.append(f"<part>{_words(rng, 3)}")
        for b in shuffled(fanout[1]):
            out.append(f"<chapter>{_words(rng, 3)}")
            for c in shuffled(fanout[2]):
                out.append(f"<section>{_words(rng, 3)}")
                for p in shuffled(fanout[3]):
                    planted = "".join(
                        " " + t for t in layout.get((a, b, c, p), ()))
                    out.append(f"<p>{_words(rng, 5)}{planted}</p>")
                out.append("</section>")
            out.append("</chapter>")
        out.append("</part>")
    out.append("</book>")
    return "".join(out)


def _deep(rng: random.Random, size: dict, writable: bool) -> Inputs:
    fanout = size["deep_fanout"]
    corpus = {f"deep-{d:03d}.xml": _deep_document(rng, fanout, d)
              for d in range(size["deep_docs"])}
    # Three anti-monotonic filters to one that is not (Theorem 3 must
    # not push ``size>=3`` below the joins).  Each of the 24 term pairs
    # that are neighbours in some document takes three of the four, in
    # rotation: 72 distinct queries whose joins together are about
    # twice the program's 65536-entry join memo, so a steady state
    # still computes joins instead of replaying them.
    filters = ("size<=5", "size<=7", "size<=7 & height<=2",
               "size<=6 & size>=3")
    pairs = [(a, _DENSE[j]) for i, a in enumerate(_DENSE)
             for j in range(i + 1, 8) if j - i != 4]
    queries = [f"{a} {b} [{f}]" for j, (a, b) in enumerate(pairs)
               for k, f in enumerate(filters) if k != j % 4]
    # One stratum per filter: any four consecutive requests carry one of
    # each, the expensive non-anti-monotonic one included.
    strata = [[q for q in queries if q.endswith(f"[{f}]")] for f in filters]
    inputs = Inputs(corpus, queries, _streams(rng, strata),
                    f"{_DENSE[0]} absentterm [size<=5]")
    if writable:
        _add_writes(rng, inputs, fanout)
    return inputs


def _add_writes(rng: random.Random, inputs: Inputs, fanout: tuple) -> None:
    """The open-loop writer's script: add, add, replace-large, remove.

    Document *contents* come from a small pool of versions so the
    oracle evaluates each (query, version) once; names are fresh.
    """
    for v in range(4):
        inputs.versions[f"small{v}"] = _deep_document(rng, _SMALL_FANOUT, v)
    for v in range(2):
        inputs.versions[f"large{v}"] = _deep_document(rng, fanout, 5 + v)
    target = sorted(inputs.corpus)[0]
    for cycle in range(256):
        first, second = f"new-{cycle:03d}a.xml", f"new-{cycle:03d}b.xml"
        inputs.writes += [("add", first, f"small{cycle % 4}"),
                          ("add", second, f"small{(cycle + 1) % 4}"),
                          ("add", target, f"large{cycle % 2}"),
                          ("remove", first, None)]


def make_inputs(workload: str, seed: int, mode: str = "full") -> Inputs:
    """The inputs of one workload for one seed."""
    size = SIZES[mode]
    if workload == "ro_selective":
        return _wide(random.Random(f"wide-{seed}"), size)
    # The three deep workloads share one corpus and request stream.
    return _deep(random.Random(f"deep-{seed}"), size,
                 writable=workload == "rw_mixed_ingest")


def write_corpus(corpus: dict[str, str], directory: str) -> None:
    """Materialise a corpus as ``*.xml`` files for the CLI to index."""
    os.makedirs(directory, exist_ok=True)
    for name, text in corpus.items():
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as handle:
            handle.write(text)
