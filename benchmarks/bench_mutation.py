"""Experiment S17 — live mutation: ingest, commit, recovery, reads.

The crash-safe mutation layer buys durability with two fsync-bounded
file flips per commit, so the costs worth watching are (a) how much a
*batched* commit amortises that protocol over per-document commits,
(b) how fast recovery replays a committed WAL, and (c) what an
epoch-pinned consistent read costs over the plain in-memory
collection.  Facts land in ``BENCH_mutation.json`` at the repo root;
``mutation.batch_commit_speedup`` and ``mutation.read_overhead`` are
headline ratios watched by ``check_regression.py``.

Run ``pytest benchmarks/bench_mutation.py --benchmark-only`` for the
full experiment, or add ``--smoke`` for the tiny CI variant (shape
checks only; no performance assertions).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.bench.reporting import banner, format_table
from repro.collection.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.storage.mutation import MutableIndex
from repro.workloads.inexlike import InexSpec, generate_collection

from .util import report

BENCH_JSON = (Path(__file__).resolve().parent.parent
              / "BENCH_mutation.json")


def _record(section: str, payload: dict) -> None:
    """Merge one experiment's facts into BENCH_mutation.json."""
    data = {}
    if BENCH_JSON.exists():
        try:
            data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
        except ValueError:
            data = {}
    data[section] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True)
                          + "\n", encoding="utf-8")


def _corpus(smoke: bool) -> dict:
    spec = (InexSpec(articles=8, nodes_per_article=80, seed=53)
            if smoke else
            InexSpec(articles=24, nodes_per_article=300, seed=53))
    collection = generate_collection(spec)
    return {name: collection.document(name)
            for name in collection.names()}


def test_ingest_commit_recovery(benchmark, capsys, smoke, tmp_path):
    docs = _corpus(smoke)
    names = sorted(docs)
    half = len(names) // 2
    seed = {n: docs[n] for n in names[:half]}
    incoming = names[half:]

    def run():
        # Per-document commits: one full WAL-fsync + two file flips
        # per document.
        single = MutableIndex.create(tmp_path / "single", dict(seed),
                                     shards=4)
        started = time.perf_counter()
        for name in incoming:
            single.add(docs[name], name)
        t_single = time.perf_counter() - started
        single.close()

        # Batched: the same documents, one commit at the end.
        batched = MutableIndex.create(tmp_path / "batched", dict(seed),
                                      shards=4)
        started = time.perf_counter()
        for name in incoming:
            batched.add(docs[name], name, commit=False)
        batched.commit()
        t_batched = time.perf_counter() - started
        batched.close()

        # Recovery replays the committed WAL prefix on open.
        started = time.perf_counter()
        recovered = MutableIndex.open(tmp_path / "batched")
        t_recover = time.perf_counter() - started
        replayed = recovered.recovery["wal_records_replayed"]
        visible = len(recovered)
        recovered.close()
        return t_single, t_batched, t_recover, replayed, visible

    t_single, t_batched, t_recover, replayed, visible = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    # Correctness before speed: every ingested document recovered.
    assert visible == len(names)
    assert replayed == len(incoming)

    speedup = t_single / t_batched if t_batched > 0 else 0.0
    _record("mutation", {
        "documents_ingested": len(incoming),
        "per_doc_commit_ms": round(t_single * 1000, 3),
        "batched_commit_ms": round(t_batched * 1000, 3),
        "batch_commit_speedup": round(speedup, 6),
        "recovery_ms": round(t_recover * 1000, 3),
        "wal_records_replayed": replayed,
        "smoke": smoke,
    })
    report(capsys, "\n".join([
        banner("S17: WAL ingest, commit amortisation, recovery"),
        format_table(
            ["metric", "value"],
            [["documents ingested", len(incoming)],
             ["per-document commits (ms)", f"{t_single * 1000:.1f}"],
             ["one batched commit (ms)", f"{t_batched * 1000:.1f}"],
             ["batch commit speedup", f"{speedup:.2f}x"],
             ["recovery / reopen (ms)", f"{t_recover * 1000:.1f}"],
             ["WAL records replayed", replayed]]),
        "",
        "the commit protocol (WAL fsync + manifest flip + CURRENT "
        "flip) is per-commit, not per-document, so batching N "
        "documents under one commit pays it once."]))
    if not smoke:
        assert speedup >= 1.0, (
            f"batched commits came in {speedup:.2f}x — the protocol "
            f"overhead should amortise, not grow")


def test_epoch_pinned_read_overhead(benchmark, capsys, smoke,
                                    tmp_path):
    docs = _corpus(smoke)
    query = Query.of("needle")
    rounds = 3 if smoke else 10

    plain = DocumentCollection("plain")
    for name, doc in docs.items():
        plain.add(doc, name)
    mutable = MutableDocumentCollection.create(tmp_path / "idx", docs,
                                               shards=4)

    def run():
        # Warm both paths (index build / snapshot caches), then time.
        reference = plain.search(query, strategy=Strategy.PUSHDOWN)
        pinned = mutable.search(query, strategy=Strategy.PUSHDOWN)
        assert ([h.label() for h in pinned.hits]
                == [h.label() for h in reference.hits])

        started = time.perf_counter()
        for _ in range(rounds):
            plain.search(query, strategy=Strategy.PUSHDOWN)
        t_plain = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(rounds):
            mutable.search(query, strategy=Strategy.PUSHDOWN)
        t_pinned = time.perf_counter() - started
        return t_plain, t_pinned, len(reference.hits)

    t_plain, t_pinned, hits = benchmark.pedantic(run, rounds=1,
                                                 iterations=1)
    mutable.close()

    overhead = t_pinned / t_plain if t_plain > 0 else 0.0
    _record("reads", {
        "hits": hits,
        "rounds": rounds,
        "plain_ms": round(t_plain * 1000, 3),
        "epoch_pinned_ms": round(t_pinned * 1000, 3),
        "read_overhead": round(overhead, 6),
        "smoke": smoke,
    })
    report(capsys, "\n".join([
        banner("S17: epoch-pinned reads vs in-memory collection"),
        format_table(
            ["metric", "value"],
            [["hits per query", hits],
             ["plain collection (ms)", f"{t_plain * 1000:.1f}"],
             ["epoch-pinned (ms)", f"{t_pinned * 1000:.1f}"],
             ["read overhead", f"{overhead:.2f}x"]]),
        "",
        "an epoch pin is a refcount bump plus a merged base+delta "
        "view; the documents themselves are served from the same "
        "mmap pages either way."]))
