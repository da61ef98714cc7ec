"""The traced run: per-layer metrics, measured from the benchmark's side.

Kept apart from the timed runs (tracing off there).  The harness imports
``repro`` into its own process and drives each layer through public
entry points only — nothing under ``src/`` is edited or patched:

* ``request`` ⊃ ``collection.search`` ⊃ ``storage.*`` are *nested* spans
  of one real request: a ``MetricsServer`` over loopback serves a proxy
  around ``DocumentCollection.open_index(TracedShardIndex)``, a
  ``ShardIndex`` subclass whose public lookups record spans;
* ``core.evaluate`` / ``core.stream_topk`` / ``exec.search`` cannot be
  reached from outside a running search, so they are *replayed* right
  after each request through ``evaluate`` / ``stream_evaluate`` /
  ``ParallelExecutor.search`` and recorded under that request's
  ``collection.search`` span with ``replayed: true``;
* everything else (parse, index build, attach, mutation, pool start) is a
  direct timed call.

Spans stay in memory and are written once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from contextlib import contextmanager

from harness import WORKLOADS, NoiseGuard, Run, run_rep, shaped
from inputs import Request, make_request, write_corpus
from load import Client, Load, Samples
from server import REPO_ROOT, Server, directory_bytes, run_cli

__all__ = ["traced_run"]

SAMPLE_PER_CLASS = 40
TRACE_SECONDS = 4.0


class Tracer:
    """In-memory spans: name, layer, request id, parent, start, end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.by_request: dict[int, list[dict]] = {}
        self.request_id = 0          # one traced request is in flight
        self._open: dict[int, int] = {}     # request id -> open span id

    @contextmanager
    def span(self, name: str, **args):
        span = {"id": len(self.spans), "name": name,
                "layer": name.rsplit(".", 1)[0],
                "request_id": self.request_id,
                "parent": self._open.get(self.request_id),
                "start": time.perf_counter(), "end": None, "args": args}
        self.spans.append(span)
        self.by_request.setdefault(self.request_id, []).append(span)
        if not args.get("replayed"):
            self._open[self.request_id] = span["id"]
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            if not args.get("replayed"):
                self._open[self.request_id] = span["parent"]

    def adopt(self, span: dict) -> None:
        """Make ``span`` the parent of the replayed spans that follow."""
        self._open[span["request_id"]] = span["id"]

    def ms(self, request_id: int, prefix: str) -> float:
        """Summed milliseconds of one request's spans named ``prefix*``."""
        return 1000.0 * sum(s["end"] - s["start"]
                            for s in self.by_request.get(request_id, ())
                            if s["name"].startswith(prefix))

    def write(self, path: str) -> None:
        events = [{"name": s["name"], "cat": s["layer"], "ph": "X",
                   "pid": 1, "tid": s["request_id"],
                   "ts": s["start"] * 1e6,
                   "dur": (s["end"] - s["start"]) * 1e6,
                   "args": {"id": s["id"], "parent": s["parent"],
                            **s["args"]}}
                  for s in self.spans if s["end"] is not None]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


def _median_ms(seconds: list[float]) -> float:
    return 1000.0 * statistics.median(seconds)


def _timed(call, *args, **kwargs) -> tuple[float, object]:
    start = time.perf_counter()
    result = call(*args, **kwargs)
    return time.perf_counter() - start, result


class _CollectionProxy:
    """What ``MetricsServer`` sees: the collection, with spans."""

    def __init__(self, collection, tracer: Tracer) -> None:
        self._collection, self._tracer = collection, tracer

    def __getattr__(self, name):
        return getattr(self._collection, name)

    def __contains__(self, name) -> bool:
        return name in self._collection

    def __len__(self) -> int:
        return len(self._collection)

    def search(self, *args, **kwargs):
        with self._tracer.span("collection.search"):
            result = self._collection.search(*args, **kwargs)
            # A streamed search is a generator: drain it inside the span.
            return list(result) if kwargs.get("stream") else result


def _traced_shard_index(tracer: Tracer):
    from repro.storage.shards import ShardIndex

    class TracedShardIndex(ShardIndex):
        def contains(self, name, term):
            with tracer.span("storage.shards.contains"):
                return super().contains(name, term)

        def document(self, name):
            with tracer.span("storage.shards.document"):
                return super().document(name)

        def inverted_index(self, name):
            with tracer.span("storage.shards.inverted_index"):
                return super().inverted_index(name)

    return TracedShardIndex


def _replay_topk(pairs: list, query, k: int, cache) -> None:
    """The collection's streamed search, replayed on the core layer.

    Adaptive rounds of ``stream_evaluate`` under ``size <= beta`` over
    every live document, doubling beta until ``k`` hits exist — the
    loop ``DocumentCollection.search(stream=True, limit=k)`` documents.
    """
    from repro.core.filters import SizeAtMost
    from repro.core.streaming import stream_evaluate
    largest = max(document.size for document, _ in pairs)
    beta = min(4, largest)
    while True:
        found = sum(1 for document, inverted in pairs
                    for _ in stream_evaluate(
                        document, query, index=inverted, cache=cache,
                        extra_predicate=SizeAtMost(beta)))
        if found >= k or beta >= largest:
            return
        beta = min(beta * 2, largest)


# -- traced requests -----------------------------------------------------------

def _sample(inputs) -> list[Request]:
    """The first requests of each class, interleaved as the load is."""
    pairs = zip(inputs.streams["plain"][:SAMPLE_PER_CLASS],
                inputs.streams["stream"][:SAMPLE_PER_CLASS])
    return [request for pair in pairs for request in pair]


def _replay(tracer: Tracer, request: Request, query, pairs: list,
            executor, cache) -> list:
    """The layers below ``collection.search``, replayed with spans.

    Returns the per-document results that carry operation stats (none
    for the NDJSON class, whose replay streams fragments instead).
    """
    if executor is not None:
        with tracer.span("exec.search", replayed=True):
            results = executor.search(query).per_document.values()
        return list(results) if request.kind == "plain" else []
    if request.kind == "stream":
        with tracer.span("core.stream_topk", replayed=True):
            _replay_topk(pairs, query, request.limit, cache)
        return []
    from repro.core.strategies import evaluate
    results = []
    for document, inverted in pairs:
        with tracer.span("core.evaluate", replayed=True):
            results.append(evaluate(document, query, index=inverted,
                                    cache=cache))
    return results


def _traced_requests(run, index_dir: str, tracer: Tracer,
                     checks: Samples) -> dict:
    """Each sampled request, served in-process with spans, then replayed."""
    from repro.collection.collection import DocumentCollection
    from repro.core.algebra import JoinCache
    from repro.core.queryparser import parse_query
    from repro.exec.parallel import ParallelExecutor
    from repro.obs import Observability
    from repro.obs.server import MetricsServer, QueryGuardrails

    workload = run.workload
    if workload.writable:
        # Snapshots, not shards: no storage spans, and one collection
        # serves both the requests and the replay.
        collection = replay = DocumentCollection.open_mutable(index_dir)
    else:
        collection = DocumentCollection.open_index(
            _traced_shard_index(tracer).attach(index_dir, on_error="skip",
                                               cache_limit=64))
        replay = DocumentCollection.open_index(index_dir)
    executor = (ParallelExecutor(index_path=index_dir, workers=2)
                if workload.pooled else None)
    cache, rows = JoinCache(), []
    server = MetricsServer(
        Observability(), collection=_CollectionProxy(collection, tracer),
        guardrails=QueryGuardrails(
            workers=2 if workload.pooled else None)).start()
    try:
        load = Load(run.inputs, run.oracle, "127.0.0.1", server.port,
                    connections=1)
        client = Client("127.0.0.1", server.port)
        for request in _sample(run.inputs):
            tracer.request_id = rid = tracer.request_id + 1
            with tracer.span("request", kind=request.kind,
                             query=request.query) as outer:
                load.send(client, request, checks)
            tracer.adopt(next(
                (s for s in tracer.by_request[rid]
                 if s["name"] == "collection.search"), outer))
            query = parse_query(request.query)
            names = [name for name in replay.names()
                     if replay.has_terms(name, query.terms)]
            results = _replay(
                tracer, request, query,
                [(replay.document(n), replay.index(n)) for n in names],
                executor, cache) if names else []
            request_ms = tracer.ms(rid, "request")
            search_ms = tracer.ms(rid, "collection.search")
            below_ms = (tracer.ms(rid, "storage.") + tracer.ms(rid, "core.")
                        + tracer.ms(rid, "exec."))
            rows.append({
                "kind": request.kind, "request_ms": request_ms,
                "search_ms": search_ms,
                "server_self_ms": request_ms - search_ms,
                "collection_self_ms": search_ms - below_ms,
                "unattributed_pct":
                    100.0 * abs(search_ms - below_ms) / request_ms,
                "screened": len(replay), "evaluated": len(names),
                "joins": sum(r.stats["fragment_joins"] for r in results),
                "cache_hits": sum(r.stats["join_cache_hits"]
                                  for r in results),
                "answers": sum(len(r.fragments) for r in results)})
        client.close()
    finally:
        server.stop()
        if executor is not None:
            executor.shutdown()
        collection.close()
        replay.close()

    def column(name: str, kind: str = "") -> list[float]:
        return [row[name] for row in rows if kind in ("", row["kind"])]

    lookups = sum(column("joins", "plain") + column("cache_hits", "plain"))
    return {
        "trace.request_p50_ms": statistics.median(column("request_ms")),
        "trace.plain_request_p50_ms":
            statistics.median(column("request_ms", "plain")),
        "trace.unattributed_pct":
            statistics.median(column("unattributed_pct")),
        "obs.server.self_ms": statistics.median(column("server_self_ms")),
        "collection.search_ms": statistics.median(column("search_ms")),
        "collection.self_ms":
            statistics.median(column("collection_self_ms")),
        "collection.docs_screened": statistics.mean(column("screened")),
        "collection.docs_evaluated": statistics.mean(column("evaluated")),
        "collection.screen_hit_ratio":
            sum(column("evaluated")) / max(1, sum(column("screened"))),
        "core.joins_per_request": statistics.mean(column("joins", "plain")),
        "core.answers_per_request":
            statistics.mean(column("answers", "plain")),
        "core.join_cache_hit_ratio":
            sum(column("cache_hits", "plain")) / max(1, lookups),
    }


# -- direct layer probes ---------------------------------------------------------

def _probe_documents(run) -> dict:
    """xmltree and index: parse and index-build cost per document."""
    from repro.index.inverted import InvertedIndex
    from repro.xmltree.parser import parse
    texts = list(run.inputs.corpus.items())[:200]
    parsed, indexed = [], []
    for name, text in texts:
        seconds, document = _timed(parse, text, name=name)
        parsed.append(seconds)
        indexed.append(_timed(InvertedIndex, document)[0])
    return {"xmltree.parse_ms_per_doc": _median_ms(parsed),
            "index.build_ms_per_doc": _median_ms(indexed)}


def _probe_shards(run, index_dir: str) -> dict:
    """storage.shards: attach, postings probe, cold document, footprint."""
    from repro.storage.shards import ShardIndex
    attach = []
    for _ in range(5):
        seconds, index = _timed(ShardIndex.attach, index_dir)
        attach.append(seconds)
        index.close()
    index = ShardIndex.attach(index_dir)
    try:
        names = index.names()
        terms = run.inputs.queries[0].split(" [")[0].split()
        start = time.perf_counter()
        for name in names:
            for term in terms:
                index.contains(name, term)
        contains_us = (1e6 * (time.perf_counter() - start)
                       / (len(names) * len(terms)))
        cold = [_timed(index.document, name)[0] for name in names[:64]]
        nodes = sum(index.node_count(name) for name in names)
    finally:
        index.close()
    return {"storage.shards.attach_ms": _median_ms(attach),
            "storage.shards.contains_us": contains_us,
            "storage.shards.document_cold_ms": _median_ms(cold),
            "storage.shards.bytes_per_node":
                directory_bytes(index_dir) / nodes}


def _probe_core(run, index_dir: str) -> dict:
    """core (both kernels), guard.screen, exec: the same plain requests."""
    from repro.collection.collection import DocumentCollection
    from repro.core.algebra import JoinCache
    from repro.core.queryparser import parse_query
    from repro.core.strategies import evaluate
    from repro.exec.parallel import ParallelExecutor
    from repro.guard.admission import AdmissionPolicy

    queries = [parse_query(r.query) for r in
               run.inputs.streams["plain"][:SAMPLE_PER_CLASS]]
    collection = DocumentCollection.open_index(index_dir)
    policy = AdmissionPolicy(max_cost=1e30)     # screens, never rejects
    caches = {None: JoinCache(), "bitset": JoinCache(),
              "topk": JoinCache()}
    times = {key: [] for key in ("reference", "bitset", "topk", "screen",
                                 "serial", "pool")}
    try:
        for query in queries:
            names = [n for n in collection.names()
                     if collection.has_terms(n, query.terms)]
            pairs = [(collection.document(n), collection.index(n))
                     for n in names]
            for kernel, key in ((None, "reference"), ("bitset", "bitset")):
                start = time.perf_counter()
                for document, inverted in pairs:
                    evaluate(document, query, index=inverted,
                             cache=caches[kernel], kernel=kernel)
                times[key].append(time.perf_counter() - start)
            if pairs:
                times["topk"].append(_timed(_replay_topk, pairs, query, 10,
                                            caches["topk"])[0])
            if len(times["screen"]) < 3:    # prices every document: slow
                times["screen"].append(
                    _timed(collection.screen, policy, query)[0])
            times["serial"].append(_timed(collection.search, query)[0])
        executor = ParallelExecutor(index_path=index_dir, workers=2)
        try:
            for query in queries[:2] + queries:       # two to warm up
                times["pool"].append(_timed(executor.search, query)[0])
        finally:
            executor.shutdown()
    finally:
        collection.close()
    return {"core.evaluate_ms": _median_ms(times["reference"]),
            "core.evaluate_bitset_ms": _median_ms(times["bitset"]),
            "core.stream_topk_ms": _median_ms(times["topk"]),
            "guard.screen_ms": _median_ms(times["screen"]),
            "exec.search_ms": _median_ms(times["pool"][2:]),
            "exec.transport_overhead_ms": (_median_ms(times["pool"][2:])
                                           - _median_ms(times["serial"]))}


def _probe_pool_server(run, index_dir: str) -> dict:
    """exec, through ``serve --workers 2``: cold first query, pool start.

    Does a never-warmed server answer its first HTTP query within 10 s?
    (A pool first forked from a handler thread deadlocks while the main
    thread waits on stdin.)  And how long does the first stdin query,
    which forks and attaches the workers, take on a fresh server?
    """
    first = run.inputs.streams["plain"][0]
    server = Server("--index", index_dir, "--workers", "2")
    try:
        client = Client(server.host, server.port, timeout=10.0)
        status, _ = client.post("/query", first.body)
        client.close()
    finally:
        server.kill()
    server = Server("--index", index_dir, "--workers", "2")
    try:
        pool_start, answered = _timed(server.stdin_query, first.query)
    finally:
        server.kill()
    if not answered:
        raise RuntimeError("pool warm-up query got no answer")
    return {"exec.cold_pool_first_query_ok": float(status == 200),
            "exec.pool_start_ms": 1000.0 * pool_start}


def _probe_mutation(inputs, work_dir: str) -> dict:
    """storage.mutation, in-process, on the writable workload's inputs."""
    from repro.collection.collection import DocumentCollection
    from repro.core.queryparser import parse_query
    from repro.storage.mutation import MutableIndex
    from repro.xmltree.parser import parse

    xml_dir = os.path.join(work_dir, "mutation-xml")
    path = os.path.join(work_dir, "mutation-index")
    write_corpus(inputs.corpus, xml_dir)
    run_cli("index", "ingest", path, xml_dir, "--create")
    versions = {key: parse(text, name=key)
                for key, text in inputs.versions.items()}
    queries = [parse_query(q) for q in inputs.queries[:8]]
    add, commit, snapshot, cold, warm = [], [], [], [], []
    xml_added = inputs.xml_bytes        # ``ingest --create`` logs the corpus
    collection = DocumentCollection.open_mutable(path)
    try:
        index = collection.mutable
        collection.search(queries[0])
        for i, (op, name, version) in enumerate(inputs.writes[:16]):
            if op == "add":
                add.append(_timed(index.add, versions[version], name,
                                  commit=False)[0])
                xml_added += len(inputs.versions[version])
            else:
                index.remove(name, commit=False)
            commit.append(_timed(index.commit)[0])
            seconds, pinned = _timed(index.snapshot)
            snapshot.append(seconds)
            pinned.close()
            query = queries[i % len(queries)]
            cold.append(_timed(collection.search, query)[0])
            warm.append(_timed(collection.search, query)[0])
        wal_bytes = sum(os.path.getsize(os.path.join(path, f))
                        for f in os.listdir(path) if f.startswith("wal-"))
    finally:
        collection.close()
    recovery, index = _timed(MutableIndex.open, path)
    try:
        compact_s = _timed(index.compact)[0]
    finally:
        index.close()
    return {"storage.mutation.add_ms": _median_ms(add),
            "storage.mutation.commit_ms": _median_ms(commit),
            "storage.mutation.snapshot_ms": _median_ms(snapshot),
            "storage.mutation.cold_search_ms": _median_ms(cold),
            "storage.mutation.warm_search_ms": _median_ms(warm),
            "storage.mutation.wal_bytes_per_xml_byte":
                wal_bytes / xml_added,
            "storage.mutation.recovery_ms": 1000.0 * recovery,
            "storage.mutation.compact_s": compact_s}


# -- the traced run ---------------------------------------------------------------

def traced_run(run, spec: dict, work_dir: str, *, quick: bool) -> dict:
    """Every declared per-layer metric for one workload, plus its trace."""
    seconds = 2.0 if quick else TRACE_SECONDS
    mode = "quick" if quick else "full"
    guard, tracer, checks = NoiseGuard(), Tracer(), Samples()
    spin_ms = guard.spin_ms()
    values: dict[str, float] = {}

    # 1. One untraced end-to-end repetition: the CLI metrics, the fixed
    #    floor, and the baseline the traced requests are compared with.
    def floor(server: Server, load: Load) -> dict:
        client, probe = Client(server.host, server.port), Samples()
        empty = make_request("plain", run.inputs.empty_query)
        for _ in range(20):
            load.send(client, empty, probe)
        client.close()
        checks.absorb(probe)
        return {"obs.server.empty_query_ms":
                statistics.median(probe.plain_ms)} if probe.plain_ms else {}

    rep_dir = os.path.join(run.dir, "traced")
    rep = run_rep(run.workload, run.inputs, run.oracle, run.xml_dir,
                  rep_dir, seconds, durability=True, probe=floor,
                  verify_all=True)
    values.update(rep["values"])
    index_dir = os.path.join(rep_dir, "index")

    # 2. The writable workload's own end-to-end numbers (ingest latency,
    #    recovery) come from its inputs, whichever workload is traced.
    if run.workload.writable:
        writable, writable_rep = run, rep
    else:
        writable = Run(WORKLOADS["rw_mixed_ingest"], run.seed, mode,
                       os.path.join(work_dir, "writable"))
        writable_rep = run_rep(
            writable.workload, writable.inputs, writable.oracle,
            writable.xml_dir, os.path.join(writable.dir, "traced"),
            seconds, durability=True)
        shutil.rmtree(writable.dir, ignore_errors=True)
    for name in ("ingest_p50_ms", "ingest_p95_ms",
                 "storage.mutation.ingest_late_ms"):
        values[name] = writable_rep["values"][name]

    # 3. Traced requests, then the direct probes.  The writable
    #    repetition wrote to its index, so that workload gets a fresh one
    #    to serve and a read-only build for the shard and core probes.
    served_dir = shard_dir = index_dir
    if run.workload.writable:
        served_dir = os.path.join(rep_dir, "served")
        shard_dir = os.path.join(rep_dir, "shards")
        run_cli("index", "ingest", served_dir, run.xml_dir, "--create")
        run_cli("index", "build", run.xml_dir, shard_dir)
    values.update(_traced_requests(run, served_dir, tracer, checks))
    values["trace.overhead_pct"] = 100.0 * (
        values["trace.plain_request_p50_ms"] / values["query_p50_ms"] - 1.0)
    values.update(_probe_documents(run))
    values.update(_probe_shards(run, shard_dir))
    values.update(_probe_core(run, shard_dir))
    values.update(_probe_pool_server(run, shard_dir))
    values.update(_probe_mutation(writable.inputs, work_dir))
    shutil.rmtree(rep_dir, ignore_errors=True)

    values["noise.spin_ms"] = max(spin_ms, guard.spin_ms())
    values["noise.steal_pct"] = guard.steal_pct()
    trace_path = os.path.join(os.path.dirname(work_dir),
                              f"trace-{run.workload.name}.json")
    tracer.write(trace_path)
    checks.absorb(rep["samples"])
    if writable is not run:
        checks.absorb(writable_rep["samples"])
    return {"per_layer": shaped(spec["per_layer"], values),
            "attempted": checks.attempted, "failed": checks.failed,
            "failures": checks.failures[:10],
            "correct": checks.failed == 0 and run.golden_ok
            and writable.golden_ok,
            "trace_file": os.path.relpath(trace_path, REPO_ROOT),
            "spans": len(tracer.spans)}
