"""Command-line keyword search over XML files.

Installed as ``repro-search``::

    repro-search article.xml xquery optimization --max-size 3
    repro-search article.xml storage engine --strategy brute-force -n 5
    repro-search article.xml join filter --explain
    repro-search corpus-dir/ xquery optimization --max-size 3

Prints the answer fragments as outlines (default, with witness-term
annotations) or serialised XML (``--xml``), smallest answers first.
Pointing at a directory searches every ``*.xml`` file in it as a
collection.

Observability (see ``docs/observability.md``)::

    repro-search article.xml xquery optimization --trace
    repro-search article.xml xquery optimization --metrics-out m.json
    repro-search corpus-dir/ xquery opt --slow-query-ms 50 --query-log q.jsonl
    repro-search metrics m.json            # summarise a metrics dump
    repro-search serve corpus-dir/ --slow-query-ms 50 --profile-dump fr.jsonl
    repro-search serve corpus-dir/ --slo 'p99(repro_query_latency_seconds) < 0.5'
    repro-search top http://127.0.0.1:9100  # live ops console
    repro-search flightrecorder fr.jsonl   # summarise a recorder dump
    repro-search flightrecorder fr.jsonl --trace q1a2b-000007 --out t.json

Persistent shard index (see ``docs/storage.md``)::

    repro-search index build corpus-dir/ corpus.idx --shards 8
    repro-search index inspect corpus.idx --verify
    repro-search serve --index corpus.idx --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .core.filters import (Filter, HeightAtMost, SizeAtMost, TrueFilter,
                           WidthAtMost)
from .core.optimizer import optimize
from .core.plan import explain as explain_plan
from .core.presentation import OverlapPolicy, arrange
from .core.query import Query
from .core.strategies import Strategy, evaluate, explain_analyze, plan_for
from .errors import AdmissionRejected, BudgetExceeded, ReproError
from .index.inverted import InvertedIndex
from .obs import (NOOP, FlightRecorder, MetricsRegistry, Observability,
                  RecorderConfig, SpanTracer)
from .obs.tracer import NULL_TRACER
from .ranking.scoring import FragmentScorer
from .xmltree.parser import parse_file
from .xmltree.serializer import fragment_outline, fragment_to_xml

__all__ = ["main", "build_parser", "metrics_main", "serve_main",
           "flightrecorder_main", "index_main", "top_main"]


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-search`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Keyword search for XML fragments using the "
                    "algebraic query model (Pradhan, VLDB 2006).")
    parser.add_argument("file", help="XML document to search")
    parser.add_argument("keywords", nargs="*",
                        help="query keywords (conjunctive); optional "
                             "with --batch")
    parser.add_argument("--max-size", type=int, default=None, metavar="N",
                        help="anti-monotonic filter: size(f) <= N")
    parser.add_argument("--max-height", type=int, default=None,
                        metavar="H",
                        help="anti-monotonic filter: height(f) <= H")
    parser.add_argument("--max-width", type=int, default=None, metavar="W",
                        help="anti-monotonic filter: width(f) <= W")
    parser.add_argument("--filter", default=None, metavar="EXPR",
                        dest="filter_expr",
                        help="filter expression, e.g. "
                             "'size<=4 & height<=2' or "
                             "'(width<=5 | leaves<=2) & keyword!=draft'")
    parser.add_argument("--strategy", default=Strategy.ANCHORED.value,
                        choices=[s.value for s in Strategy],
                        help="evaluation strategy (default: anchored, "
                             "the join-free enumeration of keyword-"
                             "anchored subtrees; the other four are the "
                             "paper's Section-4 plans)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="evaluate documents on a process pool of N "
                             "workers (directory/batch searches; results "
                             "are identical to serial)")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        metavar="MS", dest="timeout_ms",
                        help="per-chunk deadline for pooled execution; "
                             "chunks over the deadline are retried and "
                             "then evaluated serially in-process")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="retry a crashed/timed-out/failed chunk at "
                             "most N times before falling back "
                             "(default: 2)")
    parser.add_argument("--no-fallback", action="store_true",
                        dest="no_fallback",
                        help="fail the run instead of degrading to "
                             "serial in-process evaluation when a "
                             "chunk exhausts its retries")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS", dest="deadline_ms",
                        help="abort the query once it has run MS "
                             "milliseconds of wall clock (exit code 3; "
                             "see docs/robustness.md)")
    parser.add_argument("--max-join-ops", type=int, default=None,
                        metavar="N", dest="max_join_ops",
                        help="abort the query after N join operations "
                             "(a work budget independent of wall clock)")
    parser.add_argument("--batch", default=None, metavar="FILE",
                        help="evaluate one query per FILE line "
                             "(whitespace-separated keywords, # comments) "
                             "over the target, amortising index and pool "
                             "setup; the filter flags apply to every "
                             "query")
    parser.add_argument("-n", "--limit", type=int, default=10,
                        metavar="N", help="show at most N answers")
    parser.add_argument("--stream", action="store_true",
                        help="stream answers incrementally through the "
                             "operator pipeline, stopping early once "
                             "--limit answers are proven (smallest "
                             "first; directory searches print hits as "
                             "they arrive)")
    parser.add_argument("--xml", action="store_true",
                        help="print answers as XML instead of outlines")
    parser.add_argument("--hide-overlaps", action="store_true",
                        help="suppress answers contained in other answers")
    parser.add_argument("--overlap-policy", default=None,
                        choices=[p.value for p in OverlapPolicy],
                        help="how to present overlapping answers "
                             "(keep | hide | group)")
    parser.add_argument("--rank", action="store_true",
                        help="order answers by relevance score instead "
                             "of size")
    parser.add_argument("--explain", action="store_true",
                        help="print the optimised query plan and exit")
    parser.add_argument("--explain-analyze", action="store_true",
                        dest="explain_analyze",
                        help="execute the strategy's plan and print it "
                             "annotated with measured per-operator "
                             "statistics (rows, joins, replayed fixed "
                             "points, checks, pruning, self/total time)")
    parser.add_argument("--stats", action="store_true",
                        help="print operation counters after the answers")
    parser.add_argument("--trace", action="store_true",
                        help="print the span tree of the query lifecycle "
                             "(parse → plan → optimize → execute → rank)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        dest="metrics_out",
                        help="write collected metrics to PATH (JSON, or "
                             "Prometheus text when PATH ends in .prom)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS", dest="slow_query_ms",
                        help="flag queries at or over MS milliseconds; "
                             "slow queries are reported on stderr")
    parser.add_argument("--query-log", default=None, metavar="PATH",
                        dest="log_path",
                        help="append one JSON profile per request "
                             "to PATH (JSONL; 'repro-search "
                             "flightrecorder PATH' reads it)")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT", dest="metrics_port",
                        help="serve live /metrics, /healthz, /varz and "
                             "/slow on PORT (0 picks a free port) while "
                             "the search runs; implies metrics "
                             "collection")
    return parser


def _build_observability(args: argparse.Namespace
                         ) -> tuple[Observability, Optional[object]]:
    """The CLI's obs handle plus the query-log file to close, if any."""
    wants_obs = (args.trace or args.metrics_out
                 or args.slow_query_ms is not None or args.log_path
                 or args.metrics_port is not None)
    if not wants_obs:
        return NOOP, None
    log_file = None
    recorder = None
    if args.log_path or args.slow_query_ms is not None:
        if args.log_path:
            log_file = open(args.log_path, "a", encoding="utf-8")
        # max_traces=0: a one-shot search has nowhere to serve them.
        recorder = FlightRecorder(
            RecorderConfig(slow_ms=args.slow_query_ms, max_traces=0),
            sink=log_file)
    tracer = SpanTracer() if args.trace else NULL_TRACER
    return Observability(tracer=tracer, metrics=MetricsRegistry(),
                         recorder=recorder), log_file


def _finish_observability(args: argparse.Namespace, obs: Observability,
                          log_file) -> None:
    """Emit trace/metrics/slow-query output after the answers."""
    if obs is NOOP:
        return
    if args.trace:
        print("\ntrace:")
        print(obs.tracer.render())
    if args.metrics_out:
        obs.publish_calibration()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            if args.metrics_out.endswith(".prom"):
                handle.write(obs.metrics.to_prometheus())
            else:
                handle.write(obs.metrics.to_json_text() + "\n")
    if args.slow_query_ms is not None:
        for profile in obs.recorder.slow_profiles():
            print(f"slow-query: {profile.to_json()}", file=sys.stderr)
    if log_file is not None:
        log_file.close()


def _build_resilience(args: argparse.Namespace):
    """A :class:`RetryPolicy` from the CLI flags (``None`` = defaults)."""
    if (args.timeout_ms is None and args.retries is None
            and not args.no_fallback):
        return None
    from .exec import FALLBACK_NEVER, FALLBACK_SERIAL, RetryPolicy
    return RetryPolicy(
        timeout_s=(args.timeout_ms / 1000.0
                   if args.timeout_ms is not None else None),
        max_retries=(args.retries if args.retries is not None
                     else RetryPolicy.max_retries),
        fallback=(FALLBACK_NEVER if args.no_fallback
                  else FALLBACK_SERIAL))


def _build_budget(args: argparse.Namespace):
    """A fresh :class:`QueryBudget` from the CLI flags (or ``None``)."""
    if args.deadline_ms is None and args.max_join_ops is None:
        return None
    from .guard.budget import QueryBudget
    return QueryBudget(
        deadline_s=(args.deadline_ms / 1000.0
                    if args.deadline_ms is not None else None),
        max_join_ops=args.max_join_ops)


def _load_collection_dir(path: str):
    """Load every parseable ``*.xml`` under *path* as a collection.

    Malformed files are skipped with a warning on stderr; returns the
    collection plus the list of skipped paths so callers can report
    the count (and fail only when *nothing* parsed).
    """
    from .collection.collection import DocumentCollection

    skipped: list[str] = []

    def on_error(file_path: str, exc: Exception) -> None:
        skipped.append(file_path)
        print(f"warning: skipping {file_path}: {exc}", file=sys.stderr)

    return DocumentCollection.from_directory(path,
                                             on_error=on_error), skipped


def _empty_collection_error(path: str, skipped: Sequence[str]) -> str:
    if skipped:
        return (f"error: all {len(skipped)} .xml file(s) in {path} "
                f"failed to parse")
    return f"error: no .xml files in {path}"


def _build_predicate(args: argparse.Namespace) -> Filter:
    predicate: Filter = TrueFilter()
    if args.max_size is not None:
        predicate = predicate & SizeAtMost(args.max_size)
    if args.max_height is not None:
        predicate = predicate & HeightAtMost(args.max_height)
    if args.max_width is not None:
        predicate = predicate & WidthAtMost(args.max_width)
    if args.filter_expr:
        from .core.queryparser import parse_filter
        predicate = predicate & parse_filter(args.filter_expr)
    return predicate


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "flightrecorder":
        return flightrecorder_main(argv[1:])
    if argv and argv[0] == "index":
        return index_main(argv[1:])
    if argv and argv[0] == "top":
        return top_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.keywords and not args.batch:
        parser.error("query keywords are required unless --batch is given")
    if args.explain_analyze and args.batch:
        parser.error("--explain-analyze analyses one query; it cannot "
                     "be combined with --batch")
    if args.explain:
        try:
            query = Query(tuple(args.keywords), _build_predicate(args))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"query: {query.describe()}")
        print(explain_plan(plan_for(query, Strategy.parse(args.strategy))))
        return 0
    obs, log_file = _build_observability(args)
    server = None
    if args.metrics_port is not None:
        from .obs.server import MetricsServer
        server = MetricsServer(obs, port=args.metrics_port).start()
        print(f"metrics: {server.url}/metrics", file=sys.stderr)
    try:
        with obs.span("query", file=args.file):
            code = _run_search(args, obs)
    except BudgetExceeded as exc:
        print(f"error: {json.dumps(exc.to_dict())}", file=sys.stderr)
        return 3
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if server is not None:
            server.stop()
    _finish_observability(args, obs, log_file)
    return code


def _run_search(args: argparse.Namespace, obs: Observability) -> int:
    """Parse, plan, evaluate and present one single-document search."""
    if args.batch:
        return _run_batch(args, obs)
    if os.path.isdir(args.file):
        return _search_collection(args, obs)
    if args.workers is not None:
        print("note: --workers only applies to directory or --batch "
              "searches; evaluating serially", file=sys.stderr)
    with obs.span("parse", file=args.file) as span:
        document = parse_file(args.file)
        index = InvertedIndex(document)
        span.set(nodes=document.size)
    with obs.span("plan"):
        query = Query(tuple(args.keywords), _build_predicate(args))
    if args.explain_analyze:
        result, analysis = explain_analyze(
            document, query, strategy=Strategy.parse(args.strategy),
            index=index, obs=obs)
        _print_analysis(query, analysis, answers=len(result),
                        strategy=result.strategy,
                        elapsed=result.elapsed)
        return 0
    if obs.enabled:
        # evaluate() plans for itself, untraced; the optimized shape
        # belongs in the trace, and the rewrite is microseconds next to
        # evaluation.
        optimize(query, obs=obs)
    if args.stream:
        return _stream_single_document(args, document, index, query, obs)
    result = evaluate(document, query,
                      strategy=Strategy.parse(args.strategy),
                      index=index, obs=obs, budget=_build_budget(args))

    if args.rank:
        with obs.span("rank"):
            scorer = FragmentScorer(index, obs=obs)
            scored = scorer.rank(result.fragments, query.terms)
        answers = [s.fragment for s in scored]
        scores = {s.fragment: s.score for s in scored}
    else:
        scores = {}
        if args.overlap_policy == OverlapPolicy.GROUP.value:
            groups = arrange(result.fragments, OverlapPolicy.GROUP)
            answers = []
            for group in groups:
                answers.append(group.representative)
                answers.extend(group.members)
        elif args.hide_overlaps \
                or args.overlap_policy == OverlapPolicy.HIDE.value:
            answers = result.non_overlapping()
        else:
            answers = result.sorted_fragments()

    shown = answers[:args.limit]
    print(f"{len(result)} answer(s) for {query.describe()} "
          f"[{result.strategy}, {result.elapsed * 1000:.1f} ms]"
          + (f", showing {len(shown)}" if len(shown) < len(answers)
             else ""))
    for rank, fragment in enumerate(shown, start=1):
        score_note = (f", score={scores[fragment]:.3f}"
                      if fragment in scores else "")
        print(f"\n#{rank}  {fragment.label()}  "
              f"(size={fragment.size}, height={fragment.height}"
              f"{score_note})")
        if args.xml:
            print(fragment_to_xml(fragment).rstrip())
        else:
            from .core.witnesses import highlighted_outline
            print(highlighted_outline(fragment, query.terms))
    if args.stats:
        print("\noperation counters:")
        for key, value in sorted(result.stats.items()):
            print(f"  {key}: {value}")
    return 0


def _stream_single_document(args: argparse.Namespace, document, index,
                            query: Query, obs: Observability) -> int:
    """Answer a single-document search via the streaming top-k path.

    Returns the ``--limit`` smallest answers without materialising the
    full answer set: the streaming consumer raises its size bound in
    rounds and stops as soon as the k smallest answers are proven.
    """
    import time

    from .core.streaming import stream_top_k

    if args.rank or args.hide_overlaps or args.overlap_policy:
        print("note: --stream returns the smallest --limit answers; "
              "ranking and overlap presentation flags are ignored",
              file=sys.stderr)
    k = max(args.limit, 1)
    start = time.perf_counter()
    answers = stream_top_k(document, query, k,
                           strategy=Strategy.parse(args.strategy),
                           index=index, obs=obs,
                           budget=_build_budget(args))
    elapsed = (time.perf_counter() - start) * 1000
    print(f"{len(answers)} streamed answer(s) for {query.describe()} "
          f"[stream-{args.strategy}, {elapsed:.1f} ms]")
    for rank, fragment in enumerate(answers, start=1):
        print(f"\n#{rank}  {fragment.label()}  "
              f"(size={fragment.size}, height={fragment.height})")
        if args.xml:
            print(fragment_to_xml(fragment).rstrip())
        else:
            from .core.witnesses import highlighted_outline
            print(highlighted_outline(fragment, query.terms))
    return 0


def _print_analysis(query: Query, analysis, *, answers: int,
                    strategy: str, elapsed: float,
                    documents: Optional[int] = None) -> None:
    """Print an EXPLAIN ANALYZE report for one evaluated query."""
    print(f"query: {query.describe()}")
    scope = (f" over {documents} document(s)"
             if documents is not None else "")
    print(f"{answers} answer(s){scope} "
          f"[{strategy}, {elapsed * 1000:.1f} ms]")
    print(explain_plan(analysis.plan, analyze=analysis))


def metrics_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-search metrics``: summarise a ``--metrics-out`` dump."""
    parser = argparse.ArgumentParser(
        prog="repro-search metrics",
        description="Summarise a metrics dump written by --metrics-out.")
    parser.add_argument("path", help="metrics JSON file")
    parser.add_argument("--format", default="summary",
                        choices=("summary", "prom", "json"),
                        help="output format (default: summary)")
    args = parser.parse_args(argv)
    try:
        with open(args.path, encoding="utf-8") as handle:
            registry = MetricsRegistry.from_json(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "prom":
        print(registry.to_prometheus(), end="")
    elif args.format == "json":
        print(registry.to_json_text())
    else:
        print(f"metrics from {args.path}:")
        print(registry.summary())
    return 0


def flightrecorder_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-search flightrecorder``: inspect a recorder JSONL dump.

    Summarises the per-query profiles (outcomes, latency percentiles,
    per-strategy cost calibration) written by ``serve
    --profile-dump`` / :meth:`FlightRecorder.dump`, or exports one
    retained trace as Chrome trace-event JSON for chrome://tracing or
    Perfetto.
    """
    from .obs.recorder import load_dump

    parser = argparse.ArgumentParser(
        prog="repro-search flightrecorder",
        description="Summarise a flight-recorder JSONL dump or export "
                    "one retained trace as Chrome trace-event JSON.")
    parser.add_argument("path", help="recorder JSONL dump file")
    parser.add_argument("--trace", default=None, metavar="ID",
                        dest="trace_id",
                        help="export the retained trace ID instead of "
                             "printing the summary")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the exported trace to PATH instead "
                             "of stdout (only with --trace)")
    parser.add_argument("--json", action="store_true",
                        help="print the summary as one JSON document")
    args = parser.parse_args(argv)
    try:
        profiles, traces = load_dump(args.path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace_id is not None:
        body = traces.get(args.trace_id)
        if body is None:
            known = ", ".join(sorted(traces)) or "(none)"
            print(f"error: no trace {args.trace_id!r} in {args.path}; "
                  f"retained: {known}", file=sys.stderr)
            return 2
        doc = {"traceEvents": body.get("events", []),
               "displayTimeUnit": "ms",
               "metadata": {"trace_id": args.trace_id,
                            "source": args.path}}
        text = json.dumps(doc, indent=2) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {len(doc['traceEvents'])} event(s) to "
                  f"{args.out}", file=sys.stderr)
        else:
            print(text, end="")
        return 0
    summary = _summarize_profiles(profiles, traces)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"flight recorder dump {args.path}: "
          f"{summary['profiles']} profile(s), "
          f"{summary['traces']} retained trace(s)")
    if summary["outcomes"]:
        outcomes = ", ".join(f"{k}={v}" for k, v in
                             sorted(summary["outcomes"].items()))
        print(f"  outcomes: {outcomes}")
    latency = summary["latency"]
    if latency["samples"]:
        print(f"  latency: p50={latency['p50_ms']:.3f} ms  "
              f"p90={latency['p90_ms']:.3f} ms  "
              f"p99={latency['p99_ms']:.3f} ms")
    for strategy, ratio in sorted(summary["calibration"].items()):
        print(f"  calibration[{strategy}]: actual/predicted = "
              f"{ratio:.4f}")
    if summary["traces"]:
        print("  traces: " + ", ".join(summary["trace_ids"]))
        print("  export one with: repro-search flightrecorder "
              f"{args.path} --trace <id> --out trace.json")
    return 0


def _summarize_profiles(profiles, traces) -> dict:
    """Aggregate a loaded dump the way the live snapshot endpoint does."""
    from .obs.recorder import _percentile

    outcomes: dict[str, int] = {}
    sums: dict[str, list] = {}
    for profile in profiles:
        outcomes[profile.outcome] = outcomes.get(profile.outcome, 0) + 1
        if profile.predicted_cost and profile.actual_cost is not None:
            bucket = sums.setdefault(profile.strategy, [0.0, 0.0])
            bucket[0] += profile.predicted_cost
            bucket[1] += profile.actual_cost
    values = sorted(p.wall_ms for p in profiles)
    return {
        "profiles": len(profiles),
        "traces": len(traces),
        "trace_ids": sorted(traces),
        "outcomes": outcomes,
        "latency": {"p50_ms": round(_percentile(values, 0.50), 4),
                    "p90_ms": round(_percentile(values, 0.90), 4),
                    "p99_ms": round(_percentile(values, 0.99), 4),
                    "samples": len(values)},
        "calibration": {strategy: round(actual / predicted, 6)
                        for strategy, (predicted, actual) in sums.items()
                        if predicted > 0},
    }


def index_main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro-search index``: build or inspect a persistent shard index.

    ``build`` serialises a directory of XML files into N shard files
    plus a checksummed manifest (see ``docs/storage.md``); ``inspect``
    attaches an existing index and reports its health, optionally
    verifying every document checksum (``--verify``).
    """
    parser = argparse.ArgumentParser(
        prog="repro-search index",
        description="Build or inspect a persistent sharded index.")
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser(
        "build", help="serialise a directory of XML files into an index")
    build.add_argument("source", help="directory of *.xml files")
    build.add_argument("out", help="index output directory")
    build.add_argument("--shards", type=int, default=4, metavar="N",
                       help="number of shard files (default: 4)")
    inspect = sub.add_parser(
        "inspect", help="attach an index and report its health")
    inspect.add_argument("path", help="index directory")
    inspect.add_argument("--json", action="store_true",
                         help="print the stats snapshot as JSON")
    inspect.add_argument("--verify", action="store_true",
                         help="checksum-verify every document "
                              "(exit 1 on any failure)")
    ingest = sub.add_parser(
        "ingest", help="add/replace/remove documents in a writable "
                       "(WAL-backed) index, committing one new epoch")
    ingest.add_argument("path", help="mutable index directory")
    ingest.add_argument("source", nargs="?", default=None,
                        help="XML file or directory of *.xml files "
                             "to add/replace")
    ingest.add_argument("--create", action="store_true",
                        help="initialise a new mutable index at PATH "
                             "if none exists")
    ingest.add_argument("--shards", type=int, default=4, metavar="N",
                        help="shard count for --create (default: 4)")
    ingest.add_argument("--remove", action="append", default=[],
                        metavar="NAME",
                        help="remove a document by name (repeatable)")
    compact = sub.add_parser(
        "compact", help="fold a writable index's delta segment into a "
                        "new base generation")
    compact.add_argument("path", help="mutable index directory")
    fsck = sub.add_parser(
        "fsck", help="verify a writable index (CURRENT, manifest, WAL "
                     "checksums, base shards); --repair truncates torn "
                     "tails and sweeps orphans")
    fsck.add_argument("path", help="mutable index directory")
    fsck.add_argument("--repair", action="store_true",
                      help="repair what can be repaired (truncate the "
                           "WAL to its committed prefix, re-point "
                           "CURRENT, delete orphans)")
    fsck.add_argument("--json", action="store_true",
                      help="print the full report as JSON")
    args = parser.parse_args(argv)
    if args.command == "build":
        return _index_build(args)
    if args.command == "ingest":
        return _index_ingest(args)
    if args.command == "compact":
        return _index_compact(args)
    if args.command == "fsck":
        return _index_fsck(args)
    return _index_inspect(args)


def _index_build(args: argparse.Namespace) -> int:
    from .errors import ShardError
    from .storage.shards import build_index

    if not os.path.isdir(args.source):
        print(f"error: {args.source} is not a directory", file=sys.stderr)
        return 2
    collection, skipped = _load_collection_dir(args.source)
    if not len(collection):
        print(_empty_collection_error(args.source, skipped),
              file=sys.stderr)
        return 2
    try:
        manifest = build_index(collection, args.out, shards=args.shards)
    except (ShardError, ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    skip_note = (f", {len(skipped)} file(s) skipped" if skipped else "")
    print(f"built {args.out}: {len(manifest['documents'])} document(s) "
          f"in {manifest['shards']} shard(s), "
          f"{manifest['total_nodes']} node(s), "
          f"{manifest['total_bytes']} byte(s){skip_note}")
    return 0


def _index_ingest(args: argparse.Namespace) -> int:
    from .storage.mutation import MutableIndex, read_current

    if args.source is None and not args.remove:
        print("error: nothing to do — give a SOURCE and/or --remove",
              file=sys.stderr)
        return 2
    documents: dict = {}
    if args.source is not None:
        if os.path.isdir(args.source):
            collection, skipped = _load_collection_dir(args.source)
            if skipped:
                print(f"warning: {len(skipped)} file(s) skipped",
                      file=sys.stderr)
            documents = {name: collection.document(name)
                         for name in collection.names()}
        elif os.path.isfile(args.source):
            document = parse_file(args.source)
            documents = {document.name: document}
        else:
            print(f"error: {args.source} does not exist",
                  file=sys.stderr)
            return 2
    try:
        if read_current(args.path) is None:
            if not args.create:
                print(f"error: no mutable index at {args.path}; pass "
                      f"--create to initialise one", file=sys.stderr)
                return 2
            index = MutableIndex.create(args.path, shards=args.shards)
        else:
            index = MutableIndex.open(args.path)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for name, document in sorted(documents.items()):
            index.add(document, name, commit=False)
        for name in args.remove:
            index.remove(name, commit=False)
        epoch = index.commit()
        print(f"ingested into {args.path}: {len(documents)} "
              f"document(s) added/replaced, {len(args.remove)} "
              f"removed; epoch {epoch}, "
              f"{len(index)} document(s) visible")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        index.close()


def _index_compact(args: argparse.Namespace) -> int:
    from .storage.mutation import MutableIndex

    try:
        index = MutableIndex.open(args.path)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        before = index.stats()
        epoch = index.compact()
        print(f"compacted {args.path}: generation "
              f"{index.generation}, epoch {epoch}, "
              f"{before['delta']['documents']} delta document(s) "
              f"folded into the base, {len(index)} document(s) "
              f"visible")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        index.close()


def _index_fsck(args: argparse.Namespace) -> int:
    from .storage.mutation import fsck

    try:
        report = fsck(args.path, repair=args.repair)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        state = "healthy" if report["healthy"] else "DAMAGED"
        print(f"fsck {args.path}: {state}, epoch {report['epoch']}")
        for issue in report["issues"]:
            marker = "FATAL" if issue["fatal"] else "issue"
            print(f"  {marker} [{issue['kind']}]: {issue['detail']}")
        for repair in report["repairs"]:
            print(f"  repaired: {repair}")
        if report["wal"] is not None:
            wal = report["wal"]
            print(f"  wal: {wal['committed_records']} committed "
                  f"record(s), {wal['excess_bytes']} byte(s) past the "
                  f"commit, torn={wal['torn']}")
    return 0 if report["healthy"] else 1


def _index_inspect(args: argparse.Namespace) -> int:
    from .errors import ShardError
    from .storage.shards import ShardIndex

    try:
        index = ShardIndex.attach(args.path, on_error="skip")
    except ShardError as exc:
        print(f"error: {json.dumps(exc.to_dict(), sort_keys=True)}",
              file=sys.stderr)
        return 2
    try:
        stats = index.stats()
        verification = index.verify_all() if args.verify else None
        if args.json:
            doc = dict(stats)
            if verification is not None:
                doc["verification"] = verification
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(f"index {stats['path']}: format v"
                  f"{stats['format_version']}, "
                  f"{stats['shards_attached']}/{stats['shards']} "
                  f"shard(s) attached, "
                  f"{stats['documents_servable']}/{stats['documents']} "
                  f"document(s) servable, "
                  f"{stats['bytes_mapped']} byte(s) mapped")
            for shard, failure in sorted(stats["shards_failed"].items()):
                print(f"  shard {shard} FAILED: "
                      f"{json.dumps(failure, sort_keys=True)}")
            if verification is not None:
                if verification["failures"]:
                    for failure in verification["failures"]:
                        print(f"  verify FAILED: "
                              f"{json.dumps(failure, sort_keys=True)}")
                else:
                    print(f"  verify: all {verification['documents']} "
                          f"document(s) OK")
        if stats["shards_failed"]:
            return 1
        if verification is not None and verification["failures"]:
            return 1
        return 0
    finally:
        index.close()


def top_main(argv: Optional[Sequence[str]] = None,
             out=None) -> int:
    """``repro-search top``: live terminal console over a running server.

    Scrapes ``/varz``, ``/alertz`` and ``/timeseries`` from a
    ``repro-search serve`` instance and redraws a compact ANSI frame —
    QPS and latency sparklines, guard-rail and admission state, SLO
    burn rates, per-shard health — every ``--interval`` seconds until
    Ctrl-C.
    """
    from .obs.console import HttpSource, OpsConsole

    parser = argparse.ArgumentParser(
        prog="repro-search top",
        description="Live ops console for a running "
                    "'repro-search serve' metrics endpoint.")
    parser.add_argument("url",
                        help="server base URL, e.g. "
                             "http://127.0.0.1:9100")
    parser.add_argument("--interval", type=float, default=2.0,
                        metavar="S",
                        help="refresh interval in seconds (default: 2)")
    parser.add_argument("--frames", type=int, default=None, metavar="N",
                        help="draw N frames then exit (default: run "
                             "until Ctrl-C)")
    parser.add_argument("--width", type=int, default=100, metavar="COLS",
                        help="frame width in columns (default: 100)")
    args = parser.parse_args(argv)
    if args.interval <= 0:
        parser.error("--interval must be positive")
    if args.frames is not None and args.frames <= 0:
        parser.error("--frames must be positive")
    console = OpsConsole(HttpSource(args.url),
                         out=out if out is not None else sys.stdout,
                         interval_s=args.interval, width=args.width)
    return console.run(frames=args.frames)


def serve_main(argv: Optional[Sequence[str]] = None,
               stdin=None) -> int:
    """``repro-search serve``: evaluate stdin queries, serving metrics.

    Loads the target (file or directory) once, starts a
    :class:`~repro.obs.server.MetricsServer`, then evaluates one query
    per stdin line (whitespace-separated keywords, ``#`` comments)
    until EOF — /metrics, /healthz, /varz and /slow stay live the
    whole time.
    """
    from .collection.collection import DocumentCollection
    from .core.queryparser import parse_query
    from .obs import GUARD_REJECTED
    from .obs.server import MetricsServer, QueryGuardrails

    parser = argparse.ArgumentParser(
        prog="repro-search serve",
        description="Serve live metrics while evaluating queries read "
                    "from stdin (one query per line).")
    parser.add_argument("file", nargs="?", default=None,
                        help="XML document or directory")
    parser.add_argument("--index", default=None, metavar="PATH",
                        dest="index_path",
                        help="serve a persistent shard index (built "
                             "with 'repro-search index build') instead "
                             "of parsing XML; documents attach by mmap "
                             "and corrupt shards degrade instead of "
                             "failing")
    parser.add_argument("--writable", action="store_true",
                        help="treat --index as a WAL-backed mutable "
                             "index (see 'repro-search index ingest'): "
                             "POST /ingest adds/removes documents "
                             "live, each query pins a consistent "
                             "epoch, and /varz reports epoch state")
    parser.add_argument("--port", type=int, default=0,
                        help="metrics port (default: 0 = any free port)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--strategy", default=Strategy.ANCHORED.value,
                        choices=[s.value for s in Strategy],
                        help="evaluation strategy (default: anchored)")
    parser.add_argument("--workers", type=int, default=None, metavar="N")
    parser.add_argument("--max-size", type=int, default=None, metavar="N")
    parser.add_argument("--max-height", type=int, default=None,
                        metavar="H")
    parser.add_argument("--max-width", type=int, default=None,
                        metavar="W")
    parser.add_argument("--filter", default=None, metavar="EXPR",
                        dest="filter_expr")
    parser.add_argument("--slow-query-ms", type=float, default=100.0,
                        metavar="MS", dest="slow_query_ms",
                        help="queries at or over MS milliseconds are "
                             "slow: listed on /slow, counted, and their "
                             "full trace retained (default: 100)")
    parser.add_argument("--timeout-ms", type=float, default=None,
                        metavar="MS", dest="timeout_ms",
                        help="per-chunk deadline for pooled execution")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="chunk retry budget before serial fallback")
    parser.add_argument("--no-fallback", action="store_true",
                        dest="no_fallback",
                        help="fail a query instead of degrading to "
                             "serial evaluation")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        metavar="MS", dest="deadline_ms",
                        help="per-query wall-clock budget; queries over "
                             "it are aborted and reported, the server "
                             "keeps serving")
    parser.add_argument("--max-join-ops", type=int, default=None,
                        metavar="N", dest="max_join_ops",
                        help="per-query join-operation budget")
    parser.add_argument("--max-cost", type=float, default=None,
                        metavar="C", dest="max_cost",
                        help="admission ceiling: reject queries whose "
                             "estimated plan cost exceeds C before any "
                             "evaluation work runs")
    parser.add_argument("--max-log-records", type=int, default=2048,
                        metavar="N", dest="max_log_records",
                        help="query-profile ring size; oldest "
                             "profiles are evicted past N "
                             "(default: 2048)")
    parser.add_argument("--profile-sample-rate", type=float, default=0.0,
                        metavar="R", dest="profile_sample_rate",
                        help="head-sample rate in [0,1] for retaining "
                             "traces of ordinary queries; slow, errored "
                             "and budget-aborted queries are always "
                             "retained (default: 0)")
    parser.add_argument("--profile-dump", default=None, metavar="PATH",
                        dest="profile_dump",
                        help="dump the recorder ring as JSONL to PATH "
                             "on exit, SIGTERM or crash; inspect with "
                             "'repro-search flightrecorder PATH'")
    parser.add_argument("--sample-interval", type=float, default=5.0,
                        metavar="S", dest="sample_interval",
                        help="metrics sampler interval in seconds, "
                             "feeding /timeseries ring buffers and SLO "
                             "evaluation; 0 disables the sampler "
                             "(default: 5)")
    parser.add_argument("--history-capacity", type=int, default=720,
                        metavar="N", dest="history_capacity",
                        help="retained samples per time series "
                             "(default: 720 = 1h at 5s)")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="SPEC", dest="slo_specs",
                        help="declarative SLO evaluated as fast/slow "
                             "burn rates, e.g. "
                             "'p99(repro_query_latency_seconds) < 0.5' "
                             "(the latency of whole requests) "
                             "or 'errors:ratio(repro_exec_chunk_retries"
                             "_total/repro_pool_chunks_total) < 0.05"
                             ";fast=60;slow=300'; repeatable; critical "
                             "alerts flip /healthz to degraded "
                             "(served on /alertz)")
    parser.add_argument("--slo-feedback", action="store_true",
                        dest="slo_feedback",
                        help="let critical burn-rate alerts act: "
                             "tighten the admission cost ceiling and "
                             "pre-trip suspect shard breakers until "
                             "the alert clears")
    args = parser.parse_args(argv)
    if (args.file is None) == (args.index_path is None):
        parser.error("exactly one of FILE or --index is required")
    if args.writable and args.index_path is None:
        parser.error("--writable requires --index")
    stdin = stdin if stdin is not None else sys.stdin

    # The ring is all a long-running server keeps per request: span
    # trees are dropped once their request is answered.
    try:
        recorder = FlightRecorder(RecorderConfig(
            ring_size=args.max_log_records,
            slow_ms=args.slow_query_ms,
            sample_rate=args.profile_sample_rate))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    uninstall_dump = (recorder.install_dump_hook(args.profile_dump)
                      if args.profile_dump else None)
    obs = Observability(recorder=recorder)
    skipped: list = []
    try:
        if args.index_path is not None and args.writable:
            collection = DocumentCollection.open_mutable(args.index_path)
        elif args.index_path is not None:
            collection = DocumentCollection.open_index(args.index_path)
            if collection.degraded:
                failed = collection.shard_stats()["index"]["shards_failed"]
                print(f"warning: serving degraded — shard(s) failed to "
                      f"attach: {json.dumps(failed, sort_keys=True)}",
                      file=sys.stderr)
        elif os.path.isdir(args.file):
            collection, skipped = _load_collection_dir(args.file)
        else:
            collection = DocumentCollection(
                name=os.path.basename(args.file))
            collection.add(parse_file(args.file))
        predicate = _build_predicate(args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not len(collection) and not args.writable:
        # A writable index may legitimately start empty: documents
        # arrive over POST /ingest.
        print(_empty_collection_error(args.file or args.index_path,
                                      skipped), file=sys.stderr)
        return 2
    strategy = Strategy.parse(args.strategy)
    resilience = _build_resilience(args)
    admission = None
    if args.max_cost is not None:
        from .guard.admission import AdmissionPolicy
        admission = AdmissionPolicy(max_cost=args.max_cost)
    guardrails = QueryGuardrails(
        default_deadline_ms=args.deadline_ms,
        max_join_ops=args.max_join_ops,
        admission=admission, strategy=strategy,
        workers=args.workers, resilience=resilience)
    history = slo = None
    if args.sample_interval > 0:
        from .obs import MetricsHistory, SLOMonitor, parse_slo
        history = MetricsHistory(obs.metrics,
                                 interval_s=args.sample_interval,
                                 capacity=args.history_capacity)
        if args.slo_specs:
            try:
                objectives = [parse_slo(spec) for spec in args.slo_specs]
                slo = SLOMonitor(history, objectives,
                                 metrics=obs.metrics)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    elif args.slo_specs:
        print("error: --slo requires the sampler "
              "(--sample-interval > 0)", file=sys.stderr)
        return 2
    if args.workers is not None:
        # Fork the pool here, on the main thread, before the HTTP and
        # sampler threads exist and before the stdin loop holds the
        # stdin lock — a pool first forked by a handler never answers.
        collection.warm_pool(args.workers)
    server = MetricsServer(obs, host=args.host, port=args.port,
                           collection=collection,
                           guardrails=guardrails,
                           history=history, slo=slo,
                           slo_feedback=args.slo_feedback).start()
    skip_note = (f" ({len(skipped)} file(s) skipped)" if skipped else "")
    ingest_note = (", POST /ingest" if args.writable else "")
    print(f"metrics: {server.url}/metrics  "
          f"(also /healthz /varz /slow, POST /query{ingest_note}); "
          f"queries from stdin, one per line{skip_note}",
          file=sys.stderr)
    if history is not None:
        slo_note = (f"; {len(slo.objectives)} SLO(s) on /alertz"
                    if slo is not None else "")
        print(f"timeseries: sampling every {args.sample_interval:g}s "
              f"on /timeseries{slo_note} — watch live with "
              f"'repro-search top {server.url}'", file=sys.stderr)

    def reject(reason: str, detail: dict) -> None:
        """Report one bad line and keep serving."""
        obs.metrics.counter(
            GUARD_REJECTED, "Queries rejected before evaluation.",
            labels={"reason": reason}).inc()
        print(f"error: {json.dumps(detail, sort_keys=True)}",
              file=sys.stderr)

    code = 0
    try:
        for line in stdin:
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            # A bad line must never take the server down (nor stop the
            # stdin loop): parser errors are reported, counted and
            # skipped.
            try:
                query = parse_query(stripped)
            except ReproError as exc:
                reject("parse", {"error": "bad-query",
                                 "line": stripped,
                                 "message": str(exc)})
                continue
            if not isinstance(predicate, TrueFilter):
                query = Query(query.terms,
                              query.predicate & predicate)
            try:
                result = collection.search(
                    query, strategy=strategy, obs=obs,
                    workers=args.workers,
                    resilience=resilience, admission=admission,
                    budget=_build_budget(args))
            except AdmissionRejected as exc:
                reject("admission", exc.to_dict())
                continue
            except BudgetExceeded as exc:
                # Already counted (repro_guard_budget_exceeded_total)
                # by the collection layer.
                print(f"error: {json.dumps(exc.to_dict(), sort_keys=True)}",
                      file=sys.stderr)
                continue
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                continue
            finally:
                obs.tracer.clear()
            print(f"{query.describe()}: {len(result)} answer(s) in "
                  f"{len(result.matched_documents)} of "
                  f"{len(collection)} document(s)")
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down", file=sys.stderr)
        code = 130
    finally:
        server.stop()
        collection.close()
        _report_recorder_exit(recorder, obs, args.profile_dump,
                              uninstall_dump)
    return code


def _report_recorder_exit(recorder, obs: Observability,
                          dump_path: Optional[str],
                          uninstall_dump) -> None:
    """Exit-time flight-recorder summary (stderr) + explicit dump.

    Dumping here (rather than relying on the atexit hook) pins the
    artifact's write to server shutdown; the hook stays armed for the
    crash/signal paths and is uninstalled once the dump succeeds.
    """
    if dump_path:
        try:
            lines = recorder.dump(dump_path)
        except OSError as exc:
            print(f"warning: could not dump flight recorder: {exc}",
                  file=sys.stderr)
        else:
            print(f"flight recorder: wrote {lines} line(s) to "
                  f"{dump_path}", file=sys.stderr)
            if uninstall_dump is not None:
                uninstall_dump()
    latency = recorder.latency_percentiles()
    calibration = obs.publish_calibration()
    if latency["samples"]:
        print(f"flight recorder: {latency['samples']} profile(s), "
              f"p50={latency['p50_ms']:.3f} ms "
              f"p99={latency['p99_ms']:.3f} ms", file=sys.stderr)
    for strategy, ratio in sorted(calibration.items()):
        print(f"flight recorder: calibration[{strategy}] "
              f"actual/predicted = {ratio:.4f}", file=sys.stderr)


def _search_collection(args: argparse.Namespace,
                       obs: Observability) -> int:
    """Search every XML file of a directory as one collection."""
    from .core.witnesses import highlighted_outline

    with obs.span("parse", directory=args.file) as span:
        collection, skipped = _load_collection_dir(args.file)
        span.set(documents=len(collection), skipped=len(skipped))
    if not len(collection):
        print(_empty_collection_error(args.file, skipped),
              file=sys.stderr)
        return 2
    with obs.span("plan"):
        query = Query(tuple(args.keywords), _build_predicate(args))
    if args.explain_analyze:
        if args.workers is not None:
            print("note: --explain-analyze accumulates one analysis "
                  "in-process; evaluating serially", file=sys.stderr)
        result, analysis = collection.explain_analyze(
            query, strategy=Strategy.parse(args.strategy), obs=obs)
        _print_analysis(query, analysis, answers=len(result),
                        strategy=args.strategy,
                        elapsed=result.total_elapsed,
                        documents=len(collection))
        return 0
    if args.stream:
        skip_note = (f", {len(skipped)} file(s) skipped"
                     if skipped else "")
        print(f"streaming up to {max(args.limit, 1)} answer(s) from "
              f"{len(collection)} document(s){skip_note} for "
              f"{query.describe()}")
        shown = 0
        try:
            for rank, hit in enumerate(
                    collection.search(
                        query, strategy=Strategy.parse(args.strategy),
                        obs=obs, workers=args.workers,
                        resilience=_build_resilience(args),
                        budget=_build_budget(args),
                        stream=True, limit=max(args.limit, 1)),
                    start=1):
                shown = rank
                print(f"\n#{rank}  {hit.label()}  "
                      f"(size={hit.fragment.size})")
                if args.xml:
                    print(fragment_to_xml(hit.fragment).rstrip())
                else:
                    print(highlighted_outline(hit.fragment,
                                              query.terms))
        finally:
            collection.close()
        print(f"\n{shown} answer(s) streamed")
        return 0
    try:
        result = collection.search(
            query, strategy=Strategy.parse(args.strategy), obs=obs,
            workers=args.workers,
            resilience=_build_resilience(args),
            budget=_build_budget(args))
    finally:
        collection.close()
    hits = result.hits[:args.limit]
    skip_note = (f", {len(skipped)} file(s) skipped" if skipped else "")
    print(f"{len(result)} answer(s) in "
          f"{len(result.matched_documents)} of {len(collection)} "
          f"document(s){skip_note} for {query.describe()} "
          f"[{result.total_elapsed * 1000:.1f} ms]"
          + (f", showing {len(hits)}" if len(hits) < len(result)
             else ""))
    for rank, hit in enumerate(hits, start=1):
        print(f"\n#{rank}  {hit.label()}  "
              f"(size={hit.fragment.size})")
        if args.xml:
            print(fragment_to_xml(hit.fragment).rstrip())
        else:
            print(highlighted_outline(hit.fragment, query.terms))
    return 0


def _run_batch(args: argparse.Namespace, obs: Observability) -> int:
    """Evaluate every query of a ``--batch`` file over the target."""
    from .collection.collection import DocumentCollection
    from .exec import BatchRunner

    predicate = _build_predicate(args)
    queries = []
    with open(args.batch, encoding="utf-8") as handle:
        for line in handle:
            terms = line.split()
            if not terms or terms[0].startswith("#"):
                continue
            queries.append(Query(tuple(terms), predicate))
    if not queries:
        print(f"error: no queries in {args.batch}", file=sys.stderr)
        return 2
    skipped: list = []
    with obs.span("parse", target=args.file) as span:
        if os.path.isdir(args.file):
            collection, skipped = _load_collection_dir(args.file)
        else:
            collection = DocumentCollection(
                name=os.path.basename(args.file))
            collection.add(parse_file(args.file))
        span.set(documents=len(collection), skipped=len(skipped))
    if not len(collection):
        print(_empty_collection_error(args.file, skipped),
              file=sys.stderr)
        return 2
    if skipped:
        print(f"note: searching {len(collection)} document(s), "
              f"{len(skipped)} file(s) skipped", file=sys.stderr)
    runner = BatchRunner(collection, workers=args.workers,
                         strategy=Strategy.parse(args.strategy),
                         obs=obs, resilience=_build_resilience(args))
    with runner:
        results = runner.run(queries, budget=_build_budget(args))
    for query, result in zip(queries, results):
        hits = result.hits[:args.limit]
        print(f"{query.describe()}: {len(result)} answer(s) in "
              f"{len(result.matched_documents)} of {len(collection)} "
              f"document(s)"
              + (f", showing {len(hits)}" if len(hits) < len(result)
                 else ""))
        for hit in hits:
            print(f"  {hit.label()}  (size={hit.fragment.size})")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
