"""One request, one record.

A request — one collection search (materialised, streamed or limited),
one ranked search, one EXPLAIN ANALYZE, one query of a batch — is
counted once in ``repro_queries_total`` and leaves one flight-recorder
profile, however many document runs, β rounds or pool chunks it took;
the profile's ``documents`` counts the distinct documents evaluated.
"""

from __future__ import annotations

import pytest

from repro.collection.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import BudgetExceeded
from repro.exec import BatchRunner
from repro.guard.budget import QueryBudget
from repro.obs import (GUARD_BUDGET_EXCEEDED, QUERIES_TOTAL, FlightRecorder,
                       Observability, RecorderConfig)
from repro.workloads.inexlike import InexSpec, generate_collection

pytestmark = pytest.mark.timeout(120)

#: 6 articles; ``article`` is in all of them, ``needle`` in 2.
SPEC = InexSpec(articles=6, nodes_per_article=140, seed=7)
EVERY = Query(("article",))
NEEDLE = Query(("needle",))


@pytest.fixture(scope="module")
def corpus():
    with generate_collection(SPEC) as collection:
        yield collection


def _handle() -> Observability:
    return Observability(recorder=FlightRecorder(
        RecorderConfig(slow_ms=None)))


def _queries(obs: Observability) -> float:
    counter = obs.metrics.get(QUERIES_TOTAL)
    return 0 if counter is None else counter.value


def _one_profile(obs: Observability, documents: int, strategy: str):
    assert _queries(obs) == 1
    (profile,) = obs.recorder.profiles
    assert profile.outcome == "ok"
    assert profile.documents == documents
    assert profile.strategy == strategy
    return profile


class TestOneSearchOneRecord:
    @pytest.mark.parametrize("workers", (None, 2))
    def test_materialised_search(self, corpus, workers):
        obs = _handle()
        result = corpus.search(EVERY, obs=obs, workers=workers)
        assert len(result.per_document) == 6
        profile = _one_profile(obs, 6, "anchored")
        assert profile.document == corpus.name
        assert profile.answers == len(result)
        assert profile.predicted_cost and profile.plan

    @pytest.mark.parametrize("workers", (None, 2))
    def test_streamed_search_over_several_rounds(self, corpus, workers):
        obs = _handle()
        hits = list(corpus.search(NEEDLE, obs=obs, stream=True, limit=40,
                                  workers=workers))
        assert len(hits) == 40
        rounds = obs.metrics.get("repro_stream_rounds_total")
        assert rounds is not None and rounds.value > 1
        _one_profile(obs, 2, "stream-anchored")

    @pytest.mark.parametrize("stream", (False, True))
    @pytest.mark.parametrize("workers", (None, 2))
    def test_ranked_search(self, corpus, stream, workers):
        obs = _handle()
        ranked = corpus.ranked_search(EVERY, limit=3, obs=obs,
                                      stream=stream, workers=workers)
        assert len(ranked) == 3
        _one_profile(obs, 6, ("stream-" if stream else "") + "anchored")

    def test_explain_analyze(self, corpus):
        obs = _handle()
        result, analysis = corpus.explain_analyze(EVERY, obs=obs)
        assert analysis.operators[0].calls == 6
        profile = _one_profile(obs, 6, "anchored")
        assert profile.answers == len(result)

    def test_a_traced_request_is_one_tree(self, corpus):
        obs = Observability()
        corpus.search(EVERY, obs=obs)
        (root,) = obs.tracer.roots
        assert root.name == "collection-search"
        executes = [span for span, _ in root.walk()
                    if span.name == "execute"]
        assert sorted(span.attributes["document"] for span in executes) \
            == sorted(corpus.names())


class TestStreamedRounds:
    """A β round's size window is part of its query, serial or pooled:
    no round re-yields (and re-counts) the hits of the rounds before it,
    and a serial and a pooled round price the same plan."""

    #: ``NEEDLE``'s answers over the corpus: the most a request records.
    ANSWERS = 45

    def test_the_corpus_has_the_answers_the_bounds_assume(self, corpus):
        assert len(corpus.search(NEEDLE)) == self.ANSWERS

    @pytest.mark.parametrize("workers", (None, 2))
    def test_each_fragment_is_counted_once(self, corpus, workers):
        obs = _handle()
        hits = list(corpus.search(NEEDLE, obs=obs, stream=True, limit=40,
                                  workers=workers))
        assert len(hits) == 40
        (profile,) = obs.recorder.profiles
        assert 40 <= profile.answers <= self.ANSWERS

    @pytest.mark.parametrize("strategy",
                             (Strategy.PUSHDOWN, Strategy.ANCHORED))
    def test_serial_and_pooled_rounds_price_one_plan(self, corpus,
                                                     strategy):
        costs = []
        for workers in (None, 2):
            obs = _handle()
            list(corpus.search(NEEDLE, strategy=strategy, obs=obs,
                               stream=True, limit=40, workers=workers))
            (profile,) = obs.recorder.profiles
            costs.append(profile.predicted_cost)
        assert costs[0] is not None
        assert costs[0] == pytest.approx(costs[1])


class TestBatch:
    @pytest.mark.parametrize("workers", (None, 2))
    def test_each_query_of_a_batch_is_one_request(self, corpus, workers):
        queries = [Query(("needle", "thread")), NEEDLE, EVERY]
        obs = _handle()
        with BatchRunner(corpus, workers=workers, obs=obs) as runner:
            results = runner.run(queries)
        assert _queries(obs) == 3
        profiles = obs.recorder.profiles
        assert [p.terms for p in profiles] == [q.terms for q in queries]
        assert [p.documents for p in profiles] \
            == [len(r.per_document) for r in results] == [0, 2, 6]
        assert [p.answers for p in profiles] == [len(r) for r in results]


class TestBudgetAbort:
    @pytest.fixture()
    def pathological(self):
        parts = "".join(f"<b{i}>red pear</b{i}>" for i in range(12))
        collection = DocumentCollection("patho")
        collection.add_xml(f"<a>{parts}</a>", name="p1")
        collection.add_xml(f"<a>{parts}</a>", name="p2")
        with collection:
            yield collection

    @pytest.mark.parametrize("workers", (None, 2))
    def test_an_aborted_search_is_one_budget_exceeded_profile(
            self, pathological, workers):
        obs = _handle()
        with pytest.raises(BudgetExceeded):
            pathological.search(Query.of("red", "pear"),
                                strategy=Strategy.BRUTE_FORCE, obs=obs,
                                workers=workers,
                                budget=QueryBudget(max_join_ops=500))
        (profile,) = obs.recorder.profiles
        assert profile.outcome == "budget-exceeded"
        assert obs.metrics.get(GUARD_BUDGET_EXCEEDED).value == 1
        assert _queries(obs) == 0  # the query families count finished ones
