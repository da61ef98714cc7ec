"""Tests for repro.guard.admission: the pre-admission cost screen."""

from __future__ import annotations

import pytest

from repro.collection.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import AdmissionRejected
from repro.guard.admission import (ADMIT, DOWNGRADE, REJECT,
                                   AdmissionPolicy, screen)
from repro.xmltree.parser import parse


@pytest.fixture()
def collection():
    coll = DocumentCollection("c")
    coll.add_xml("<a><b>red pear</b><c>green apple</c></a>", name="d1")
    coll.add_xml("<a><b>red</b><c>pear tree</c><d>red pear</d></a>",
                 name="d2")
    return coll


@pytest.fixture()
def big_collection():
    """Large enough that the cost model ranks brute-force well above
    pushdown (tiny documents can invert that ordering)."""
    parts = "".join(f"<s{i}><b>red pear</b><c>green apple tree</c>"
                    f"</s{i}>" for i in range(20))
    coll = DocumentCollection("big")
    coll.add_xml(f"<a>{parts}</a>", name="big")
    return coll


def _documents(collection):
    return [collection.document(name) for name in collection.names()]


class TestPolicy:
    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_cost=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(max_cost=-5.0)

    def test_admits_cheap_query(self, collection):
        policy = AdmissionPolicy(max_cost=1e12)
        decision = screen(policy, Query.of("red", "pear"),
                          Strategy.PUSHDOWN, _documents(collection))
        assert decision.decision == ADMIT
        assert decision.admitted and not decision.downgraded
        assert decision.strategy is Strategy.PUSHDOWN
        assert decision.estimated_cost == decision.requested_cost
        decision.raise_if_rejected()  # no-op for admitted queries

    def test_downgrades_expensive_strategy(self, big_collection):
        documents = _documents(big_collection)
        pushdown = screen(AdmissionPolicy(max_cost=1e12),
                          Query.of("red", "pear"), Strategy.PUSHDOWN,
                          documents)
        brute = screen(AdmissionPolicy(max_cost=1e12),
                       Query.of("red", "pear"), Strategy.BRUTE_FORCE,
                       documents)
        assert brute.requested_cost > pushdown.requested_cost
        # A ceiling between the two costs forces the downgrade.
        ceiling = (pushdown.requested_cost + brute.requested_cost) / 2
        decision = screen(AdmissionPolicy(max_cost=ceiling),
                          Query.of("red", "pear"), Strategy.BRUTE_FORCE,
                          documents)
        assert decision.decision == DOWNGRADE
        assert decision.downgraded
        assert decision.strategy is Strategy.ANCHORED
        assert decision.estimated_cost <= ceiling
        decision.raise_if_rejected()

    def test_rejects_when_even_downgrade_is_too_costly(self, collection):
        policy = AdmissionPolicy(max_cost=1e-6)
        decision = screen(policy, Query.of("red", "pear"),
                          Strategy.BRUTE_FORCE, _documents(collection))
        assert decision.decision == REJECT
        with pytest.raises(AdmissionRejected) as excinfo:
            decision.raise_if_rejected()
        exc = excinfo.value
        assert exc.estimated_cost > exc.max_cost
        doc = exc.to_dict()
        assert doc["error"] == "admission-rejected"

    def test_decision_to_dict_round_trips_fields(self, collection):
        decision = screen(AdmissionPolicy(max_cost=1e12),
                          Query.of("red"), Strategy.PUSHDOWN,
                          _documents(collection))
        doc = decision.to_dict()
        assert doc["decision"] == ADMIT
        assert doc["strategy"] == "pushdown"
        assert doc["estimated_cost"] == pytest.approx(
            decision.estimated_cost)


class TestCollectionIntegration:
    def test_search_with_admission_rejects(self, collection):
        with pytest.raises(AdmissionRejected):
            collection.search(Query.of("red", "pear"),
                              strategy=Strategy.BRUTE_FORCE,
                              admission=AdmissionPolicy(max_cost=1e-6))

    def test_search_with_admission_downgrades_and_answers(
            self, collection):
        # On this tiny corpus the cost model rates brute-force below
        # pushdown, so a ceiling between the two forces the requested
        # pushdown strategy down to brute-force; by the equivalence
        # theorems the answers are identical either way.
        query = Query.of("red", "pear")
        # Probe with collection.screen so the costs use the same
        # indexes search() will screen with.
        pushdown = collection.screen(AdmissionPolicy(max_cost=1e12),
                                     query, Strategy.PUSHDOWN)
        brute = collection.screen(AdmissionPolicy(max_cost=1e12),
                                  query, Strategy.BRUTE_FORCE)
        lo = min(pushdown.requested_cost, brute.requested_cost)
        hi = max(pushdown.requested_cost, brute.requested_cost)
        assert lo < hi, "fixture no longer separates strategy costs"
        requested = (Strategy.PUSHDOWN
                     if pushdown.requested_cost == hi
                     else Strategy.BRUTE_FORCE)
        cheaper = (Strategy.BRUTE_FORCE
                   if requested is Strategy.PUSHDOWN
                   else Strategy.PUSHDOWN)
        baseline = collection.search(query, strategy=cheaper)
        policy = AdmissionPolicy(max_cost=(lo + hi) / 2,
                                 downgrade_to=cheaper)
        result = collection.search(query, strategy=requested,
                                   admission=policy)
        assert len(result) == len(baseline)
        assert [(h.document_name, h.fragment) for h in result.hits] \
            == [(h.document_name, h.fragment) for h in baseline.hits]

    def test_screen_uses_collection_indexes(self, collection):
        decision = collection.screen(AdmissionPolicy(max_cost=1e12),
                                     Query.of("red", "pear"))
        assert decision.admitted
        assert decision.estimated_cost > 0
