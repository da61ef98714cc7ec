"""The join-free anchored-span strategy (``Strategy.ANCHORED``).

Held against ``_oracle`` of the differential harness — the closure of
every choice of keyword-node subsets, which shares no code with the
bottom-up pass — and against the paper's §4 plans.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.anchored import iter_anchored_spans
from repro.core.evaluator import AnchoredOp
from repro.core.filters import (HeightAtMost, Not, SizeAtLeast, SizeAtMost,
                                TrueFilter, WidthAtMost)
from repro.core.plan import AnchoredSpans, explain
from repro.core.query import Query
from repro.core.stats import OperationStats
from repro.core.strategies import (Strategy, evaluate, explain_analyze,
                                   plan_for)
from repro.core.streaming import stream_evaluate
from repro.errors import BudgetExceeded
from repro.guard.budget import QueryBudget
from repro.storage.engine import RelationalQueryEngine
from repro.storage.relational import RelationalStore
from repro.testing.differential import _oracle
from repro.xmltree.builder import DocumentBuilder

from ..treegen import KEYWORD_ALPHABET, documents

PREDICATES = (TrueFilter(), SizeAtMost(1), SizeAtMost(3), HeightAtMost(1),
              SizeAtMost(4) & WidthAtMost(3), SizeAtMost(2) | SizeAtMost(5),
              SizeAtLeast(3), SizeAtMost(5) & SizeAtLeast(2),
              Not(SizeAtMost(2)) & HeightAtMost(2))


def _flat(n: int, words: str):
    """A root over ``n`` leaves, each carrying ``words``."""
    builder = DocumentBuilder(name=f"flat-{n}")
    root = builder.add_root("a", "")
    for _ in range(n):
        builder.add_child(root, "b", words)
    return builder.build()


class TestAgainstTheOracle:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(documents(min_nodes=1, max_nodes=11),
           st.lists(st.sampled_from(KEYWORD_ALPHABET), min_size=1,
                    max_size=3, unique=True),
           st.sampled_from(PREDICATES))
    def test_equals_the_oracle(self, doc, terms, predicate):
        # The oracle enumerates every choice of keyword-node subsets.
        choices = 1
        for term in terms:
            choices <<= len(doc.nodes_with_keyword(term))
        assume(choices <= 1 << 12)
        query = Query(tuple(terms), predicate)
        assert evaluate(doc, query, strategy=Strategy.ANCHORED).fragments \
            == _oracle(doc, query)

    def test_the_running_example(self, figure1):
        query = Query.of("xquery", "optimization", predicate=SizeAtMost(3))
        anchored = evaluate(figure1, query, strategy=Strategy.ANCHORED)
        pushdown = evaluate(figure1, query, strategy=Strategy.PUSHDOWN)
        assert anchored.fragments == pushdown.fragments
        assert len(anchored.fragments) == 4
        assert anchored.stats["fragment_joins"] == 0
        assert anchored.stats["partials"] > 0
        assert anchored.stats["partials_pruned"] > 0

    def test_each_node_set_is_built_once(self):
        doc = _flat(6, "red pear")
        stats = OperationStats()
        spans = list(iter_anchored_spans(
            doc, [doc.nodes_with_keyword("red"),
                  doc.nodes_with_keyword("pear")], TrueFilter(), stats))
        # Every non-empty subset of the six leaves: alone, or under the
        # root (which needs two of them to be an answer).
        assert len(spans) == 6 + (2 ** 6 - 1 - 6)
        assert len({f.nodes for f in spans}) == len(spans)
        assert stats.partials_pruned == 0

    def test_an_empty_term_is_the_conjunctive_early_exit(self, figure1):
        query = Query.of("xquery", "absentterm")
        result = evaluate(figure1, query, strategy=Strategy.ANCHORED)
        assert not result.fragments
        assert result.stats["partials"] == 0


class TestPlan:
    def test_plan_for_is_one_leaf(self):
        query = Query.of("a", "b", predicate=SizeAtMost(3))
        plan = plan_for(query, Strategy.ANCHORED)
        assert isinstance(plan, AnchoredSpans)
        assert plan.terms == ("a", "b")
        assert plan.predicate is query.predicate
        assert explain(plan) == "anchored[a b; size<=3]"

    def test_an_extra_predicate_folds_into_the_leaf(self, figure1):
        query = Query.of("xquery", "optimization")
        stream = stream_evaluate(figure1, query, Strategy.ANCHORED,
                                 extra_predicate=SizeAtMost(3))
        assert isinstance(stream.plan, AnchoredSpans)
        assert frozenset(stream) == evaluate(
            figure1, Query.of("xquery", "optimization",
                              predicate=SizeAtMost(3)),
            strategy=Strategy.PUSHDOWN).fragments

    def test_explain_analyze_is_one_row(self, figure1):
        query = Query.of("xquery", "optimization", predicate=SizeAtMost(3))
        result, analysis = explain_analyze(figure1, query,
                                           strategy=Strategy.ANCHORED)
        (row,) = analysis.operators
        assert row.rows == len(result.fragments) == 4
        assert row.fragment_joins == 0
        assert row.partials == result.stats["partials"] > 0
        rendered = explain(analysis.plan, analyze=analysis)
        assert "partials=" in rendered and "partials_pruned=" in rendered

    def test_the_operator_is_compiled(self, figure1):
        stream = stream_evaluate(figure1, Query.of("xquery"),
                                 Strategy.ANCHORED)
        (operator,) = stream.operators
        assert isinstance(operator, AnchoredOp)


class TestRelationalSource:
    @pytest.mark.parametrize("predicate", (SizeAtMost(3), TrueFilter(),
                                           SizeAtLeast(2)))
    def test_sql_keyword_lookup(self, figure1, predicate):
        query = Query.of("xquery", "optimization", predicate=predicate)
        expected = evaluate(figure1, query, strategy=Strategy.PUSHDOWN)
        with RelationalStore() as store:
            store.save(figure1)
            result = RelationalQueryEngine(store).evaluate(
                query, Strategy.ANCHORED)
        assert result.strategy == "relational/anchored"
        assert {f.nodes for f in result.fragments} \
            == {f.nodes for f in expected.fragments}
        assert result.stats["fragment_joins"] == 0


class TestBudget:
    def test_combinations_are_charged(self):
        doc = _flat(12, "red pear")
        query = Query.of("red", "pear")
        with pytest.raises(BudgetExceeded) as info:
            evaluate(doc, query, strategy=Strategy.ANCHORED,
                     budget=QueryBudget(max_join_ops=100))
        assert info.value.reason == "join-ops"

    def test_an_unfiltered_query_aborts_on_live_partials(self):
        # 2^20 answers: the pass must stop long before it holds them.
        doc = _flat(20, "red")
        with pytest.raises(BudgetExceeded) as info:
            evaluate(doc, Query.of("red"), strategy=Strategy.ANCHORED,
                     budget=QueryBudget(max_live_fragments=5000))
        assert info.value.reason == "live-fragments"

    def test_candidates_are_admitted_per_term(self):
        doc = _flat(12, "red pear")
        with pytest.raises(BudgetExceeded) as info:
            evaluate(doc, Query.of("red", "pear"),
                     strategy=Strategy.ANCHORED,
                     budget=QueryBudget(max_candidates=11))
        assert info.value.reason == "candidates"

    def test_a_bounded_query_fits_a_small_budget(self):
        doc = _flat(12, "red pear")
        query = Query.of("red", "pear", predicate=SizeAtMost(2))
        result = evaluate(doc, query, strategy=Strategy.ANCHORED,
                          budget=QueryBudget(max_join_ops=200,
                                             max_live_fragments=100))
        assert len(result.fragments) == 12
