"""The anchored strategy against push-down on collections of thousands
of nodes, served every way a collection serves a query.

Hits are compared by (document, node set): ``Fragment ==`` also tests
document identity, which two searches need not share.
"""

from __future__ import annotations

import pytest

from repro.core.filters import HeightAtMost, SizeAtLeast, SizeAtMost
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.workloads.inexlike import InexSpec, generate_collection

pytestmark = pytest.mark.timeout(300)

#: 5 articles of ~700 nodes, each with both planted terms 10 times.
SPEC = InexSpec(articles=5, nodes_per_article=700, planted_fraction=1.0,
                occurrences=10, seed=41)

QUERIES = (Query.of("needle", "thread", predicate=SizeAtMost(6)),
           Query.of("needle", predicate=SizeAtMost(4)),
           Query.of("needle", "thread",
                    predicate=SizeAtMost(7) & HeightAtMost(2)),
           Query.of("needle", "thread",
                    predicate=SizeAtMost(6) & SizeAtLeast(3)),
           Query.of("granularity", "overlap", predicate=SizeAtMost(3)))


@pytest.fixture(scope="module")
def corpus():
    with generate_collection(SPEC) as collection:
        assert collection.total_nodes >= 3000
        yield collection


def _pairs(hits) -> list:
    return [(hit.document_name, hit.fragment.nodes) for hit in hits]


@pytest.fixture(scope="module")
def expected(corpus) -> dict:
    return {query: _pairs(corpus.search(
        query, strategy=Strategy.PUSHDOWN).hits) for query in QUERIES}


def test_the_queries_have_answers(expected):
    assert all(expected.values())
    assert sum(map(len, expected.values())) > 1000


@pytest.mark.parametrize("workers", (None, 2))
class TestAgainstPushdown:
    def test_materialised(self, corpus, expected, workers):
        for query in QUERIES:
            result = corpus.search(query, strategy=Strategy.ANCHORED,
                                   workers=workers)
            assert _pairs(result.hits) == expected[query]
            assert all(run.stats["fragment_joins"] == 0
                       for run in result.per_document.values())

    def test_streamed(self, corpus, expected, workers):
        for query in QUERIES:
            assert _pairs(corpus.search(
                query, strategy=Strategy.ANCHORED, stream=True,
                workers=workers)) == expected[query]

    @pytest.mark.parametrize("limit", (1, 10, 40))
    def test_limited(self, corpus, expected, workers, limit):
        for query in QUERIES:
            assert _pairs(corpus.search(
                query, strategy=Strategy.ANCHORED, limit=limit,
                workers=workers)) == expected[query][:limit]
