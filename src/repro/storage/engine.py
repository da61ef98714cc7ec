"""Query evaluation on top of the relational store.

:class:`RelationalQueryEngine` realises the split Pradhan's ref [13]
describes: keyword *selection* runs as SQL against the shredded tables,
while the join-heavy algebra runs over the reconstructed tree.  Results
are guaranteed identical to pure in-memory evaluation (tested), so the
S4 bench can attribute any latency difference to the storage layer.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..core.algebra import JoinCache
from ..core.fragment import Fragment
from ..core.query import Query, QueryResult
from ..core.strategies import Strategy, evaluate
from ..obs import NOOP, Observability
from ..xmltree.document import Document
from .relational import RelationalStore

__all__ = ["RelationalQueryEngine"]


class RelationalQueryEngine:
    """Evaluate keyword queries against a shredded document.

    Parameters
    ----------
    store:
        A :class:`RelationalStore` with a saved document.
    cache:
        Optional :class:`~repro.core.algebra.JoinCache` of fixed points
        shared across queries.
    obs:
        Optional :class:`~repro.obs.Observability` handle; when enabled,
        SQL keyword selections get ``sql-scan`` spans and evaluations
        flow through the instrumented :func:`evaluate`.
    """

    def __init__(self, store: RelationalStore,
                 cache: Optional[JoinCache] = None,
                 obs: Optional[Observability] = None) -> None:
        self._store = store
        self._cache = cache
        self._document: Optional[Document] = None
        self._obs = obs if obs is not None else NOOP

    @property
    def document(self) -> Document:
        """The reconstructed document (loaded lazily, then cached)."""
        if self._document is None:
            self._document = self._store.load()
        return self._document

    def keyword_fragments(self, term: str) -> frozenset[Fragment]:
        """``σ_{keyword=term}`` via SQL, materialised as fragments."""
        doc = self.document
        with self._obs.span("sql-scan", term=term) as span:
            fragments = frozenset(
                Fragment(doc, (nid,), validate=False)
                for nid in self._store.keyword_nodes(term))
            span.set(rows=len(fragments))
        return fragments

    def evaluate(self, query: Query,
                 strategy: Strategy = Strategy.PUSHDOWN) -> QueryResult:
        """Evaluate ``query``; selection in SQL, joins in the algebra."""
        result = evaluate(self.document, query, strategy=strategy,
                          cache=self._cache,
                          keyword_source=self.keyword_fragments,
                          obs=self._obs)
        return replace(result, strategy=f"relational/{strategy.value}")
