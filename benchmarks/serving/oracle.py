"""Expected answers: an in-process serial oracle plus a golden file.

The oracle evaluates every distinct query once per *document version*
(base corpus files and the writer's version pool) with the serial
in-memory ``DocumentCollection.search`` and the reference kernel — a
different path from the served one (no shards, no mmap, no pool, no
HTTP).  A collection's answer is the per-document answers of the
documents visible in it, in the program's documented hit order
``(size, document, nodes)``, so the same table yields the expected
response for any state of the mutable index.

For the default seed the table's digest must also equal the committed
``golden.json``, which pins the oracle itself.
"""

from __future__ import annotations

import json
import os

from inputs import Inputs, Request, sha256_of

__all__ = ["Oracle", "GOLDEN_PATH", "load_golden"]

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Oracle:
    """Expected ``/query`` responses for one workload's inputs."""

    def __init__(self, inputs: Inputs) -> None:
        from repro.collection.collection import DocumentCollection
        from repro.core.queryparser import parse_query
        from repro.xmltree.parser import parse

        self._writes = inputs.writes
        collection = DocumentCollection("oracle")
        for key, text in {**inputs.corpus, **inputs.versions}.items():
            collection.add(parse(text, name=key))
        #: query -> version key -> sorted node-id tuples of its answers
        self._answers: dict[str, dict[str, list[tuple]]] = {}
        for query in inputs.queries + [inputs.empty_query]:
            result = collection.search(parse_query(query),
                                       kernel="reference")
            self._answers[query] = {
                key: sorted(tuple(sorted(f.nodes)) for f in r.fragments)
                for key, r in result.per_document.items() if r.fragments}
        # states[k]: document name -> version key, after k writes.
        self._states = [{name: name for name in inputs.corpus}]
        self._expected: dict[tuple, tuple] = {}

    def digest(self) -> dict:
        """query -> [answers, sha256] over every document version."""
        return {query: [sum(len(v) for v in table.values()),
                        sha256_of(sorted(table.items()))]
                for query, table in self._answers.items()}

    def cover(self, limit: int = 8) -> list[str]:
        """A few queries whose answers touch the most document versions.

        Checked unpaginated, they prove each document is served (and,
        after a restart, that every acknowledged write is visible and
        every removal absent) at a fraction of the catalogue's cost.
        On the deep corpora a handful of queries reaches every version;
        on the wide one ``limit`` stops short of that.
        """
        todo = {v for table in self._answers.values() for v in table}
        chosen = []
        while todo and len(chosen) < limit:
            best = max(self._answers,
                       key=lambda q: len(todo.intersection(self._answers[q])))
            chosen.append(best)
            todo.difference_update(self._answers[best])
        return chosen

    def state(self, writes_applied: int) -> dict[str, str]:
        while len(self._states) <= writes_applied:
            op, name, version = self._writes[len(self._states) - 1]
            state = dict(self._states[-1])
            if op == "add":
                state[name] = version
            else:
                state.pop(name, None)
            self._states.append(state)
        return self._states[writes_applied]

    def expected(self, query: str, writes_applied: int = 0) -> tuple:
        """(answer count, every hit as ``[document, nodes]``, in order)."""
        key = (query, writes_applied)
        if key not in self._expected:
            table = self._answers[query]
            hits = sorted((len(nodes), name, nodes)
                          for name, version in
                          self.state(writes_applied).items()
                          for nodes in table.get(version, ()))
            self._expected[key] = (
                len(hits), [[name, list(nodes)] for _, name, nodes in hits])
        return self._expected[key]

    def matches(self, request: Request, answers, hits: list,
                states: range, limit: int = 0) -> bool:
        """Does a response agree with the oracle in one allowed state?

        ``answers`` is the response's total (``None`` for NDJSON, which
        carries none); ``hits`` its ``[document, nodes]`` page.
        """
        limit = limit or request.limit
        for k in states:
            count, expected = self.expected(request.query, k)
            if (answers is None or answers == count) \
                    and hits == expected[:limit]:
                return True
        return False
