"""What a commit carries: same WAL record ⇒ same tree, token and index.

``MutableIndex.commit`` builds the new epoch's :class:`DeltaView` from
the one before it, and the new view inherits whatever that one
materialised for every document whose WAL record it shares.  Two
things must hold whatever the write history:

* the answer is the one a cold reader gives: at every epoch the
  in-process snapshot and a fresh ``attach_snapshot`` (what a pool
  worker reads) agree with each other and with a model corpus;
* a replaced, removed or re-added name never serves a carried tree,
  and an unchanged one always does.
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collection import DocumentCollection
from repro.collection.mutable import MutableDocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import WALError
from repro.exec import parallel
from repro.obs import NOOP
from repro.storage.mutation import MutableIndex, attach_snapshot, fsck
from repro.workloads.inexlike import InexSpec, generate_collection

from ..treegen import KEYWORD_ALPHABET, make_document
from .test_mutation import assert_same_document

NAMES = tuple(f"doc-{i}" for i in range(5))
_RNG = random.Random(19)
POOL = tuple(
    make_document([_RNG.randrange(64) for _ in range(_RNG.randrange(1, 9))],
                  [_RNG.randrange(8) for _ in range(9)], name=f"tree-{i}")
    for i in range(6))
QUERIES = (Query.of("alpha"), Query.of("alpha", "beta"),
           Query.of("beta", "gamma"))
TERM_SETS = [()] + [tuple(w for b, w in enumerate(KEYWORD_ALPHABET)
                          if mask & (1 << b)) for mask in range(1, 8)]

OPS = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(NAMES),
              st.integers(0, len(POOL) - 1), st.booleans()),
    st.tuples(st.just("re-add"), st.sampled_from(NAMES), st.booleans()),
    st.tuples(st.just("remove"), st.sampled_from(NAMES), st.booleans()),
    st.tuples(st.just("commit")),
    st.tuples(st.just("compact")),
    st.tuples(st.just("reopen")))


def answers(source):
    collection = DocumentCollection("view", source=source)
    return [[(hit.document_name, tuple(sorted(hit.fragment.nodes)))
             for hit in collection.search(query).hits]
            for query in QUERIES]


class History:
    """A mutable index driven beside a model of what it must hold.

    ``live`` / ``committed`` map each visible name to ``(pool index,
    record id)``; every add (a replace and a same-content re-add
    included) is a new record, and so is every document a compaction
    rewrites.  ``seen`` remembers the tree the writer served for each
    name at the previous check and under which record.
    """

    def __init__(self, root: Path) -> None:
        self.path = root / "live.idx"
        self.records = 0
        self.live = {name: (i, self._record())
                     for i, name in enumerate(NAMES[:2])}
        self.index = MutableIndex.create(
            self.path, {name: POOL[i] for name, (i, _) in self.live.items()},
            shards=2)
        self.committed = dict(self.live)
        self.seen = {}

    def _record(self) -> int:
        self.records += 1
        return self.records

    def apply(self, op) -> None:
        kind, commit = op[0], op[-1]
        if kind == "add":
            self.live[op[1]] = (op[2], self._record())
            self.index.add(POOL[op[2]], op[1], commit=commit)
        elif kind == "re-add" and op[1] in self.live:
            content = self.live[op[1]][0]
            self.live[op[1]] = (content, self._record())
            self.index.add(POOL[content], op[1], commit=commit)
        elif kind == "remove" and op[1] in self.live:
            del self.live[op[1]]
            self.index.remove(op[1], commit=commit)
        elif kind == "commit":
            self.index.commit()
        elif kind == "compact":
            self.index.compact()
            self.live = {name: (content, self._record())
                         for name, (content, _) in self.live.items()}
        elif kind == "reopen":
            # Recovery: pending writes are gone, and the new handle has
            # decoded nothing yet.
            self.index.close()
            self.index = MutableIndex.open(self.path)
            self.live = dict(self.committed)
            self.seen = {}
            return
        else:
            return
        if kind in ("commit", "compact") or commit:
            self.committed = dict(self.live)

    def check(self) -> None:
        epoch = self.index.epoch
        expected = sorted(self.committed)
        with self.index.snapshot() as writer, \
                attach_snapshot(self.path, epoch) as fresh:
            assert writer.epoch == fresh.epoch
            assert writer.names() == fresh.names() == expected
            assert len(writer) == len(expected)
            for terms in TERM_SETS:
                assert writer.candidates(terms) == fresh.candidates(terms)
            assert answers(writer) == answers(fresh)
            seen = {}
            for name in expected:
                content, record = self.committed[name]
                tree = writer.document(name)
                assert_same_document(POOL[content], tree)
                assert_same_document(fresh.document(name), tree)
                assert writer.inverted_index(name).document is tree
                assert writer.shard_of(name) == fresh.shard_of(name)
                before = self.seen.get(name)
                if before is not None:
                    # Same record, same tree; a new record, never.
                    assert (before[1] is tree) == (before[0] == record)
                    assert ((before[1].token == tree.token)
                            == (before[0] == record))
                seen[name] = (record, tree)
            self.seen = seen
            delta = writer.delta.stats()
            assert (delta["carried"] + delta["materialized"]
                    == delta["documents"])
            assert fresh.delta.stats()["carried"] == 0

    def close(self) -> None:
        self.index.close()


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=st.lists(OPS, min_size=1, max_size=14))
def test_every_epoch_reads_like_a_fresh_attach(ops):
    with tempfile.TemporaryDirectory() as root:
        history = History(Path(root))
        try:
            history.check()
            for op in ops:
                epoch = history.index.epoch
                history.apply(op)
                if history.index.epoch != epoch or op[0] == "reopen":
                    history.check()
            report = fsck(history.path)
            assert report["healthy"], report["issues"]
        finally:
            history.close()


# ----------------------------------------------------------------------
# Counting: a one-document replace is one cold document
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus():
    collection = generate_collection(InexSpec(
        articles=7, nodes_per_article=60, planted_fraction=1.0, seed=23))
    return {name: collection.document(name)
            for name in collection.names()}


@pytest.fixture()
def delta_collection(corpus, tmp_path):
    """Six documents, all in the WAL delta (no base generation)."""
    collection = MutableDocumentCollection.create(tmp_path / "live.idx")
    for name in sorted(corpus)[:6]:
        collection.add(corpus[name], name, commit=False)
    collection.commit()
    yield collection
    collection.close()


def test_one_replace_materialises_one_document(corpus, delta_collection):
    collection = delta_collection
    names = collection.names()
    query = Query.of("needle", "thread")
    cache = collection._cache

    def delta():
        return collection.mutable.stats()["delta"]

    collection.search(query, strategy=Strategy.PUSHDOWN)
    assert (delta()["materialized"], delta()["carried"]) == (len(names), 0)
    collection.search(query, strategy=Strategy.PUSHDOWN)
    warm_misses = cache.misses

    collection.add(corpus[sorted(corpus)[6]], names[2])      # replace
    assert (delta()["materialized"], delta()["carried"]) == (
        0, len(names) - 1)
    # The other N-1 kept their tokens: every join is still memoised.
    hits = cache.hits
    unchanged = [name for name in names if name != names[2]]
    assert len(collection.search(query, strategy=Strategy.PUSHDOWN,
                                 documents=unchanged)) > 0
    assert cache.misses == warm_misses and cache.hits > hits
    assert delta()["materialized"] == 0
    collection.search(query, strategy=Strategy.PUSHDOWN)
    assert (delta()["materialized"], delta()["carried"]) == (
        1, len(names) - 1)
    assert cache.misses > warm_misses                # the new tree's


def test_worker_keeps_its_snapshot_until_the_next_one_stands(
        corpus, delta_collection):
    """``_ensure_worker_epoch`` attaches the chunk's epoch in full and
    only then closes the old snapshot: an attach that fails leaves the
    worker serving the epoch it still claims."""
    collection = delta_collection
    names = collection.names()
    with pytest.MonkeyPatch.context() as patch:
        for name in vars(parallel):
            if name.startswith("_WORKER_"):     # restored on exit
                patch.setattr(parallel, name, getattr(parallel, name))
        parallel._init_worker((None, collection.mutable.path))
        first_epoch = collection.epoch
        parallel._ensure_worker_epoch(first_epoch, NOOP)
        first = parallel._WORKER_SOURCE
        try:
            with pytest.raises(WALError):
                parallel._ensure_worker_epoch(first_epoch + 7, NOOP)
            assert parallel._WORKER_SOURCE is first and not first.closed
            assert parallel._WORKER_MUTABLE_EPOCH == first_epoch
            assert first.names() == names

            collection.add(corpus[sorted(corpus)[6]], names[2])
            parallel._ensure_worker_epoch(collection.epoch, NOOP)
            second = parallel._WORKER_SOURCE
            assert first.closed and second.epoch == collection.epoch
            assert_same_document(corpus[sorted(corpus)[6]],
                                 second.document(names[2]))
        finally:
            parallel._WORKER_SOURCE.close()
