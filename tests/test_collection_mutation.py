"""Consistent reads under write traffic, at the collection layer.

Three surfaces of the live-mutation stack:

* the in-memory :class:`DocumentCollection` accepts ``add`` while
  searches run on other threads (copy-on-write corpus swap — readers
  keep the view they started with, no torn iteration);
* :class:`MutableDocumentCollection` answers bit-identically serial
  vs pooled while a writer commits between queries, and an explicit
  ``epoch=`` pin keeps serving the old world after a remove;
* ``POST /ingest`` runs the whole guard path over HTTP: writes land
  durably, become queryable on the next request, and read-only
  servers refuse them.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.collection.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import DocumentError, QueryError, WALError
from repro.obs import Observability
from repro.obs.server import MetricsServer
from repro.workloads.inexlike import InexSpec, generate_collection


@pytest.fixture(scope="module")
def corpus():
    collection = generate_collection(InexSpec(articles=10, seed=47))
    return {name: collection.document(name)
            for name in collection.names()}


NEEDLE = Query.of("needle")
BOTH = Query.of("needle", "thread")


def result_key(result):
    return [hit.label() for hit in result.hits]


def ranked_key(ranked):
    return [(name, round(scored.score, 12), scored.fragment.label())
            for name, scored in ranked]


class TestThreadSafeAdd:
    """Satellite: in-memory ``add`` is safe under concurrent search."""

    @pytest.mark.timeout(120)
    def test_interleaved_add_and_search(self, corpus):
        names = sorted(corpus)
        coll = DocumentCollection("live")
        for name in names[:2]:
            coll.add(corpus[name], name)
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    result = coll.search(NEEDLE,
                                         strategy=Strategy.PUSHDOWN)
                    # A consistent view: every hit names a document
                    # that exists in the view the search returned.
                    for hit in result.hits:
                        assert hit.document_name in coll
                    coll.ranked_search(BOTH, limit=5)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for name in names[2:]:
                coll.add(corpus[name], name)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
        assert not errors
        assert len(coll) == len(names)
        # Post-write searches see the final corpus.
        final = coll.search(NEEDLE)
        assert {h.document_name for h in final.hits} <= set(names)

    def test_duplicate_add_still_rejected(self, corpus):
        names = sorted(corpus)
        coll = DocumentCollection("dup")
        coll.add(corpus[names[0]], names[0])
        with pytest.raises(DocumentError, match="already contains"):
            coll.add(corpus[names[0]], names[0])


@pytest.fixture()
def mutable_collection(corpus, tmp_path):
    from repro.collection.mutable import MutableDocumentCollection
    names = sorted(corpus)
    coll = MutableDocumentCollection.create(
        tmp_path / "idx", {n: corpus[n] for n in names[:6]}, shards=3)
    yield coll
    coll.close()


class TestMutableCollectionParity:
    @pytest.mark.timeout(300)
    def test_serial_equals_pooled_while_writing(self, corpus,
                                                mutable_collection):
        """Bit-identical serial vs pooled answers across commits."""
        names = sorted(corpus)
        reference = DocumentCollection("ref")
        for name in names[:6]:
            reference.add(corpus[name], name)
        for step, extra in enumerate(names[6:9]):
            serial = result_key(mutable_collection.search(NEEDLE))
            pooled = result_key(
                mutable_collection.search(NEEDLE, workers=2))
            expected = result_key(reference.search(NEEDLE))
            assert serial == expected
            assert pooled == expected
            ranked_serial = ranked_key(
                mutable_collection.ranked_search(BOTH, limit=7))
            ranked_pooled = ranked_key(
                mutable_collection.ranked_search(BOTH, limit=7,
                                                 workers=2))
            assert ranked_serial == ranked_key(
                reference.ranked_search(BOTH, limit=7))
            assert ranked_pooled == ranked_serial
            # Land a write between rounds; the next iteration must see
            # it on both paths.
            mutable_collection.add(corpus[extra], extra)
            reference.add(corpus[extra], extra)

    @pytest.mark.timeout(300)
    def test_pooled_reads_while_writer_thread_commits(
            self, corpus, mutable_collection):
        """Queries racing a committing writer always see one epoch."""
        names = sorted(corpus)
        errors = []
        done = threading.Event()

        def writer():
            try:
                for name in names[6:]:
                    mutable_collection.add(corpus[name], name)
                for name in names[6:8]:
                    mutable_collection.remove(name)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while not done.is_set():
                serial = mutable_collection.search(NEEDLE)
                for hit in serial.hits:
                    # Whatever epoch the query pinned, its hits come
                    # from documents of that epoch's corpus.
                    assert hit.document_name in set(names)
                mutable_collection.search(NEEDLE, workers=2)
        finally:
            thread.join(timeout=120)
        assert not errors
        visible = set(mutable_collection.names())
        assert visible == set(names) - set(names[6:8])

    def test_stream_pins_epoch_across_writes(self, corpus,
                                             mutable_collection):
        names = sorted(corpus)
        hits = mutable_collection.search(NEEDLE, stream=True)
        first = next(hits, None)
        # The stream's epoch pin survives a write landing mid-drain.
        mutable_collection.add(corpus[names[9]], names[9])
        rest = list(hits)
        streamed = ([first.label()] if first is not None else []) \
            + [h.label() for h in rest]
        reference = DocumentCollection("ref")
        for name in names[:6]:
            reference.add(corpus[name], name)
        assert streamed == result_key(reference.search(NEEDLE))


    def test_stream_releases_its_pin_however_it_ends(
            self, mutable_collection):
        """Regression: the pin was taken before the draining generator
        started, so a stream dropped or closed before its first
        ``next()`` never ran its ``finally`` and blocked epoch GC."""
        pinned = mutable_collection.mutable.pinned_epochs
        stream = mutable_collection.search(NEEDLE, stream=True)
        assert pinned() == {mutable_collection.epoch: 1}
        del stream                                    # dropped unstarted
        assert pinned() == {}
        mutable_collection.search(NEEDLE, stream=True).close()
        assert pinned() == {}                         # closed unstarted
        stream = mutable_collection.search(NEEDLE, stream=True)
        assert next(stream) is not None
        assert pinned() == {mutable_collection.epoch: 1}
        stream.close()                                # cut short
        assert pinned() == {}
        stream = mutable_collection.search(NEEDLE, stream=True)
        next(stream)
        del stream                                    # dropped mid-drain
        assert pinned() == {}
        assert list(mutable_collection.search(NEEDLE, stream=True))
        assert pinned() == {}                         # drained
        with pytest.raises(ValueError):               # refused up front
            mutable_collection.search(NEEDLE, stream=True, limit=0)
        assert pinned() == {}


class TestEpochPinnedReads:
    def test_explicit_epoch_survives_remove(self, corpus,
                                            mutable_collection):
        names = sorted(corpus)
        old_epoch = mutable_collection.epoch
        pin = mutable_collection.mutable.snapshot()
        try:
            mutable_collection.remove(names[0])
            old = result_key(
                mutable_collection.search(NEEDLE, epoch=old_epoch))
            new = result_key(mutable_collection.search(NEEDLE))
            assert names[0] not in {
                h.split(":")[0] for h in new}
            reference = DocumentCollection("ref")
            for name in names[:6]:
                reference.add(corpus[name], name)
            assert old == result_key(reference.search(NEEDLE))
        finally:
            pin.close()

    def test_unpinned_old_epoch_is_gone(self, corpus,
                                        mutable_collection):
        names = sorted(corpus)
        old_epoch = mutable_collection.epoch
        mutable_collection.remove(names[0])
        mutable_collection.remove(names[1])
        with pytest.raises(WALError):
            mutable_collection.search(NEEDLE, epoch=old_epoch)

    def test_pinned_view_is_read_only(self, corpus, mutable_collection):
        """A pinned epoch never changes: writes land in a new epoch, and
        a collection over the pinned snapshot refuses ``add``."""
        names = sorted(corpus)
        old_epoch = mutable_collection.epoch
        with mutable_collection.mutable.snapshot() as pin:
            before = result_key(
                mutable_collection.search(NEEDLE, epoch=old_epoch))
            mutable_collection.add(corpus[names[9]], names[9])
            mutable_collection.remove(names[0])
            assert result_key(mutable_collection.search(
                NEEDLE, epoch=old_epoch)) == before
            assert names[9] not in pin and names[0] in pin
            view = DocumentCollection("view", source=pin)
            assert result_key(view.search(NEEDLE)) == before
            with pytest.raises(DocumentError, match="read-only"):
                view.add(corpus[names[9]])

    def test_pool_requires_snapshot(self, corpus, mutable_collection):
        from repro.exec.parallel import ParallelExecutor
        executor = ParallelExecutor(
            mutable_index=mutable_collection.mutable.path, workers=2)
        try:
            with pytest.raises(QueryError, match="epoch-pinned"):
                executor.search(NEEDLE, strategy=Strategy.PUSHDOWN)
        finally:
            executor.shutdown()


def _request(url, method="GET", payload=None):
    data = (json.dumps(payload).encode("utf-8")
            if payload is not None else None)
    headers = ({"Content-Type": "application/json"}
               if data is not None else {})
    request = urllib.request.Request(url, data=data, headers=headers,
                                     method=method)
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read() or b"{}")


class TestIngestEndpoint:
    @pytest.fixture()
    def writable_server(self, mutable_collection):
        with MetricsServer(Observability(),
                           collection=mutable_collection) as running:
            yield running

    def test_ingest_commits_and_is_queryable(self, corpus,
                                             writable_server):
        xml = ("<article><sec>a needle in the haystack</sec>"
               "</article>")
        status, body = _request(
            writable_server.url + "/ingest", "POST",
            payload={"documents": [{"name": "fresh", "xml": xml}]})
        assert status == 200, body
        assert body["added"] == ["fresh"]
        assert body["committed"] and body["epoch"] is not None
        assert body["pending_wal_records"] == 0
        status, result = _request(
            writable_server.url + "/query", "POST",
            payload={"query": "haystack"})
        assert status == 200
        assert {h["document"] for h in result["hits"]} == {"fresh"}

    def test_remove_unknown_is_404_and_atomic(self, writable_server,
                                              mutable_collection):
        before = mutable_collection.epoch
        status, body = _request(
            writable_server.url + "/ingest", "POST",
            payload={"documents": [], "remove": ["no-such"]})
        assert status == 404
        assert body["error"] == "unknown-document"
        assert mutable_collection.epoch == before

    def test_bad_shapes_are_400(self, writable_server):
        for payload in ({}, {"documents": "nope"},
                        {"documents": [{"name": "x"}]},
                        {"documents": [{"name": "", "xml": "<a/>"}]},
                        {"documents": [{"name": "x",
                                        "xml": "<open>"}]}):
            status, body = _request(
                writable_server.url + "/ingest", "POST",
                payload=payload)
            assert status == 400, (payload, body)

    def test_read_only_server_refuses_ingest(self, corpus):
        coll = DocumentCollection("ro")
        names = sorted(corpus)
        coll.add(corpus[names[0]], names[0])
        with MetricsServer(Observability(),
                           collection=coll) as running:
            status, body = _request(
                running.url + "/ingest", "POST",
                payload={"documents": [
                    {"name": "x", "xml": "<a>hi</a>"}]})
        assert status == 403
        assert body["error"] == "read-only"

    def test_varz_reports_epochs(self, writable_server,
                                 mutable_collection):
        with urllib.request.urlopen(
                writable_server.url + "/varz", timeout=30) as response:
            doc = json.loads(response.read())
        epochs = doc["epochs"]
        assert epochs["current"] == mutable_collection.epoch
        assert epochs["pending_wal_records"] == 0
        assert mutable_collection.epoch in epochs["published"]
