"""Persistent sharded index: format, attach, corruption, routing.

Covers the build → attach → route lifecycle end to end:

* node-for-node round trips (tags, texts, attributes, keywords,
  labels) and byte-identical deterministic rebuilds;
* zero-copy attach (a document's sections are windows onto the map)
  and mapped-postings probes without materialisation;
* lazy materialisation: structure and a postings view at first touch,
  content at first read, equal to the parsed tree on every accessor
  (through the index and through a WAL record), and no query path
  decoding a string table;
* structured failure on corrupt / truncated / version-skewed files
  (a flipped term-directory byte fails the shard at attach),
  skip-and-degrade attach, and the scatter-gather router's per-shard
  circuit breakers;
* the bit-identical guarantee: ``index_path=`` search equals the
  in-memory path on every Section-4 strategy (ranked and streamed
  search over a sharded collection: ``tests/test_source_parity.py``).
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import sys
import tempfile
import threading
import urllib.request
import warnings
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collection import DocumentCollection
from repro.core.query import Query
from repro.core.strategies import Strategy
from repro.errors import DocumentError, ShardError
from repro.exec.parallel import ParallelExecutor
from repro.exec.resilience import RetryPolicy
from repro.index.inverted import InvertedIndex
from repro.obs import Observability
from repro.obs.recorder import FlightRecorder, RecorderConfig
from repro.obs.server import MetricsServer
from repro.storage.mutation import OP_ADD
from repro.storage.mutation.delta import DeltaView
from repro.storage.mutation.wal import encode_record, read_records
from repro.storage.shards import (FORMAT_VERSION, MANIFEST_NAME,
                                  ShardIndex, ShardRouter, build_index,
                                  shard_of)
from repro.storage.shards import format as shard_format
from repro.storage.shards.writer import encode_document
from repro.workloads.generator import DocumentSpec, generate_document
from repro.workloads.inexlike import InexSpec, generate_collection
from repro.xmltree.builder import DocumentBuilder
from repro.xmltree.serializer import document_to_xml

from ..treegen import documents as random_documents

SHARDS = 3


@pytest.fixture(scope="module")
def corpus():
    """A small INEX-like collection with planted conjunctive terms."""
    return generate_collection(InexSpec(articles=8, seed=11))


@pytest.fixture(scope="module")
def index_dir(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("shards") / "corpus.idx"
    build_index({name: corpus.document(name) for name in corpus.names()},
                path, shards=SHARDS)
    return str(path)


@pytest.fixture()
def scratch_index(corpus, index_dir, tmp_path):
    """A private, corruptible copy of the built index."""
    path = tmp_path / "scratch.idx"
    shutil.copytree(index_dir, path)
    return str(path)


def flip_byte(path, section="postings"):
    """XOR one byte of a shard file: inside ``section`` of its last
    document, or inside the term directory (``section="directory"``)."""
    with open(path, "r+b") as handle:
        raw = handle.read()
        header_len = int.from_bytes(raw[8:12], "little")
        header = json.loads(raw[12:12 + header_len])
        off, length, _ = (header["directory"] if section == "directory"
                          else header["documents"][-1]["sections"][section])
        at = ((12 + header_len + 7) & ~7) + off + length // 2
        handle.seek(at)
        handle.write(bytes([raw[at] ^ 0xFF]))


def _queries():
    return [Query.of("needle", "thread"), Query.of("needle"),
            Query.of("nosuchterm")]


def assert_same_document(expected, actual):
    assert actual.size == expected.size
    assert actual.name == expected.name
    labels_e, labels_a = expected.labels, actual.labels
    for nid in expected.node_ids():
        assert actual.tag(nid) == expected.tag(nid)
        assert actual.text(nid) == expected.text(nid)
        assert list(actual.attributes(nid).items()) == \
            list(expected.attributes(nid).items())
        assert actual.keywords(nid) == expected.keywords(nid)
        assert actual.parent(nid) == expected.parent(nid)
        assert list(actual.children(nid)) == list(expected.children(nid))
        assert labels_a.depth[nid] == labels_e.depth[nid]
        assert labels_a.size[nid] == labels_e.size[nid]


def assert_same_result(expected, actual):
    """Same answers, canonically ordered.

    ``QueryResult.fragments`` order can vary with join-cache warmth
    (serial-vs-serial too), so compare the canonical form: the sorted
    per-document answer sets plus the merged, deterministically-sorted
    ``hits`` view.
    """
    assert sorted(actual.per_document) == sorted(expected.per_document)
    for name in expected.per_document:
        assert (sorted(tuple(sorted(f.nodes))
                       for f in actual.per_document[name].fragments)
                == sorted(tuple(sorted(f.nodes))
                          for f in expected.per_document[name].fragments))
    assert ([(h.document_name, tuple(sorted(h.fragment.nodes)))
             for h in actual.hits]
            == [(h.document_name, tuple(sorted(h.fragment.nodes)))
                for h in expected.hits])


class TestFormat:
    def test_round_trip_node_for_node(self, corpus, index_dir):
        with ShardIndex.attach(index_dir) as index:
            assert sorted(index.names()) == sorted(corpus.names())
            for name in corpus.names():
                assert_same_document(corpus.document(name),
                                     index.document(name))

    def test_attach_is_zero_copy(self, index_dir):
        with ShardIndex.attach(index_dir) as index:
            sf, entry = index._locate(index.names()[0])
            for section in ("parents", "size"):
                with index._section(sf, entry, section) as window:
                    assert isinstance(window, memoryview)
                    assert window.obj is sf.payload.obj

    def test_builds_are_byte_identical(self, corpus, tmp_path):
        documents = {name: corpus.document(name)
                     for name in corpus.names()}
        for target in ("a", "b"):
            build_index(documents, tmp_path / target, shards=SHARDS)
        for entry in sorted(os.listdir(tmp_path / "a")):
            with open(tmp_path / "a" / entry, "rb") as fa, \
                    open(tmp_path / "b" / entry, "rb") as fb:
                assert fa.read() == fb.read(), entry

    def test_directory_lists_every_term_of_every_document(
            self, corpus, index_dir):
        """The shard header names one checksummed directory section,
        and it answers exactly what the documents' postings do."""
        with ShardIndex.attach(index_dir) as index:
            stats = index.stats()
            assert stats["format_version"] == FORMAT_VERSION
            assert sorted(stats["directories"]) == ["0", "1", "2"]
            for entry in stats["directories"].values():
                assert entry["terms"] > 0 and entry["directory_bytes"] > 0
            for term in sorted(corpus.vocabulary()):
                assert index.candidates((term,)) == sorted(
                    name for name in corpus.names()
                    if corpus.has_terms(name, [term]))
            assert index.stats()["documents_materialized"] == 0

    @settings(max_examples=30, deadline=None)
    @given(tree=random_documents(max_nodes=24))
    def test_post_is_recomputed_not_stored(self, tree):
        """Neither a preorder nor a postorder rank is stored: ids are
        preorder ranks, and ``post = id + size - 1 - depth``, so equal
        ``depth`` and ``size`` labels imply equal ranks."""
        with tempfile.TemporaryDirectory() as root:
            build_index({"tree": tree}, root, shards=1)
            with ShardIndex.attach(root) as index:
                labels = index.document("tree").labels
                assert labels.depth == tree.labels.depth
                assert labels.size == tree.labels.size

    def test_shard_assignment_is_stable(self, corpus, index_dir):
        with ShardIndex.attach(index_dir) as index:
            for name in corpus.names():
                assert index.shard_of(name) == shard_of(name, SHARDS)

    def test_manifest_shape(self, index_dir):
        with open(os.path.join(index_dir, MANIFEST_NAME)) as handle:
            manifest = json.load(handle)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["shards"] == SHARDS
        assert len(manifest["files"]) == SHARDS
        for entry in manifest["files"]:
            assert {"file", "shard", "bytes", "documents",
                    "header_crc32", "crc32"} <= set(entry)

    def test_probe_does_not_materialize(self, index_dir):
        with ShardIndex.attach(index_dir) as index:
            name = index.names()[0]
            assert index.contains(name, "needle") in (True, False)
            assert not index.contains(name, "nosuchterm")
            assert index.stats()["documents_materialized"] == 0
            index.document(name)
            assert index.stats()["documents_materialized"] == 1

    def test_unknown_document(self, index_dir):
        with ShardIndex.attach(index_dir) as index:
            with pytest.raises(ShardError) as err:
                index.shard_of("missing-doc")
            assert err.value.reason == "unknown-document"

    def test_build_rejects_empty_and_bad_shards(self, corpus, tmp_path):
        with pytest.raises(ShardError) as err:
            build_index({}, tmp_path / "empty")
        assert err.value.reason == "empty"
        name = corpus.names()[0]
        with pytest.raises(ShardError) as err:
            build_index({name: corpus.document(name)},
                        tmp_path / "bad", shards=0)
        assert err.value.reason == "bad-shards"

    def test_cache_limit_bounds_materialized_documents(self, index_dir):
        with ShardIndex.attach(index_dir, cache_limit=2) as index:
            for name in index.names():
                index.document(name)
            assert index.stats()["documents_cached"] <= 2

    def test_document_cache_is_shared_by_threads(self, index_dir):
        """Two handler threads alternating two documents through a
        one-entry cache: each evicts the other's entry between its
        check and its read unless the cache is locked (a ``KeyError``
        out of ``inverted_index`` before the lock)."""
        errors = []

        def reader(names):
            try:
                for _ in range(100):
                    for name in names:
                        assert index.inverted_index(name) is not None
                        assert index.document(name).name == name
            except Exception as exc:  # the assertion is on the list
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardIndex.attach(index_dir, cache_limit=1) as index:
                first, second = index.names()[:2]
                threads = [threading.Thread(target=reader, args=(order,))
                           for order in ((first, second), (second, first),
                                         (first, second))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []


@st.composite
def content_trees(draw, max_nodes: int = 16):
    """Random trees whose nodes differ in tag, text and attributes
    (unicode included), so every content section carries data."""
    words = st.sampled_from(("red", "pear", "grün", "日本", "x"))
    builder = DocumentBuilder(name="tree")
    ids: list[int] = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_nodes))):
        tag = draw(st.sampled_from(("a", "sec", "p", "título")))
        text = " ".join(draw(st.lists(words, max_size=3)))
        attrs = draw(st.dictionaries(st.sampled_from(("id", "lang", "ß")),
                                     words, max_size=2))
        if ids:
            parent = ids[draw(st.integers(0, len(ids) - 1))]
            ids.append(builder.add_child(parent, tag, text, attrs=attrs))
        else:
            ids.append(builder.add_root(tag, text, attrs=attrs))
    return builder.build()


def assert_lazy_equivalent(parsed, index):
    """A materialised ``index`` and its document answer every accessor
    as the parsed tree and an index built over it do.  The index is
    asked first, so its answers come from the postings view alone."""
    expected = InvertedIndex(parsed)
    probes = sorted(expected.vocabulary()) + ["nosuchterm"]
    for term in probes:
        assert index.postings(term) == expected.postings(term)
        assert (index.document_frequency(term)
                == expected.document_frequency(term))
        assert index.contains(term) == expected.contains(term)
    assert index.rarest_first(probes) == expected.rarest_first(probes)
    assert index.vocabulary() == expected.vocabulary()
    assert len(index) == len(expected)
    document = index.document
    assert_same_document(parsed, document)
    assert document.labels.depth == parsed.labels.depth
    assert document.labels.size == parsed.labels.size
    assert document.vocabulary() == parsed.vocabulary()
    for term in probes:
        assert (document.nodes_with_keyword(term)
                == parsed.nodes_with_keyword(term))


class TestLazyMaterialisation:
    """A materialised document is structure plus a postings view until
    its content is read, and then equals the parsed tree."""

    @settings(max_examples=40, deadline=None)
    @given(tree=content_trees())
    def test_shard_index_document_equals_parsed(self, tree):
        with tempfile.TemporaryDirectory() as root:
            build_index({"tree": tree}, root, shards=1)
            with ShardIndex.attach(root) as index:
                assert_lazy_equivalent(tree, index.inverted_index("tree"))

    @settings(max_examples=40, deadline=None)
    @given(tree=content_trees())
    def test_wal_record_document_equals_parsed(self, tree):
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "wal.log")
            with open(path, "wb") as handle:
                handle.write(encode_record(1, OP_ADD, "tree",
                                           encode_document(tree)))
            view = DeltaView.from_records(read_records(path)["records"])
        assert_lazy_equivalent(tree, view.inverted_index("tree"))

    def test_pickling_an_untouched_document_decodes_it(self, corpus,
                                                       index_dir):
        with ShardIndex.attach(index_dir) as index:
            for name in index.names():
                clone = pickle.loads(pickle.dumps(index.document(name)))
                assert_same_document(corpus.document(name), clone)

    def test_racing_first_reads_agree(self, corpus, index_dir):
        """Eight threads make the first read of one fresh document's
        tags, keywords and children at once.  There is no lock: each
        decode is idempotent and assigns one complete value."""
        name = max(corpus.names(),
                   key=lambda n: corpus.document(n).size)
        parsed = corpus.document(name)
        expected = ([parsed.tag(n) for n in parsed.node_ids()],
                    [parsed.keywords(n) for n in parsed.node_ids()],
                    [parsed.children(n) for n in parsed.node_ids()])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                with ShardIndex.attach(index_dir) as index:
                    document = index.document(name)
                    barrier = threading.Barrier(8, timeout=30)
                    seen = []

                    def first_read():
                        barrier.wait()
                        nodes = document.node_ids()
                        seen.append(([document.tag(n) for n in nodes],
                                     [document.keywords(n) for n in nodes],
                                     [document.children(n) for n in nodes]))

                    threads = [threading.Thread(target=first_read)
                               for _ in range(8)]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(timeout=60)
                    assert not any(t.is_alive() for t in threads)
                assert seen == [expected] * 8
        finally:
            sys.setswitchinterval(interval)


class TestQueryPathDecodesNoContent:
    """Answers are node ids: no query path decodes a tag or a text."""

    def test_search_and_serve_decode_no_strings(self, corpus, index_dir,
                                                monkeypatch):
        def refuse(buf):
            raise AssertionError("the query path decoded a string table")

        monkeypatch.setattr(shard_format, "decode_strings", refuse)
        collection = DocumentCollection.open_index(index_dir)
        try:
            query = Query.of("needle", "thread")
            assert_same_result(corpus.search(query),
                               collection.search(query))
            expected = [(h.document_name, sorted(h.fragment.nodes))
                        for h in corpus.search(query, stream=True,
                                               limit=10)]
            assert expected and expected == [
                (h.document_name, sorted(h.fragment.nodes))
                for h in collection.search(query, stream=True, limit=10)]
            with MetricsServer(Observability(),
                               collection=collection) as server:
                for payload in ({"query": "needle thread"},
                                {"query": "needle thread", "stream": True,
                                 "limit": 10}):
                    request = urllib.request.Request(
                        server.url + "/query",
                        data=json.dumps(payload).encode("utf-8"),
                        method="POST")
                    with urllib.request.urlopen(request,
                                                timeout=60) as reply:
                        assert reply.status == 200
                        lines = reply.read().decode("utf-8").splitlines()
                    if payload.get("stream"):
                        hits = [json.loads(line) for line in lines[1:-1]]
                        assert [(h["document"], h["nodes"])
                                for h in hits] == expected
                    else:
                        assert (json.loads("".join(lines))["answers"]
                                == len(corpus.search(query)))
            monkeypatch.undo()
            for name in collection.names():
                assert (collection.document(name).tag(0)
                        == corpus.document(name).tag(0))
        finally:
            collection.close()

    def test_content_reads_after_close(self, corpus, index_dir):
        """A document holds copies of its content sections, never views
        of the map: close() releases the map with content already read
        and content not yet read, and both stay readable."""
        names = corpus.names()[:2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = ShardIndex.attach(index_dir)
            read, unread = (index.document(name) for name in names)
            assert read.tag(0) == corpus.document(names[0]).tag(0)
            index.close()
            gc.collect()
        assert_same_document(corpus.document(names[0]), read)
        assert_same_document(corpus.document(names[1]), unread)


class TestCorruption:
    def test_truncated_shard(self, scratch_index):
        with open(os.path.join(scratch_index, "shard-0001.bin"),
                  "r+b") as handle:
            handle.truncate(32)
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "truncated"
        assert err.value.shard == 1

    def test_bad_magic(self, scratch_index):
        with open(os.path.join(scratch_index, "shard-0000.bin"),
                  "r+b") as handle:
            handle.write(b"XXXXXXXX")
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "bad-magic"

    def test_manifest_version_skew(self, scratch_index):
        manifest_path = os.path.join(scratch_index, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = FORMAT_VERSION + 99
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "version-skew"

    def test_v1_index_is_version_skew(self, scratch_index):
        """No old-version read path: a v1 or v2 manifest, and a v1
        shard header under a current manifest, all say "rebuild"."""
        manifest_path = os.path.join(scratch_index, MANIFEST_NAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        for old_version in (1, 2):
            with open(manifest_path, "w") as handle:
                json.dump(dict(manifest, format_version=old_version),
                          handle)
            with pytest.raises(ShardError) as err:
                ShardIndex.attach(scratch_index)
            assert err.value.reason == "version-skew"
            assert "rebuild the index" in str(err.value)
        # Now the header alone: same length, so only its crc moves.
        shard_path = os.path.join(scratch_index, "shard-0000.bin")
        with open(shard_path, "rb") as handle:
            raw = handle.read()
        old = b'"format_version":%d' % FORMAT_VERSION
        assert raw.count(old) == 1
        raw = raw.replace(old, b'"format_version":1')
        with open(shard_path, "wb") as handle:
            handle.write(raw)
        header_len = int.from_bytes(raw[8:12], "little")
        manifest["files"][0]["header_crc32"] = zlib.crc32(
            raw[12:12 + header_len])
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "version-skew"
        assert err.value.shard == 0

    def test_directory_bitflip_fails_the_shard_at_attach(
            self, corpus, scratch_index):
        flip_byte(os.path.join(scratch_index, "shard-0001.bin"),
                  "directory")
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "checksum"
        assert err.value.shard == 1
        with ShardIndex.attach(scratch_index, on_error="skip") as index:
            assert index.failed_shards[1].reason == "checksum"
            assert index.attached_shards == [0, 2]
            assert index.candidates(("needle",)) == [
                name for name in index.names()
                if index.contains(name, "needle")]
        with ShardRouter(scratch_index, workers=2,
                         start_method="fork") as router:
            result = router.search(Query.of("needle"))
            assert router.last_report.skipped == {1: "checksum"}
            served = [name for name in sorted(corpus.names())
                      if shard_of(name, SHARDS) != 1]
            assert list(result.per_document) == [
                name for name in served
                if corpus.has_terms(name, ["needle"])]

    def test_verify_all_checksums_the_directory(self, scratch_index):
        """A directory that rots under a live handle (the map is
        shared with the file) is caught by the sweep."""
        with ShardIndex.attach(scratch_index) as index:
            assert index.verify_all() == {
                "documents": len(index), "failures": []}
            flip_byte(os.path.join(scratch_index, "shard-0002.bin"),
                      "directory")
            failures = index.verify_all()["failures"]
            assert [(f["reason"], f["shard"]) for f in failures] == [
                ("checksum", 2)]

    def test_missing_shard_file(self, scratch_index):
        os.unlink(os.path.join(scratch_index, "shard-0002.bin"))
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(scratch_index)
        assert err.value.reason == "missing"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError) as err:
            ShardIndex.attach(tmp_path / "nowhere")
        assert err.value.reason == "missing"

    def test_payload_bitflip_caught_at_first_touch(self, scratch_index):
        flip_byte(os.path.join(scratch_index, "shard-0001.bin"))
        # The bitflip is in a document's section: attach (header and
        # directory checks) succeeds, lazy per-document verification
        # refuses to serve.
        index = ShardIndex.attach(scratch_index)
        try:
            victims = index.shard_documents(1)
            with pytest.raises(ShardError) as err:
                for name in victims:
                    index.document(name)
            assert err.value.reason == "checksum"
            assert err.value.shard == 1
        finally:
            index.close()

    def test_skip_and_degrade(self, corpus, scratch_index):
        with open(os.path.join(scratch_index, "shard-0001.bin"),
                  "r+b") as handle:
            handle.truncate(32)
        index = ShardIndex.attach(scratch_index, on_error="skip")
        try:
            assert index.degraded
            assert sorted(index.failed_shards) == [1]
            assert index.failed_shards[1].reason == "truncated"
            assert index.attached_shards == [0, 2]
            # The healthy shards still serve full documents.
            for name in index.names():
                assert_same_document(corpus.document(name),
                                     index.document(name))
            stats = index.stats()
            assert stats["shards_failed"]["1"]["reason"] == "truncated"
        finally:
            index.close()

    def test_skip_with_nothing_left_raises(self, scratch_index):
        for shard in range(SHARDS):
            with open(os.path.join(scratch_index,
                                   f"shard-{shard:04d}.bin"),
                      "r+b") as handle:
                handle.truncate(32)
        with pytest.raises(ShardError):
            ShardIndex.attach(scratch_index, on_error="skip")

    def test_verify_all_reports_failures(self, scratch_index):
        flip_byte(os.path.join(scratch_index, "shard-0000.bin"))
        index = ShardIndex.attach(scratch_index)
        try:
            outcome = index.verify_all()
            assert outcome["failures"]
            assert all(f["reason"] == "checksum"
                       for f in outcome["failures"])
        finally:
            index.close()

    def test_shard_error_is_structured_and_picklable(self):
        error = ShardError("boom", reason="checksum", shard=3,
                           path="/idx/shard-0003.bin")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.reason == "checksum"
        assert clone.shard == 3
        doc = clone.to_dict()
        assert doc["error"] == "shard"
        assert doc["reason"] == "checksum"


class TestSharedMemory:
    def test_spec_round_trip(self, corpus, index_dir):
        parent = ShardIndex.attach(index_dir)
        try:
            spec = parent.attach_spec(shared_memory=True)
            assert "shm" in spec
            child = ShardIndex.from_spec(spec)
            try:
                name = child.names()[0]
                assert_same_document(corpus.document(name),
                                     child.document(name))
            finally:
                child.close()
        finally:
            parent.close()


@pytest.mark.timeout(180)
class TestBitIdentical:
    """index_path= results equal the in-memory path, every strategy."""

    def test_inexlike_all_strategies(self, corpus, index_dir):
        with ParallelExecutor(index_path=index_dir, workers=2,
                              start_method="fork") as executor:
            for query in _queries():
                for strategy in Strategy:
                    expected = corpus.search(query, strategy=strategy)
                    actual = executor.search(query, strategy=strategy)
                    assert_same_result(expected, actual)

    def test_zipf_corpus(self, tmp_path):
        collection = DocumentCollection(name="zipf")
        for i in range(6):
            collection.add(generate_document(DocumentSpec(
                nodes=150, seed=500 + i, name=f"zipf-{i:02d}")))
        path = tmp_path / "zipf.idx"
        build_index({n: collection.document(n)
                     for n in collection.names()}, path, shards=2)
        # A Zipf-tail term: present somewhere, small keyword sets.
        vocabulary = sorted(
            term
            for name in collection.names()
            for term in collection.index(name).vocabulary()
            if term.startswith("w"))
        query = Query.of(vocabulary[-1])
        with ParallelExecutor(index_path=str(path), workers=2,
                              start_method="fork") as executor:
            for strategy in Strategy:
                assert_same_result(
                    collection.search(query, strategy=strategy),
                    executor.search(query, strategy=strategy))


@pytest.mark.timeout(180)
class TestRouter:
    def test_healthy_routing_matches_serial(self, corpus, index_dir):
        with ShardRouter(index_dir, workers=2,
                         start_method="fork") as router:
            for query in _queries():
                assert_same_result(corpus.search(query),
                                   router.search(query))
            report = router.last_report
            assert not report.degraded
            assert report.fanout >= 1
            assert not report.skipped

    def test_breaker_open_skips_shard(self, corpus, index_dir):
        with ShardRouter(index_dir, workers=2,
                         start_method="fork") as router:
            victim = router.index.attached_shards[0]
            breaker = router.breaker(victim)
            for _ in range(3):
                breaker.record_failure()
            assert breaker.state == "open"
            result = router.search(Query.of("needle"))
            report = router.last_report
            assert report.skipped == {victim: "breaker-open"}
            assert report.degraded
            victims = set(router.index.shard_documents(victim))
            assert not (set(result.per_document) & victims)
            assert router.degraded

    def test_breaker_recovers_after_reset(self, index_dir):
        clock = [0.0]
        with ShardRouter(index_dir, workers=2, start_method="fork",
                         breaker_reset_s=10.0,
                         clock=lambda: clock[0]) as router:
            victim = router.index.attached_shards[0]
            for _ in range(3):
                router.breaker(victim).record_failure()
            router.search(Query.of("needle"))
            assert victim in router.last_report.skipped
            clock[0] = 11.0  # past reset: half-open probe readmits
            router.search(Query.of("needle"))
            assert victim not in router.last_report.skipped
            assert router.breaker(victim).state == "closed"

    def test_midrun_checksum_evicts_shard(self, scratch_index):
        flip_byte(os.path.join(scratch_index, "shard-0002.bin"))
        policy = RetryPolicy(max_retries=0, backoff_s=0.0)
        with ShardRouter(scratch_index, workers=2, start_method="fork",
                         resilience=policy) as router:
            result = router.search(Query.of("needle"))
            report = router.last_report
            assert report.skipped.get(2) == "checksum"
            assert report.reroutes == 1
            assert report.degraded
            victims = set(router.index.shard_documents(2))
            assert not (set(result.per_document) & victims)

    def test_attach_failure_degrades_not_raises(self, scratch_index):
        with open(os.path.join(scratch_index, "shard-0001.bin"),
                  "r+b") as handle:
            handle.truncate(32)
        with ShardRouter(scratch_index, workers=2,
                         start_method="fork") as router:
            router.search(Query.of("needle"))
            report = router.last_report
            assert report.skipped.get(1) == "truncated"
            assert report.documents_skipped > 0
            stats = router.stats()
            assert stats["degraded"]
            assert stats["last_run"]["skipped"]["1"] == "truncated"

    def test_strict_mode_raises(self, scratch_index):
        with open(os.path.join(scratch_index, "shard-0001.bin"),
                  "r+b") as handle:
            handle.truncate(32)
        with ShardRouter(scratch_index, workers=2, start_method="fork",
                         strict=True) as router:
            with pytest.raises(ShardError) as err:
                router.search(Query.of("needle"))
            assert err.value.reason == "truncated"


@pytest.mark.timeout(180)
class TestShardedCollection:
    def test_read_only(self, corpus, index_dir):
        sharded = DocumentCollection.open_index(index_dir)
        try:
            with pytest.raises(DocumentError):
                sharded.add(corpus.document(corpus.names()[0]),
                            name="dup")
        finally:
            sharded.close()

    def test_introspection(self, corpus, index_dir):
        sharded = DocumentCollection.open_index(index_dir)
        try:
            assert len(sharded) == len(corpus)
            assert sorted(sharded.names()) == sorted(corpus.names())
            assert sharded.total_nodes == corpus.total_nodes
            assert (sharded.document_frequency("needle")
                    == corpus.document_frequency("needle"))
            assert not sharded.degraded
        finally:
            sharded.close()

    def test_early_exit_probe_skips_materialization(self, index_dir):
        sharded = DocumentCollection.open_index(index_dir)
        try:
            sharded.search(Query.of("nosuchterm"))
            stats = sharded.shard_stats()
            assert stats["index"]["documents_materialized"] == 0
        finally:
            sharded.close()

    def test_workers_path_uses_router(self, corpus, index_dir):
        sharded = DocumentCollection.open_index(index_dir)
        try:
            query = Query.of("needle", "thread")
            assert_same_result(corpus.search(query),
                               sharded.search(query, workers=2))
            assert sharded.router is not None
            assert sharded.router.last_report.fanout >= 1
        finally:
            sharded.close()

    def test_serial_profiles_carry_shard(self, index_dir):
        # One profile per search; its trace's execute spans name the
        # shard of each document.
        obs = Observability(recorder=FlightRecorder(
            RecorderConfig(sample_rate=1.0, slow_ms=None)))
        sharded = DocumentCollection.open_index(index_dir)
        try:
            sharded.search(Query.of("needle"), obs=obs)
            (profile,) = obs.recorder.profiles
            events = obs.recorder.chrome_trace(
                profile.trace_id)["traceEvents"]
            shards = {e["args"]["document"]: e["args"]["shard"]
                      for e in events if e["name"] == "execute"}
            assert len(shards) == profile.documents > 0
            assert shards == {name: sharded.index_handle.shard_of(name)
                              for name in shards}
            assert set(shards.values()) <= set(range(SHARDS))
        finally:
            sharded.close()

    def test_shard_stats_shape(self, index_dir):
        sharded = DocumentCollection.open_index(index_dir)
        try:
            sharded.search(Query.of("needle"), workers=2)
            stats = sharded.shard_stats()
            assert stats["index"]["shards_attached"] == SHARDS
            assert stats["index"]["bytes_mapped"] > 0
            assert stats["last_run"]["fanout"] >= 1
            assert set(stats["breakers"]) == {str(s)
                                              for s in range(SHARDS)}
        finally:
            sharded.close()


class TestDeterminism:
    """Directory enumeration and shard assignment are stable."""

    def test_from_directory_sorted(self, corpus, tmp_path):
        # Write files in an order unrelated to their names; the loaded
        # collection must come back name-sorted regardless.
        names = list(corpus.names())
        for name in reversed(names):
            with open(tmp_path / f"{name}.xml", "w",
                      encoding="utf-8") as handle:
                handle.write(document_to_xml(corpus.document(name)))
        loaded = DocumentCollection.from_directory(tmp_path)
        assert loaded.names() == sorted(loaded.names())

    def test_directory_build_is_reproducible(self, corpus, tmp_path):
        for name in corpus.names():
            with open(tmp_path / f"{name}.xml", "w",
                      encoding="utf-8") as handle:
                handle.write(document_to_xml(corpus.document(name)))
        indexes = []
        for target in ("x", "y"):
            loaded = DocumentCollection.from_directory(tmp_path)
            out = tmp_path / f"{target}.idx"
            build_index(loaded, out, shards=SHARDS)
            with open(out / MANIFEST_NAME, "rb") as handle:
                indexes.append(handle.read())
        assert indexes[0] == indexes[1]


class TestRouterHistory:
    """The cumulative per-shard ledger behind ``/varz``'s shards
    section, and the labelled exclusion/reroute metrics."""

    def test_ledger_accumulates_runs_and_exclusions(self, index_dir):
        from repro.obs import (SHARD_ROUTER_EXCLUSIONS, Observability)

        obs = Observability()
        with ShardRouter(index_dir, workers=2,
                         start_method="fork") as router:
            router.search(Query.of("needle"), obs=obs)
            victim = router.index.attached_shards[0]
            for _ in range(3):
                router.breaker(victim).record_failure()
            router.search(Query.of("needle"), obs=obs)
            router.search(Query.of("needle"), obs=obs)

            healthy = router.history[
                router.index.attached_shards[1]]
            assert healthy["runs"] == 3
            assert healthy["excluded_runs"] == 0
            sick = router.history[victim]
            assert sick["runs"] == 1          # served before the trip
            assert sick["excluded_runs"] == 2
            assert sick["exclusions"] == {"breaker-open": 2}
            assert sick["last_exclusion"] == "breaker-open"

            # The exclusion counter is labelled per shard and reason.
            counter = obs.metrics.get(
                SHARD_ROUTER_EXCLUSIONS,
                labels={"shard": str(victim),
                        "reason": "breaker-open"})
            assert counter is not None and counter.value == 2

            stats = router.stats()
            assert stats["history"][str(victim)]["excluded_runs"] == 2
            assert stats["last_run"]["skipped"][str(victim)] \
                == "breaker-open"

    def test_varz_surfaces_the_shard_ledger(self, index_dir):
        import json as json_module
        import urllib.request

        from repro.collection.sharded import ShardedDocumentCollection
        from repro.obs import Observability
        from repro.obs.server import MetricsServer, QueryGuardrails

        collection = ShardedDocumentCollection(index_dir)
        try:
            obs = Observability()
            rails = QueryGuardrails(workers=2)
            with MetricsServer(obs, collection=collection,
                               guardrails=rails) as server:
                payload = json_module.dumps(
                    {"query": "needle"}).encode("utf-8")
                request = urllib.request.Request(
                    server.url + "/query", data=payload,
                    headers={"Content-Type": "application/json"},
                    method="POST")
                with urllib.request.urlopen(request,
                                            timeout=60) as reply:
                    assert reply.status == 200
                    json_module.loads(reply.read())
                with urllib.request.urlopen(server.url + "/varz",
                                            timeout=5) as reply:
                    varz = json_module.loads(reply.read())
            shards = varz["shards"]
            assert shards["last_run"]["fanout"] >= 1
            assert all(entry["runs"] >= 1
                       for entry in shards["history"].values())
            assert shards["degraded"] is False
        finally:
            collection.close()
