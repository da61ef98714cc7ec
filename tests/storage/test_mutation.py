"""Crash-safe mutable index: WAL, epochs, snapshots, fsck, lifecycle.

Covers the storage half of the live-mutation stack:

* WAL record round trips, the torn-tail-aware scanner, and checksum
  rejection of flipped bytes;
* the add/remove/commit/compact lifecycle — visibility, upserts,
  tombstones, reopen-after-close recovery;
* epoch pinning: snapshots keep serving their epoch across commits
  and compactions, GC only reclaims unpinned state;
* worker-path parity: ``attach_snapshot`` serves bytes identical to
  the in-process snapshot;
* ``fsck`` verify/repair on healthy, torn and orphaned directories;
* deterministic handle release: ``ShardIndex.close`` and
  ``Snapshot.close`` are idempotent and leak no mmaps under
  ``-W error``.
"""

from __future__ import annotations

import gc
import json
import os
import warnings

import pytest

from repro.collection.mutable import MutableDocumentCollection
from repro.errors import ShardError, WALError
from repro.storage.mutation import (OP_ADD, OP_REMOVE, MutableIndex,
                                    attach_snapshot, fsck, read_current,
                                    read_records)
from repro.storage.mutation.wal import encode_record
from repro.storage.shards import (FORMAT_VERSION, MANIFEST_NAME,
                                  ShardIndex, build_index)
from repro.storage.shards.format import SECTION_NAMES
from repro.storage.shards.writer import encode_document
from repro.workloads.inexlike import InexSpec, generate_collection


@pytest.fixture(scope="module")
def corpus():
    collection = generate_collection(InexSpec(articles=8, seed=23))
    return {name: collection.document(name)
            for name in collection.names()}


@pytest.fixture()
def mutable(corpus, tmp_path):
    """A live mutable index: 5 base documents, 2 delta, 1 removed."""
    names = sorted(corpus)
    index = MutableIndex.create(tmp_path / "idx",
                                {n: corpus[n] for n in names[:5]},
                                shards=3)
    for name in names[5:7]:
        index.add(corpus[name], name)
    index.remove(names[0])
    yield index
    index.close()


def assert_same_document(expected, actual):
    assert actual.size == expected.size
    for node in range(expected.size):
        assert actual.tag(node) == expected.tag(node)
        assert actual.text(node) == expected.text(node)
        assert actual.parent(node) == expected.parent(node)
        assert (sorted(actual.keywords(node))
                == sorted(expected.keywords(node)))


class TestWAL:
    def test_record_round_trip(self, corpus, tmp_path):
        name = sorted(corpus)[0]
        sections = encode_document(corpus[name])
        path = tmp_path / "w.log"
        with open(path, "wb") as fh:
            fh.write(encode_record(1, OP_ADD, name, sections))
            fh.write(encode_record(2, OP_REMOVE, name, None))
        scan = read_records(path)
        assert not scan["torn"]
        assert [(r[0], r[1], r[2]) for r in scan["records"]] == [
            (1, OP_ADD, name), (2, OP_REMOVE, name)]
        assert scan["records"][0][3] == sections
        assert scan["records"][1][3] is None
        assert scan["good_bytes"] == scan["file_bytes"]
        # Format v2: records carry the shard sections, so no ``post``.
        assert tuple(sections) == SECTION_NAMES
        assert "post" not in sections

    def test_torn_tail_stops_scan(self, tmp_path):
        path = tmp_path / "w.log"
        good = encode_record(1, OP_REMOVE, "a", None)
        with open(path, "wb") as fh:
            fh.write(good)
            fh.write(encode_record(2, OP_REMOVE, "b", None)[:-3])
        scan = read_records(path)
        assert scan["torn"]
        assert scan["torn_reason"] == "truncated-body"
        assert len(scan["records"]) == 1
        assert scan["good_bytes"] == len(good)

    def test_checksum_flip_rejected(self, tmp_path):
        path = tmp_path / "w.log"
        record = bytearray(encode_record(1, OP_REMOVE, "a", None))
        record[-1] ^= 0xFF
        path.write_bytes(bytes(record))
        scan = read_records(path)
        assert scan["torn"] and scan["torn_reason"] == "checksum"
        assert scan["records"] == []


class TestLifecycle:
    def test_visibility(self, corpus, mutable):
        names = sorted(corpus)
        visible = set(names[1:7])
        assert set(mutable.names()) == visible
        assert len(mutable) == len(visible)
        assert names[0] not in mutable
        assert names[5] in mutable

    def test_snapshot_serves_base_and_delta(self, corpus, mutable):
        names = sorted(corpus)
        snapshot = mutable.snapshot()
        try:
            # base document (gen-0000) and delta document (WAL)
            assert_same_document(corpus[names[1]],
                                 snapshot.document(names[1]))
            assert_same_document(corpus[names[5]],
                                 snapshot.document(names[5]))
            with pytest.raises(WALError) as excinfo:
                snapshot.document(names[0])
            assert excinfo.value.reason == "unknown-document"
        finally:
            snapshot.close()

    def test_upsert_replaces(self, corpus, mutable):
        names = sorted(corpus)
        replacement = corpus[names[7]]
        mutable.add(replacement, names[1])  # shadow a base document
        snapshot = mutable.snapshot()
        try:
            assert_same_document(replacement,
                                 snapshot.document(names[1]))
        finally:
            snapshot.close()

    def test_commit_is_noop_without_pending(self, mutable):
        epoch = mutable.epoch
        assert mutable.commit() == epoch

    def test_batched_writes_invisible_until_commit(self, corpus,
                                                   mutable):
        names = sorted(corpus)
        mutable.add(corpus[names[7]], names[7], commit=False)
        assert mutable.pending_records == 1
        snapshot = mutable.snapshot()
        try:
            assert names[7] not in snapshot.names()
        finally:
            snapshot.close()
        mutable.commit()
        assert names[7] in mutable

    def test_reopen_recovers_committed_state(self, corpus, tmp_path):
        names = sorted(corpus)
        index = MutableIndex.create(tmp_path / "idx",
                                    {names[0]: corpus[names[0]]})
        index.add(corpus[names[1]], names[1])
        epoch = index.epoch
        index.close()
        reopened = MutableIndex.open(tmp_path / "idx")
        try:
            assert reopened.epoch == epoch
            assert set(reopened.names()) == {names[0], names[1]}
            assert reopened.recovery["wal_records_replayed"] == 1
            assert reopened.recovery["wal_bytes_discarded"] == 0
        finally:
            reopened.close()

    def test_compact_folds_delta_into_new_generation(self, corpus,
                                                     mutable):
        before = mutable.names()
        generation = mutable.generation
        mutable.compact()
        assert mutable.generation == generation + 1
        assert mutable.names() == before
        assert mutable.stats()["delta"]["documents"] == 0
        snapshot = mutable.snapshot()
        try:
            for name in before:
                assert_same_document(corpus[name],
                                     snapshot.document(name))
                labels = snapshot.document(name).labels
                assert labels.depth == corpus[name].labels.depth
                assert labels.size == corpus[name].labels.size
            # The new generation is an ordinary shard index: it screens
            # from its own term directory, and fsck sweeps it clean.
            base = snapshot.base.stats()
            assert base["format_version"] == FORMAT_VERSION
            assert all(entry["terms"] for entry
                       in base["directories"].values())
            for term in ("needle", "thread", "nosuchterm"):
                assert snapshot.candidates((term,)) == [
                    name for name in before
                    if snapshot.contains(name, term)]
            assert base["documents_materialized"] == len(before)
        finally:
            snapshot.close()
        report = fsck(mutable.path)
        assert report["healthy"] and not report["issues"]
        assert report["base"]["checksum_failures"] == []

    def test_snapshot_candidates_overlay_the_delta(self, corpus, mutable):
        """Base answers minus shadowed and tombstoned names, plus the
        delta documents that pass the probe — in ``names()`` order."""
        names = sorted(corpus)
        # names[1] is in the base; replace it with a tree that has
        # other terms, so the base directory's entry for it is stale.
        mutable.add(corpus[names[7]], names[1])
        with mutable.snapshot() as snapshot:
            assert names[0] not in snapshot          # tombstoned
            assert snapshot.shard_of(names[1]) == -1  # shadowed
            for term in sorted(set(corpus[names[1]].vocabulary())
                               ^ set(corpus[names[7]].vocabulary())):
                assert snapshot.candidates((term,)) == [
                    name for name in snapshot.names()
                    if snapshot.contains(name, term)]

    def test_remove_unknown_raises(self, mutable):
        with pytest.raises(WALError) as excinfo:
            mutable.remove("no-such-document")
        assert excinfo.value.reason == "unknown-document"

    def test_create_refuses_existing(self, corpus, tmp_path):
        MutableIndex.create(tmp_path / "idx").close()
        with pytest.raises(WALError):
            MutableIndex.create(tmp_path / "idx")

    def test_open_missing_raises(self, tmp_path):
        with pytest.raises(WALError) as excinfo:
            MutableIndex.open(tmp_path / "nothing")
        assert excinfo.value.reason == "missing"


class TestEpochPinning:
    def test_pinned_epoch_survives_commits_and_compaction(
            self, corpus, mutable):
        names = sorted(corpus)
        snapshot = mutable.snapshot()
        pinned_names = snapshot.names()
        try:
            mutable.remove(names[1])
            mutable.compact()
            # The pinned view is frozen: same names, same bytes.
            assert snapshot.names() == pinned_names
            assert_same_document(corpus[names[1]],
                                 snapshot.document(names[1]))
            # The live view moved on.
            assert names[1] not in mutable
        finally:
            snapshot.close()

    def test_gc_reclaims_unpinned_epochs(self, corpus, mutable):
        old_epoch = mutable.epoch
        snapshot = mutable.snapshot()
        names = sorted(corpus)
        mutable.remove(names[2])
        # Pinned: the old epoch is still servable.
        repin = mutable.snapshot(old_epoch)
        assert repin.epoch == old_epoch
        repin.close()
        snapshot.close()
        # Unpinned: another commit GCs it.
        mutable.remove(names[3])
        with pytest.raises(WALError):
            mutable.snapshot(old_epoch)

    def test_last_unpin_releases_a_superseded_view(self, corpus, mutable):
        """The last unpin of a superseded epoch drops its view (the
        files wait for the writer's GC) — and with it the tree of a
        document replaced or removed since.  An unchanged delta
        document does not die with its epoch: the next epoch's view
        carries the same object, under the same token."""
        import weakref
        names = sorted(corpus)
        old_epoch = mutable.epoch
        first, second = mutable.snapshot(), mutable.snapshot()
        kept = first.document(names[5])                 # delta documents
        token = kept.token
        replaced = weakref.ref(first.document(names[6]))
        mutable.add(corpus[names[7]], names[6], commit=False)
        mutable.remove(names[2])                        # commits both
        assert mutable.stats()["published_epochs"] == [old_epoch,
                                                       mutable.epoch]
        first.close()                                   # one pin left
        assert replaced() is not None
        repin = mutable.snapshot(old_epoch)             # still servable
        second.close()
        assert mutable.stats()["published_epochs"] == [old_epoch,
                                                       mutable.epoch]
        repin.close()                                   # the last one
        assert mutable.stats()["published_epochs"] == [mutable.epoch]
        del first, second, repin    # closed handles still name the view
        assert replaced() is None
        with mutable.snapshot() as current:
            assert current.document(names[5]) is kept
            assert current.document(names[5]).token == token
            assert_same_document(corpus[names[7]],
                                 current.document(names[6]))
            assert current.delta.stats()["carried"] == 1
        assert os.path.exists(os.path.join(
            mutable.path, f"manifest.{old_epoch:06d}.json"))
        with pytest.raises(WALError) as excinfo:
            mutable.snapshot(old_epoch)
        assert excinfo.value.reason == "bad-epoch"
        # The current epoch is never dropped by an unpin.
        mutable.snapshot().close()
        assert mutable.stats()["published_epochs"] == [mutable.epoch]

    def test_worker_attach_parity(self, corpus, mutable, tmp_path):
        snapshot = mutable.snapshot()
        worker = attach_snapshot(mutable.path, snapshot.epoch)
        try:
            assert worker.names() == snapshot.names()
            for name in snapshot.names():
                assert_same_document(snapshot.document(name),
                                     worker.document(name))
                assert (worker.shard_of(name)
                        == snapshot.shard_of(name))
        finally:
            worker.close()
            snapshot.close()

    def test_worker_attach_decodes_only_what_it_needs(self, corpus,
                                                      mutable,
                                                      monkeypatch):
        """An attach stops at its epoch's committed prefix: it reads
        the manifest's ``wal_bytes`` and decodes its ``wal_records``,
        not the records later epochs appended."""
        from repro.storage.mutation import wal
        names = sorted(corpus)
        decoded = []
        real = wal.decode_body
        monkeypatch.setattr(
            wal, "decode_body",
            lambda body: decoded.append(len(body)) or real(body))
        with mutable.snapshot() as pinned:      # keeps the epoch's files
            mutable.add(corpus[names[7]], names[7])
            mutable.remove(names[3])
            with attach_snapshot(mutable.path, pinned.epoch) as worker:
                assert len(decoded) == pinned.manifest["wal_records"] == 3
                assert worker.names() == pinned.names()
            wal_path = os.path.join(mutable.path, pinned.manifest["wal"])
            scan = wal.read_records(wal_path, 3,
                                    end=pinned.manifest["wal_bytes"])
            assert scan["file_bytes"] == pinned.manifest["wal_bytes"] \
                < os.path.getsize(wal_path)
            assert len(scan["records"]) == 3 and not scan["torn"]


class TestFsck:
    def test_healthy(self, mutable):
        report = fsck(mutable.path)
        assert report["healthy"]
        assert report["epoch"] == mutable.epoch
        assert report["issues"] == []

    def test_torn_tail_reported_and_repaired(self, corpus, mutable):
        wal_path = os.path.join(mutable.path,
                                mutable.stats()["wal"]["file"])
        with open(wal_path, "ab") as fh:
            fh.write(b"\x99" * 11)  # garbage past the committed prefix
        report = fsck(mutable.path)
        assert not any(i["fatal"] for i in report["issues"])
        assert any(i["kind"] == "wal-torn" for i in report["issues"])
        repaired = fsck(mutable.path, repair=True)
        assert repaired["repairs"]
        assert fsck(mutable.path)["issues"] == []

    def test_missing_current_repointed(self, corpus, tmp_path):
        names = sorted(corpus)
        index = MutableIndex.create(tmp_path / "idx",
                                    {names[0]: corpus[names[0]]})
        epoch = index.epoch
        index.close()
        os.remove(tmp_path / "idx" / "CURRENT")
        assert not fsck(tmp_path / "idx")["healthy"]
        repaired = fsck(tmp_path / "idx", repair=True)
        assert repaired["healthy"]
        assert read_current(tmp_path / "idx") == epoch

    def test_base_corruption_is_fatal(self, corpus, mutable):
        mutable.compact()
        base = mutable.stats()["base"]["path"]
        shard_file = next(entry for entry in sorted(os.listdir(base))
                          if entry.startswith("shard-"))
        target = os.path.join(base, shard_file)
        with open(target, "rb") as fh:
            data = bytearray(fh.read())
        data[-1] ^= 0xFF
        with open(target, "wb") as fh:
            fh.write(data)
        report = fsck(mutable.path)
        assert not report["healthy"]
        assert any(i["fatal"] for i in report["issues"])

    def test_old_base_generation_is_version_skew(self, corpus, tmp_path):
        """A mutable index whose base generation was written in an
        older shard format is refused ("rebuild"), never misread."""
        path = tmp_path / "idx"
        MutableDocumentCollection.create(path, corpus).close()
        manifest_path = path / "gen-0000" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION - 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ShardError) as err:
            MutableDocumentCollection(path)
        assert err.value.reason == "version-skew"
        report = fsck(path)
        assert not report["healthy"]
        assert [(i["kind"], i["fatal"]) for i in report["issues"]] \
            == [("base", True)]


class TestHandleRelease:
    def test_shard_index_close_is_idempotent_and_warning_free(
            self, corpus, tmp_path):
        build_index(corpus, tmp_path / "plain.idx", shards=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = ShardIndex.attach(tmp_path / "plain.idx")
            name = index.names()[0]
            index.document(name)  # materialise through the mmap
            index.close()
            assert index.closed
            index.close()  # second close is a no-op, not an error
            gc.collect()  # no ResourceWarning from leaked handles

    def test_closed_index_refuses_reads(self, corpus, tmp_path):
        build_index(corpus, tmp_path / "plain.idx", shards=2)
        index = ShardIndex.attach(tmp_path / "plain.idx")
        name = index.names()[0]
        index.close()
        with pytest.raises(Exception):
            index.document(name)

    def test_snapshot_close_is_idempotent(self, mutable):
        snapshot = mutable.snapshot()
        snapshot.names()
        snapshot.close()
        snapshot.close()

    def test_mutable_close_is_idempotent(self, corpus, tmp_path):
        index = MutableIndex.create(tmp_path / "idx")
        index.close()
        index.close()
        with pytest.raises(WALError) as excinfo:
            index.add(corpus[sorted(corpus)[0]])
        assert excinfo.value.reason == "closed"
