"""Kill-point matrix: crash the commit protocol at every fsync/rename
boundary and prove recovery lands on exactly the old or the new epoch.

The commit protocol is WAL fsync → manifest publish (tmp + fsync +
rename + dir-fsync) → ``CURRENT`` flip (same dance).  The ``CURRENT``
rename is the linearisation point: a crash anywhere before it must
recover to the *old* epoch with the write rolled back; a crash there
or later must recover to the *new* epoch with the write visible.
There is no third outcome — no torn epoch, no partially visible
document, and ``fsck --repair`` leaves every crashed directory
healthy.

Each case arms a :class:`~repro.exec.faults.CrashPlan` at one of the
20 points (10 commit points, each with a ``before-`` variant), drives
an ``add`` into the injected :class:`CommitCrash`, abandons the
crashed writer exactly as a power cut would, reopens un-faulted and
checks the invariant.  Torn variants write only a prefix of the
record/manifest/pointer bytes before crashing.
"""

from __future__ import annotations

import pytest

from repro.errors import WALError
from repro.exec.faults import COMMIT_POINTS, CommitCrash, CrashPlan
from repro.storage.mutation import MutableIndex, fsck
from repro.workloads.inexlike import InexSpec, generate_collection

#: Crash points at or after the CURRENT rename: the flip hit the disk,
#: so recovery must surface the NEW epoch.  Everything earlier must
#: roll back to the OLD one.
NEW_EPOCH_POINTS = frozenset({
    "current-rename", "before-current-dir-fsync", "current-dir-fsync",
})

ALL_POINTS = [p for point in COMMIT_POINTS
              for p in (f"before-{point}", point)]


@pytest.fixture(scope="module")
def corpus():
    collection = generate_collection(InexSpec(articles=4, seed=31))
    return {name: collection.document(name)
            for name in collection.names()}


@pytest.fixture()
def crashed_dir(corpus, tmp_path):
    """A committed two-document index directory, created un-faulted."""
    names = sorted(corpus)
    MutableIndex.create(tmp_path / "idx",
                        {n: corpus[n] for n in names[:2]},
                        shards=2).close()
    return tmp_path / "idx"


def crash_one_add(path, corpus, plan):
    """Open ``path`` under ``plan``, add a document into the crash.

    Returns the epoch the directory was at before the doomed write.
    The writer handle is abandoned (only its file descriptors are
    released) exactly as a power cut would leave it.
    """
    names = sorted(corpus)
    index = MutableIndex.open(path, faults=plan)
    old_epoch = index.epoch
    with pytest.raises(CommitCrash) as excinfo:
        index.add(corpus[names[2]], "incoming")
    assert excinfo.value.point == plan.point
    assert plan.fired == 1
    index.close()
    plan.disarm()
    return old_epoch


def assert_recovers_atomically(path, corpus, old_epoch, expect_new):
    """The core invariant: exactly old or exactly new, never partial."""
    names = sorted(corpus)
    recovered = MutableIndex.open(path)
    try:
        if expect_new:
            assert recovered.epoch == old_epoch + 1
            assert "incoming" in recovered
            doc = recovered.snapshot()
            try:
                restored = doc.document("incoming")
                expected = corpus[names[2]]
                assert restored.size == expected.size
                assert [restored.tag(n) for n in range(restored.size)] \
                    == [expected.tag(n) for n in range(expected.size)]
            finally:
                doc.close()
        else:
            assert recovered.epoch == old_epoch
            assert "incoming" not in recovered
        assert set(recovered.names()) >= set(names[:2])
        # The recovered writer must be fully writable again.
        recovered.add(corpus[names[3]], "post-crash")
        assert "post-crash" in recovered
    finally:
        recovered.close()
    report = fsck(path, repair=True)
    assert report["healthy"], report["issues"]
    assert fsck(path)["healthy"]


@pytest.mark.timeout(120)
@pytest.mark.parametrize("point", ALL_POINTS)
def test_crash_at_every_commit_point(corpus, crashed_dir, point):
    plan = CrashPlan(point)
    old_epoch = crash_one_add(crashed_dir, corpus, plan)
    assert_recovers_atomically(crashed_dir, corpus, old_epoch,
                               expect_new=point in NEW_EPOCH_POINTS)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("point,torn_bytes", [
    ("wal-write", 0), ("wal-write", 7),
    ("manifest-write", 0), ("manifest-write", 5),
    ("current-write", 0), ("current-write", 3),
])
def test_torn_write_rolls_back(corpus, crashed_dir, point, torn_bytes):
    plan = CrashPlan(point, torn_bytes=torn_bytes)
    old_epoch = crash_one_add(crashed_dir, corpus, plan)
    if point == "wal-write" and torn_bytes:
        # The torn tail is physically on disk until recovery cuts it.
        scratch = MutableIndex.open(crashed_dir)
        assert scratch.recovery["wal_bytes_discarded"] == torn_bytes
        assert scratch.recovery["wal_torn"]
        scratch.close()
    assert_recovers_atomically(crashed_dir, corpus, old_epoch,
                               expect_new=False)


@pytest.mark.timeout(120)
def test_double_crash_then_recover(corpus, crashed_dir):
    """Crash twice at different points; recovery still converges."""
    old = crash_one_add(crashed_dir, corpus,
                        CrashPlan("manifest-rename"))
    reopened = MutableIndex.open(crashed_dir)
    try:
        assert reopened.epoch == old
    finally:
        reopened.close()
    again = crash_one_add(crashed_dir, corpus,
                          CrashPlan("before-current-rename"))
    assert again == old
    assert_recovers_atomically(crashed_dir, corpus, old,
                               expect_new=False)


@pytest.mark.timeout(120)
def test_crash_then_new_epoch_is_exact(corpus, crashed_dir):
    """A crash that lands the flip leaves no leftover WAL excess."""
    old = crash_one_add(crashed_dir, corpus,
                        CrashPlan("current-dir-fsync"))
    recovered = MutableIndex.open(crashed_dir)
    try:
        assert recovered.epoch == old + 1
        assert recovered.pending_records == 0
        assert recovered.recovery["wal_records_replayed"] == 1
        assert recovered.recovery["wal_bytes_discarded"] == 0
    finally:
        recovered.close()


def test_crash_plan_rejects_unknown_points():
    with pytest.raises(ValueError):
        CrashPlan("current-flip")
    with pytest.raises(ValueError):
        CrashPlan("before-nothing")


def test_unfaulted_open_has_no_crash_surface(corpus, crashed_dir):
    """A disarmed plan never fires — the same path runs clean."""
    plan = CrashPlan("current-rename")
    plan.disarm()
    index = MutableIndex.open(crashed_dir, faults=plan)
    try:
        index.add(corpus[sorted(corpus)[2]], "incoming")
        assert plan.fired == 0
        assert "incoming" in index
    finally:
        index.close()
