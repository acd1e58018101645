"""Session persistence: save, unplug, replug."""

import re
from pathlib import Path

import pytest

from repro.core.ghostdb import GhostDB
from repro.core.persistence import PersistenceError, load_session
from repro.reference import same_rows
from repro.workload.queries import demo_query


@pytest.fixture
def saved_path(fresh_session, tmp_path):
    path = tmp_path / "device.ghostdb"
    fresh_session.save(str(path))
    return fresh_session, str(path)


def test_round_trip_preserves_results(saved_path):
    original, path = saved_path
    restored = GhostDB.restore(path)
    a = original.query(demo_query())
    b = restored.query(demo_query())
    assert same_rows(a.rows, b.rows)
    assert a.columns == b.columns


def test_round_trip_preserves_simulated_costs(saved_path):
    """The restored device has identical storage layout, so identical
    simulated costs."""
    original, path = saved_path
    restored = GhostDB.restore(path)
    original.reset_measurements()
    restored.reset_measurements()
    a = original.query(demo_query())
    b = restored.query(demo_query())
    assert a.metrics.flash_page_reads == b.metrics.flash_page_reads
    assert a.metrics.elapsed_seconds == pytest.approx(
        b.metrics.elapsed_seconds
    )


def test_round_trip_after_queries_rebuilds_warm_caches(fresh_session, tmp_path):
    """A session saved after queries -- visible-site indexes built,
    scrub memo full -- leaves both derived caches out of the file and
    answers identically once they are rebuilt on first use."""
    sqls = [
        demo_query(),
        "SELECT Name FROM Doctor WHERE Country = 'France'",
        "SELECT Date FROM Visit WHERE Date > 2006-06-01",
    ]
    before = [fresh_session.query(sql).rows for sql in sqls]
    assert any(t.indexes for t in fresh_session.site._tables.values())
    assert fresh_session.obs.redactor._memo
    path = str(tmp_path / "warm.ghostdb")
    fresh_session.save(path)
    restored = GhostDB.restore(path)
    assert all(not t.indexes for t in restored.site._tables.values())
    assert restored.obs.redactor._memo == {}
    fresh_session.reset_measurements()
    restored.reset_measurements()
    for sql, rows in zip(sqls, before):
        a, b = fresh_session.query(sql), restored.query(sql)
        assert a.rows == b.rows == rows
        assert a.metrics.elapsed_seconds == b.metrics.elapsed_seconds
    assert [r.payload for r in fresh_session.usb_log] == [
        r.payload for r in restored.usb_log
    ]


def test_round_trip_after_queries_decodes_skts_and_counts_reads(
    fresh_session, tmp_path
):
    """SKT records decode through a per-arity ``struct.Struct`` that
    stays out of the file (a Struct cannot be pickled), and the flash
    and buffer-pool tallies settle through the pickled registry: a
    session saved after queries answers with the same rows and keeps
    its read families moving."""
    sqls = [
        demo_query(),
        "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre "
        "WHERE Pre.Quantity <> 3 AND Pre.PreID < 300",
        "SELECT Vis.Purpose, COUNT(*), SUM(Pre.Quantity) "
        "FROM Prescription Pre, Visit Vis WHERE Vis.VisID = Pre.VisID "
        "AND Vis.Date BETWEEN DATE '2006-01-14' AND DATE '2007-01-13' "
        "GROUP BY Vis.Purpose",
    ]
    before = [fresh_session.query(sql).rows for sql in sqls]
    path = str(tmp_path / "skt.ghostdb")
    fresh_session.save(path)
    restored = GhostDB.restore(path)
    restored.reset_measurements()
    assert [restored.query(sql).rows for sql in sqls] == before
    text = restored.metrics_text()
    for sample in (
        r'ghostdb_device_flash_reads_total\{kind="partial"\}',
        "ghostdb_cache_misses_total",
    ):
        value = re.search(rf"^{sample} (\d+)$", text, re.MULTILINE)
        assert value and int(value[1]) > 0, sample


def test_wear_counters_survive(fresh_session, tmp_path, demo_data):
    next_doc = len(demo_data["doctor"]) + 1
    for i in range(5):
        fresh_session.append(
            "doctor",
            [(next_doc + i, f"Dr {i}", "General", 10000, "France")],
        )
    writes = fresh_session.device.ftl.stats.logical_writes
    path = tmp_path / "worn.ghostdb"
    fresh_session.save(str(path))
    restored = GhostDB.restore(str(path))
    assert restored.device.ftl.stats.logical_writes == writes


def test_restored_session_accepts_appends(saved_path, demo_data):
    _original, path = saved_path
    restored = GhostDB.restore(path)
    next_med = len(demo_data["medicine"]) + 1
    restored.append(
        "medicine", [(next_med, "PostRestore", "None", "Panacea")]
    )
    result = restored.query(
        "SELECT Name FROM Medicine WHERE Type = 'Panacea'"
    )
    assert result.rows == [("PostRestore",)]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"not a session at all")
    with pytest.raises(PersistenceError, match="not a GhostDB session"):
        load_session(str(path))


def test_wrong_version_rejected(tmp_path):
    from repro.core.persistence import MAGIC

    path = tmp_path / "future.bin"
    path.write_bytes(MAGIC + (99).to_bytes(2, "big") + b"x")
    with pytest.raises(PersistenceError, match="version"):
        load_session(str(path))


@pytest.mark.parametrize("version", [3, 4, 5, 6, 7, 8, 9, 10, 11])
def test_v3_file_refused(saved_path, version):
    """A v3 file pickles a tracer without a window or running count, a
    v4 file a facade wrapping a separate default session, a v5 file a
    float-second clock, a v6 file page lists and posting files instead
    of extents, a v7 file a registry with no settler for the flash's
    and the buffer pool's tallies, a v8 file a cost model with a copied
    Bloom target, a v9 file a cost model with no link to read batch
    sizes from, a v10 file an un-leased console on the raw device and
    a v11 file a lease with a private clock and swapped flash and USB
    counters; all must be refused, not restored into one that fails
    (or stops counting) on first use."""
    from repro.core.persistence import MAGIC

    _original, path = saved_path
    blob = bytearray(Path(path).read_bytes())
    blob[len(MAGIC):len(MAGIC) + 2] = version.to_bytes(2, "big")
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(PersistenceError, match=f"version {version}"):
        load_session(path)


def test_truncated_file_rejected_before_unpickling(saved_path):
    _original, path = saved_path
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob[: len(blob) - 64])
    with pytest.raises(PersistenceError, match="truncated"):
        load_session(path)


def test_truncated_header_rejected(saved_path):
    from repro.core.persistence import MAGIC, VERSION

    _original, path = saved_path
    Path(path).write_bytes(MAGIC + VERSION.to_bytes(2, "big") + b"\x00\x03")
    with pytest.raises(PersistenceError, match="header"):
        load_session(path)


def test_bit_flip_fails_checksum(saved_path):
    _original, path = saved_path
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0x40  # one flipped bit mid-payload
    Path(path).write_bytes(bytes(blob))
    with pytest.raises(PersistenceError, match="checksum"):
        load_session(path)


def test_trailing_garbage_rejected(saved_path):
    _original, path = saved_path
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(PersistenceError, match="truncated or padded"):
        load_session(path)


def test_failed_save_leaves_previous_file_intact(saved_path):
    """The temp-file + atomic-rename discipline: a save that dies must
    not clobber (or leave droppings next to) the committed file."""
    import os

    original, path = saved_path
    before = Path(path).read_bytes()
    with pytest.raises(PersistenceError):
        # Not a GhostDB session: save refuses before touching the path.
        from repro.core.persistence import save_session

        save_session(object(), path)
    assert Path(path).read_bytes() == before
    droppings = [
        name for name in os.listdir(os.path.dirname(path))
        if name.startswith(".ghostdb-session-")
    ]
    assert droppings == []
    restored = GhostDB.restore(path)
    assert same_rows(
        restored.query(demo_query()).rows, original.query(demo_query()).rows
    )
