"""Record-granular page I/O, RAM-charged buffers, read strategies and
the writer's abort rule."""

import pytest

from repro.hardware.flash import FlashError
from repro.hardware.ftl import DeviceReadOnlyError
from repro.hardware.ram import RamExhaustedError
from repro.storage.pagestore import ExtentFreedError, PageReader, PageWriter


def write_records(device, count, width=16):
    with PageWriter(device, width, "test") as writer:
        for i in range(count):
            writer.append(i.to_bytes(4, "big") * (width // 4))
    return writer.extent


def test_write_then_random_read(device):
    extent = write_records(device, 100)
    with PageReader(device, extent, "r") as reader:
        assert reader.record(0)[:4] == (0).to_bytes(4, "big")
        assert reader.record(99)[:4] == (99).to_bytes(4, "big")


def test_scan_returns_all_records_in_order(device):
    extent = write_records(device, 500)
    with PageReader(device, extent, "r") as reader:
        values = [int.from_bytes(raw[:4], "big") for raw in reader.scan()]
    assert values == list(range(500))


def test_scan_range(device):
    extent = write_records(device, 300)
    with PageReader(device, extent, "r") as reader:
        values = [
            int.from_bytes(raw[:4], "big") for raw in reader.scan(100, 110)
        ]
    assert values == list(range(100, 110))


def test_records_never_span_pages(device):
    """A width that does not divide the page leaves tail waste; records
    stay whole."""
    width = 600  # 2048 // 600 = 3 per page
    with PageWriter(device, width, "w") as writer:
        for i in range(7):
            writer.append(bytes([i]) * width)
    assert len(writer.extent.pages) == 3  # 3 + 3 + 1
    with PageReader(device, writer.extent, "r") as reader:
        assert reader.record(3) == bytes([3]) * width
        assert reader.record(6) == bytes([6]) * width


def test_record_uses_partial_read(device):
    extent = write_records(device, 100)
    with PageReader(device, extent, "r") as reader:
        before = device.flash.stats.snapshot()
        reader.record(50)
        after = device.flash.stats
        assert after.page_reads_partial == before.page_reads_partial + 1
        assert after.page_reads_full == before.page_reads_full


def test_record_cached_amortises_full_reads(device):
    extent = write_records(device, 256)  # 128 records per page
    with PageReader(device, extent, "r") as reader:
        record = reader.field_reader(0, extent.record_width, full_page=True)
        before = device.flash.stats.snapshot()
        for rowid in range(0, 100):
            assert record(rowid) == reader.record(rowid)
        after = device.flash.stats
        # 100 hits on the same page: one full read total (the partial
        # ``record`` reads are served from the pooled page).
        assert after.page_reads_full == before.page_reads_full + 1
        assert after.page_reads_partial == before.page_reads_partial


def test_field_reads_only_the_slice(device):
    extent = write_records(device, 10)
    with PageReader(device, extent, "r") as reader:
        assert reader.field(3, 0, 4) == (3).to_bytes(4, "big")
        assert reader.field_reader(4, 4, full_page=True)(3) == (
            (3).to_bytes(4, "big")
        )


def test_field_reader_makes_one_read_per_call(device):
    """The partial route is one partial read a call, like ``field``;
    the layout is resolved once, the range and freed checks are not."""
    extent = write_records(device, 300)
    with PageReader(device, extent, "r") as reader:
        second = reader.field_reader(4, 4)
        before = device.flash.stats.snapshot()
        assert [second(rowid) for rowid in (0, 150, 299)] == [
            reader.field(rowid, 4, 4) for rowid in (0, 150, 299)
        ]
        after = device.flash.stats
        assert after.page_reads_partial == before.page_reads_partial + 6
        assert after.page_reads_full == before.page_reads_full
        with pytest.raises(IndexError):
            second(300)
        extent.free(device.ftl)
        with pytest.raises(ExtentFreedError):
            second(0)


def test_buffers_are_ram_charged(device):
    used_before = device.ram.used
    writer = PageWriter(device, 16, "w")
    assert device.ram.used == used_before + device.profile.page_size
    writer.close()
    assert device.ram.used == used_before


def test_reader_buffer_released_on_close(device):
    extent = write_records(device, 10)
    used_before = device.ram.used
    reader = PageReader(device, extent, "r")
    assert device.ram.used > used_before
    reader.close()
    assert device.ram.used == used_before


def test_no_ram_left_means_no_reader(device):
    extent = write_records(device, 10)
    hog = device.ram.allocate(device.ram.available, "hog")
    with pytest.raises(RamExhaustedError):
        PageReader(device, extent, "r")
    hog.release()


def test_out_of_range_rowid_rejected(device):
    extent = write_records(device, 10)
    with PageReader(device, extent, "r") as reader:
        with pytest.raises(IndexError):
            reader.record(10)
        with pytest.raises(IndexError):
            reader.record(-1)


def test_record_wider_than_page_rejected(device):
    used_before = device.ram.used
    with pytest.raises(FlashError, match="exceeds"):
        PageWriter(device, device.profile.page_size + 1, "w")
    with pytest.raises(ValueError, match="positive"):
        PageWriter(device, 0, "w")
    assert device.ram.used == used_before


def test_wrong_width_append_rejected(device):
    writer = PageWriter(device, 16, "w")
    with pytest.raises(ValueError, match="does not match declared width"):
        writer.append(b"short")
    writer.close()


def test_closed_writer_rejects_appends(device):
    writer = PageWriter(device, 16, "w")
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.append(b"x" * 16)


def test_free_pages_returns_extent_to_ftl(device):
    extent = write_records(device, 500)
    pages = len(extent.pages)
    mapped_before = device.ftl.mapped_pages
    extent.free(device.ftl)
    assert device.ftl.mapped_pages == mapped_before - pages
    extent.free(device.ftl)  # the handle holds no pages: nothing more to free
    assert device.ftl.mapped_pages == mapped_before - pages


class TestAbortRule:
    """An exception inside the writer's block drops the tail with no
    flash I/O, frees the flushed pages and releases the RAM page."""

    def test_exception_drops_tail_and_frees_pages(self, device):
        per_page = device.profile.page_size // 16
        with pytest.raises(RuntimeError):
            with PageWriter(device, 16, "w") as writer:
                for i in range(per_page + 5):
                    writer.append(i.to_bytes(16, "big"))
                assert device.flash.stats.page_writes == 1
                raise RuntimeError("statement failed")
        assert device.flash.stats.page_writes == 1
        assert device.ftl.mapped_pages == 0
        assert device.ram.used == 0
        assert writer.extent.pages == []

    def test_failed_final_flush_still_releases_ram(self, device, monkeypatch):
        per_page = device.profile.page_size // 16
        writes = []

        def refuse_second(lpage, data):
            writes.append(lpage)
            if len(writes) == 2:
                raise DeviceReadOnlyError("refused")
            return real(lpage, data)

        real = device.ftl.write
        monkeypatch.setattr(device.ftl, "write", refuse_second)
        with pytest.raises(DeviceReadOnlyError):
            with PageWriter(device, 16, "w") as writer:
                for i in range(per_page + 5):
                    writer.append(i.to_bytes(16, "big"))
        assert len(writes) == 2  # the tail flush raised; nothing after it
        assert device.ram.used == 0
        assert device.ftl.mapped_pages == 0
        with pytest.raises(ValueError, match="closed"):
            writer.append(b"x" * 16)
