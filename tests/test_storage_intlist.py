"""ID extents: sorted 32-bit IDs packed as 4-byte records on flash."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import ID_WIDTH, MAX_ID
from repro.hardware.device import SmartUsbDevice
from repro.storage.pagestore import ExtentFreedError, PageReader, PageWriter


def write_list(device, values):
    with PageWriter(device, ID_WIDTH, "t") as writer:
        writer.append_ids(values)
    return writer.extent


def read_all(device, extent):
    with PageReader(device, extent, "r") as reader:
        return list(reader.ids(0, extent.count))


def test_roundtrip(device):
    values = list(range(0, 5000, 3))
    extent = write_list(device, values)
    assert extent.count == len(values)
    assert read_all(device, extent) == values


def test_empty_list(device):
    extent = write_list(device, [])
    assert extent.pages == [] and extent.count == 0
    assert read_all(device, extent) == []


def test_spans_multiple_pages(device):
    per_page = device.profile.page_size // 4
    values = list(range(per_page * 3 + 7))
    extent = write_list(device, values)
    assert len(extent.pages) == 4
    assert read_all(device, extent) == values


def test_boundary_ids(device):
    extent = write_list(device, [0, 1, MAX_ID])
    assert read_all(device, extent) == [0, 1, MAX_ID]


def test_out_of_range_rejected(device):
    with PageWriter(device, ID_WIDTH, "t") as writer:
        with pytest.raises(ValueError, match="32-bit"):
            writer.append_ids([-1])
        with pytest.raises(ValueError, match="32-bit"):
            writer.append_ids([MAX_ID + 1])
    assert writer.extent.count == 0


def test_closed_writer_rejects(device):
    writer = PageWriter(device, ID_WIDTH, "t")
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.append_ids([1])


def test_ids_need_an_id_extent(device):
    with PageWriter(device, 8, "t") as writer:
        with pytest.raises(ValueError, match="does not hold IDs"):
            writer.append_ids([1])


def test_buffers_charged_and_released(device):
    base = device.ram.used
    writer = PageWriter(device, ID_WIDTH, "t")
    assert device.ram.used == base + device.profile.page_size
    extent = writer.close()
    assert device.ram.used == base
    reader = PageReader(device, extent, "r")
    assert device.ram.used == base + device.profile.page_size
    reader.close()
    assert device.ram.used == base


def test_free_releases_flash(device):
    extent = write_list(device, list(range(3000)))
    pages = len(extent.pages)
    before = device.ftl.mapped_pages
    extent.free(device.ftl)
    assert device.ftl.mapped_pages == before - pages
    assert extent.pages == [] and extent.freed
    # A reader still holding the handle fails loudly, never reads short.
    with pytest.raises(ExtentFreedError):
        read_all(device, extent)
    with pytest.raises(ExtentFreedError):
        extent.read_id(device.ftl, 0)


def test_sparse_pk_probe_holds_no_buffer(device):
    """A PK-array probe is one single-ID partial read, no reader RAM."""
    extent = write_list(device, [10, 20, 30])
    used = device.ram.used
    before = device.flash.stats.snapshot()
    assert extent.read_id(device.ftl, 1) == 20
    assert device.ram.used == used
    assert device.flash.stats.page_reads_partial == (
        before.page_reads_partial + 1
    )
    with pytest.raises(IndexError):
        extent.read_id(device.ftl, 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, MAX_ID), max_size=2000))
def test_roundtrip_property(values):
    device = SmartUsbDevice()
    extent = write_list(device, values)
    assert read_all(device, extent) == values
    with PageReader(device, extent, "r") as reader:
        scanned = [int.from_bytes(raw, "big") for raw in reader.scan()]
    assert scanned == values
