"""Packed integer lists on flash."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.columns import MAX_ID
from repro.hardware.device import SmartUsbDevice
from repro.storage.intlist import IntListReader, IntListWriter, free_intlist


def write_list(device, values):
    writer = IntListWriter(device, "t")
    writer.extend(values)
    writer.close()
    return writer


def test_roundtrip(device):
    values = list(range(0, 5000, 3))
    writer = write_list(device, values)
    with IntListReader(device, writer.pages, writer.count, "r") as reader:
        assert reader.read_all() == values


def test_empty_list(device):
    writer = write_list(device, [])
    assert writer.pages == []
    with IntListReader(device, [], 0, "r") as reader:
        assert reader.read_all() == []


def test_spans_multiple_pages(device):
    per_page = device.profile.page_size // 4
    values = list(range(per_page * 3 + 7))
    writer = write_list(device, values)
    assert len(writer.pages) == 4
    with IntListReader(device, writer.pages, writer.count, "r") as reader:
        assert reader.read_all() == values


def test_boundary_ids(device):
    writer = write_list(device, [0, 1, MAX_ID])
    with IntListReader(device, writer.pages, writer.count, "r") as reader:
        assert reader.read_all() == [0, 1, MAX_ID]


def test_out_of_range_rejected(device):
    writer = IntListWriter(device, "t")
    with pytest.raises(ValueError):
        writer.append(-1)
    with pytest.raises(ValueError):
        writer.append(MAX_ID + 1)
    writer.close()


def test_closed_writer_rejects(device):
    writer = IntListWriter(device, "t")
    writer.close()
    with pytest.raises(ValueError, match="closed"):
        writer.append(1)


def test_buffers_charged_and_released(device):
    base = device.ram.used
    writer = IntListWriter(device, "t")
    assert device.ram.used == base + device.profile.page_size
    writer.close()
    assert device.ram.used == base
    reader = IntListReader(device, writer.pages, 0, "r")
    assert device.ram.used == base + device.profile.page_size
    reader.close()
    assert device.ram.used == base


def test_free_intlist_releases_flash(device):
    writer = write_list(device, list(range(3000)))
    before = device.ftl.mapped_pages
    free_intlist(device, writer.pages)
    assert device.ftl.mapped_pages == before - len(writer.pages)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, MAX_ID), max_size=2000))
def test_roundtrip_property(values):
    device = SmartUsbDevice()
    writer = write_list(device, values)
    with IntListReader(device, writer.pages, writer.count, "r") as reader:
        assert reader.read_all() == values
