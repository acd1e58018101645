"""Typed columnar batch payloads and the packed-ID layout
(:mod:`repro.columns`).

The two contracts the engine depends on: columns behave as immutable
sequences whose iteration yields built-in ints, and the big-endian byte
layout round-trips exactly -- it is the on-flash / on-wire format.
"""

from repro.columns import (
    ID_STRUCT,
    ID_WIDTH,
    MAX_ID,
    IdColumn,
    chunk_ids,
)


class TestSequenceProtocol:
    def test_from_ids_equals_source(self):
        ids = [7, 0, 4_294_967_295, 12]
        column = IdColumn.from_ids(ids)
        assert len(column) == 4
        assert column == ids
        assert column.tolist() == ids

    def test_iteration_yields_builtin_ints(self):
        column = IdColumn.from_ids([1, 2, 3])
        for value in column:
            assert type(value) is int

    def test_indexing_yields_builtin_ints(self):
        column = IdColumn.from_ids([5, 6, 7])
        assert type(column[1]) is int
        assert column[1] == 6

    def test_slicing_returns_a_column(self):
        column = IdColumn.from_ids(range(10))
        sliced = column[2:5]
        assert isinstance(sliced, IdColumn)
        assert sliced == [2, 3, 4]

    def test_bool_and_repr(self):
        assert not IdColumn.from_ids([])
        column = IdColumn.from_ids(range(10))
        assert column
        assert "n=10" in repr(column)
        assert "..." in repr(column)

    def test_eq_against_tuple_and_column(self):
        column = IdColumn.from_ids([1, 2])
        assert column == (1, 2)
        assert column == IdColumn.from_ids([1, 2])
        assert column != [1, 3]


class TestWireLayout:
    def test_to_be_bytes_is_big_endian(self):
        column = IdColumn.from_ids([1, 0x01020304])
        assert column.to_be_bytes() == (
            b"\x00\x00\x00\x01\x01\x02\x03\x04"
        )

    def test_from_be_bytes_roundtrip(self):
        ids = [0, 1, 255, 65_536, 4_294_967_295]
        raw = IdColumn.from_ids(ids).to_be_bytes()
        assert IdColumn.from_be_bytes(raw, len(ids)) == ids

    def test_from_be_bytes_with_offset(self):
        payload = b"\xff\xff" + IdColumn.from_ids([9, 10]).to_be_bytes()
        column = IdColumn.from_be_bytes(payload, 2, offset=2)
        assert column == [9, 10]

    def test_from_be_bytes_reads_exactly_count(self):
        raw = IdColumn.from_ids([1, 2, 3]).to_be_bytes()
        assert IdColumn.from_be_bytes(raw, 2) == [1, 2]
        assert len(raw) == 3 * ID_WIDTH

    def test_id_struct_is_the_column_layout(self):
        ids = [0, 1, 0x01020304, MAX_ID]
        assert ID_STRUCT.size == ID_WIDTH
        packed = b"".join(ID_STRUCT.pack(v) for v in ids)
        assert packed == IdColumn.from_ids(ids).to_be_bytes()
        assert [v for (v,) in ID_STRUCT.iter_unpack(packed)] == ids


class TestChunkIds:
    def test_rechunks_to_cap(self):
        chunks = list(chunk_ids(iter(range(10)), 4))
        assert [len(c) for c in chunks] == [4, 4, 2]
        assert [list(c) for c in chunks] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]
        ]
        assert all(isinstance(c, IdColumn) for c in chunks)

    def test_closes_the_source_iterator(self):
        closed = []

        def source():
            try:
                yield from range(100)
            finally:
                closed.append(True)

        stream = chunk_ids(source(), 8)
        next(stream)
        stream.close()  # teardown mid-stream must close the source
        assert closed == [True]
