"""Fixed-width record codec."""

import datetime
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.storage.record import RecordCodec
from repro.storage.types import (
    CharType,
    DateType,
    FloatType,
    IntegerType,
    TypeError_,
)


@pytest.fixture
def codec():
    return RecordCodec(
        [IntegerType(), CharType(12), DateType(), FloatType()]
    )


def test_width_is_sum_of_field_widths(codec):
    assert codec.width == 8 + 12 + 4 + 8
    assert codec.arity == 4


def test_roundtrip(codec):
    row = (42, "sclerosis", datetime.date(2006, 11, 5), 27.5)
    assert codec.decode(codec.encode(row)) == row


def test_decode_single_field_without_others(codec):
    row = (42, "purpose", datetime.date(2006, 11, 5), 1.0)
    raw = codec.encode(row)
    assert codec.decode_field(raw, 0) == 42
    assert codec.decode_field(raw, 1) == "purpose"
    assert codec.decode_field(raw, 2) == datetime.date(2006, 11, 5)


def test_field_slice_matches_layout(codec):
    assert codec.field_slice(0) == (0, 8)
    assert codec.field_slice(1) == (8, 12)
    assert codec.field_slice(2) == (20, 4)
    assert codec.field_slice(3) == (24, 8)


def test_field_slice_decodes_standalone(codec):
    row = (7, "x", datetime.date(2000, 1, 1), 2.5)
    raw = codec.encode(row)
    off, width = codec.field_slice(3)
    assert codec.types[3].decode(raw[off : off + width]) == 2.5


def test_wrong_arity_rejected(codec):
    with pytest.raises(TypeError_, match="expects 4"):
        codec.encode((1, "a", datetime.date(2000, 1, 1)))


def test_wrong_length_decode_rejected(codec):
    with pytest.raises(TypeError_, match="does not match codec width"):
        codec.decode(b"\x00" * (codec.width - 1))


def test_empty_codec_rejected():
    with pytest.raises(TypeError_):
        RecordCodec([])


@given(
    st.tuples(
        st.integers(-(2**40), 2**40),
        st.text(
            alphabet=st.characters(codec="ascii", exclude_characters="\x00"),
            max_size=12,
        ),
        st.dates(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
)
def test_roundtrip_property(row):
    codec = RecordCodec(
        [IntegerType(), CharType(12), DateType(), FloatType()]
    )
    assert codec.decode(codec.encode(row)) == row


# ---------------------------------------------------------------------------
# The compiled layout against the per-field codecs
# ---------------------------------------------------------------------------

I64_EDGES = (-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1)
INTEGERS = st.one_of(
    st.sampled_from(I64_EDGES), st.integers(-(2**63), 2**63 - 1)
)
FLOATS = st.one_of(
    st.sampled_from((0.0, -0.0, -1.0, -5e-324, -1.7976931348623157e308)),
    st.floats(allow_nan=False),
)
DATES = st.one_of(
    st.dates(max_value=datetime.date(1969, 12, 31)), st.dates()
)
#: CHAR text with multibyte UTF-8 and no NUL (the pad character).
TEXT = st.text(
    alphabet=st.characters(min_codepoint=1, exclude_categories=("Cs",)),
    min_size=1,
    max_size=8,
)


@st.composite
def typed_rows(draw):
    """``(types, row)``: every type, one CHAR filled to exactly its byte
    length and one padded."""
    exact, padded = draw(TEXT), draw(TEXT)
    types = [
        IntegerType(),
        FloatType(),
        DateType(),
        CharType(len(exact.encode("utf-8"))),
        CharType(len(padded.encode("utf-8")) + draw(st.integers(1, 5))),
        IntegerType(),
    ]
    row = (
        draw(INTEGERS), draw(FLOATS), draw(DATES), exact, padded,
        draw(INTEGERS),
    )
    return types, row


def _same(a, b) -> bool:
    """Equal including the sign of zero."""
    return repr(a) == repr(b)


@given(typed_rows())
def test_layout_matches_per_field_codecs(case):
    types, row = case
    codec = RecordCodec(types)
    raw = codec.encode(row)
    assert raw == b"".join(t.encode(v) for t, v in zip(types, row))
    fields = [
        t.decode(raw[off : off + t.width])
        for t, off in zip(types, (codec.field_slice(i)[0] for i in range(6)))
    ]
    assert _same(codec.decode(raw), tuple(fields))
    assert _same(fields, list(row))
    for i, expected in enumerate(fields):
        assert _same(codec.decode_field(raw, i), expected)
        assert _same(codec.field_decoder(i)(raw), expected)


@pytest.mark.parametrize(
    "dtype, value, message",
    [
        (IntegerType(), True, "INTEGER requires an int, got True"),
        (
            IntegerType(),
            2**63,
            "INTEGER out of 64-bit range: 9223372036854775808",
        ),
        (
            DateType(),
            "2006-11-05",
            "DATE requires a datetime.date, got '2006-11-05'",
        ),
        (CharType(4), "ééé", "string of 3 chars exceeds CHAR(4)"),
    ],
)
def test_invalid_values_raise_the_type_message(dtype, value, message):
    """The record path validates like the type (``struct``'s ``s`` code
    would silently truncate an over-long CHAR)."""
    codec = RecordCodec([IntegerType(), dtype])
    with pytest.raises(TypeError_) as record_error:
        codec.encode((1, value))
    with pytest.raises(TypeError_) as field_error:
        dtype.encode(value)
    assert str(record_error.value) == str(field_error.value) == message


def test_compiled_layout_stays_out_of_the_pickle(codec):
    """Codecs travel with pickled sessions; a ``struct.Struct`` cannot."""
    assert set(codec.__getstate__()) == {"types", "_offsets", "width"}
    copy = pickle.loads(pickle.dumps(codec))
    row = (42, "sclerosis", datetime.date(1961, 3, 5), -0.0)
    assert copy.encode(row) == codec.encode(row)
    assert _same(copy.decode(codec.encode(row)), row)
