"""CRC32 framing for USB messages.

The bus can corrupt, truncate or drop messages (see
:mod:`repro.faults`), so every protocol message is wrapped in a small
frame before it crosses the trust boundary:

``magic (2 B) | payload length (4 B, big-endian) | crc32 (4 B) | payload``

The receiver verifies magic, length and CRC; any mismatch raises
:class:`FrameError` and the link layer retransmits.  The frame carries
no secrets -- it is pure integrity metadata over a payload the spy could
already see, so framing changes nothing about the privacy argument
(the leak checker unwraps frames before its structural checks).

This module also owns the layout of a device->host ``request`` payload:
the link's host endpoint, the spy and the leak checker read requests
through :func:`parse_request`, and the leakage meter through the spy.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.columns import ID_STRUCT, ID_WIDTH

FRAME_MAGIC = b"GF"
_HEADER = struct.Struct(">2sII")

#: Bytes of framing overhead per message.
FRAME_OVERHEAD = _HEADER.size


class FrameError(Exception):
    """A frame failed its magic, length or CRC check (corruption)."""


def frame(payload: bytes) -> bytes:
    """Wrap ``payload`` in a length- and CRC-checked frame."""
    return _HEADER.pack(FRAME_MAGIC, len(payload), zlib.crc32(payload)) + payload


def unframe(data: bytes) -> bytes:
    """Verify and strip the frame; raises :class:`FrameError` on any
    corruption or truncation."""
    if len(data) < _HEADER.size:
        raise FrameError(f"frame of {len(data)} B is shorter than a header")
    magic, length, crc = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameError("bad frame magic")
    payload = data[_HEADER.size :]
    if len(payload) != length:
        raise FrameError(
            f"frame announces {length} B payload, carries {len(payload)} B"
        )
    if zlib.crc32(payload) != crc:
        raise FrameError("frame CRC mismatch")
    return payload


def payload_of(data: bytes) -> bytes:
    """Best-effort payload extraction for observers (spy, leak checker).

    Strips the frame header when one is present -- without verifying the
    CRC, since observers also look at deliberately mangled traffic --
    and returns unframed data untouched.
    """
    if len(data) >= _HEADER.size and data[: len(FRAME_MAGIC)] == FRAME_MAGIC:
        return data[_HEADER.size :]
    return data


class RequestError(ValueError):
    """A request payload that is not one of the protocol's readable
    forms, or whose ID tail disagrees with its bodies."""


def fetch_request(bodies: list[dict], tails: list[bytes]) -> bytes:
    """The payload of one fetch round: the readable JSON list of
    ``fetch_values`` bodies, a newline, then each body's packed IDs in
    body order (``tails[i]`` holds ``bodies[i]["count"]`` IDs)."""
    return json.dumps(bodies).encode("utf-8") + b"\n" + b"".join(tails)


def parse_request(payload: bytes) -> list[tuple[dict, list[int]]]:
    """Split a request payload into its bodies, each with the IDs it names.

    A request is either one JSON object naming no IDs (``select_ids``,
    ``count_ids``), or a fetch round as built by :func:`fetch_request`.
    Raises :class:`RequestError` when the header is not readable JSON,
    when a fetch round is empty or a body lacks a whole ``count``, or
    when the ID tail's length disagrees with the counts.  Checking op
    names and columns is left to the caller.
    """
    header, newline, tail = payload.partition(b"\n")
    try:
        parsed = json.loads(header.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"header is not readable JSON ({exc})") from None
    if isinstance(parsed, dict) and not newline:
        return [(parsed, [])]
    if (
        not isinstance(parsed, list)
        or not parsed
        or not all(isinstance(body, dict) for body in parsed)
    ):
        raise RequestError(
            "header is neither one request object nor a list of bodies"
        )
    counts = [body.get("count") for body in parsed]
    if not all(type(count) is int and count >= 0 for count in counts):
        raise RequestError("a fetch body lacks a whole 'count'")
    if len(tail) != ID_WIDTH * sum(counts):
        raise RequestError(
            f"ID tail of {len(tail)} B disagrees with the bodies' counts "
            f"({sum(counts)} IDs)"
        )
    ids = [value for (value,) in ID_STRUCT.iter_unpack(tail)]
    out = []
    start = 0
    for body, count in zip(parsed, counts):
        out.append((body, ids[start : start + count]))
        start += count
    return out
