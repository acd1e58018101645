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
"""

from __future__ import annotations

import struct
import zlib

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
