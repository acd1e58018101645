"""Session persistence: unplug the key, plug it back in later.

A GhostDB session is a pair of state machines -- the device's flash
image (plus its FTL map and wear counters) and the visible site's store.
Persisting both lets a program close and reopen the "key" with every
byte, index and erase-count intact, which is how the physical artifact
behaves.

The on-disk format is a version-tagged, checksummed pickle of the
session object, written crash-safely:

* the payload is pickled in memory first, then written to a temporary
  file in the target directory, flushed and fsynced, and atomically
  renamed over the destination (:func:`repro.obs.vetted.write_atomic`,
  which every exported artifact shares) -- a crash mid-save leaves
  either the old file or the new one, never a torn mix;
* the header carries the payload length and a CRC32, both verified on
  load *before* any unpickling, so a truncated or bit-flipped file
  raises :class:`PersistenceError` instead of feeding garbage to pickle.

That is appropriate here because the file *is* the device: on real
hardware the flash image lives inside the tamper-resistant chip and
never leaves it; in the simulation, the file inherits whatever
protection the host gives it.  Do not load session files from untrusted
sources (standard pickle caveat -- the CRC detects corruption, not
malice).
"""

from __future__ import annotations

import pickle
import zlib

from repro.obs.log import get_logger
from repro.obs.vetted import write_atomic

log = get_logger(__name__)

MAGIC = b"GHOSTDB-SESSION"
#: v12: a lease keeps an account of what the device counted while it
#: was active.  v11 (a lease with a private clock and swapped flash and
#: USB counters), v10 (an un-leased console on the raw device), v9
#: (a static fan-in and no link: its cost model cannot price a plan), v8
#: (a copied Bloom target), v7 (no settlers: those families would stop
#: moving), v6 (page lists and posting files), v5 (float-second clock)
#: and earlier layouts are refused.
VERSION = 12

#: Header after MAGIC: version (2 B) + payload length (8 B) + CRC32 (4 B).
_LEN_BYTES = 8
_CRC_BYTES = 4


class PersistenceError(RuntimeError):
    """The file is not a loadable GhostDB session."""


def save_session(session, path: str) -> None:
    """Write the whole session (device + visible site) to ``path``."""
    from repro.core.ghostdb import GhostDB

    if not isinstance(session, GhostDB):
        raise PersistenceError("only GhostDB sessions can be saved")
    payload = pickle.dumps(session, protocol=pickle.HIGHEST_PROTOCOL)
    header = (
        MAGIC
        + VERSION.to_bytes(2, "big")
        + len(payload).to_bytes(_LEN_BYTES, "big")
        + zlib.crc32(payload).to_bytes(_CRC_BYTES, "big")
    )
    write_atomic(path, header + payload, prefix=".ghostdb-session-")
    log.info("saved session to %s (%d B payload)", path, len(payload))


def load_session(path: str):
    """Reopen a session saved by :func:`save_session`.

    The header's length and CRC are verified before unpickling; any
    mismatch (truncation, bit rot) raises :class:`PersistenceError`.
    """
    from repro.core.ghostdb import GhostDB

    with open(path, "rb") as f:
        magic = f.read(len(MAGIC))
        if magic != MAGIC:
            raise PersistenceError(
                f"{path!r} is not a GhostDB session file"
            )
        version = int.from_bytes(f.read(2), "big")
        if version != VERSION:
            raise PersistenceError(
                f"unsupported session format version {version}"
            )
        length_raw = f.read(_LEN_BYTES)
        crc_raw = f.read(_CRC_BYTES)
        if len(length_raw) != _LEN_BYTES or len(crc_raw) != _CRC_BYTES:
            raise PersistenceError(f"{path!r} is truncated (header)")
        length = int.from_bytes(length_raw, "big")
        crc = int.from_bytes(crc_raw, "big")
        payload = f.read(length + 1)
        if len(payload) != length:
            raise PersistenceError(
                f"{path!r} is truncated or padded: header announces "
                f"{length} B, file holds {len(payload)}"
            )
        if zlib.crc32(payload) != crc:
            raise PersistenceError(
                f"{path!r} failed its checksum; the file is corrupted"
            )
        session = pickle.loads(payload)
    if not isinstance(session, GhostDB):
        raise PersistenceError("file did not contain a GhostDB session")
    log.info("loaded session from %s", path)
    return session
