"""Vetted artifacts: the one path an exported JSON artifact takes.

BENCH, LEAK, SOAK and DUMP files and the shell's leakage scorecard are
observable execution artefacts.  ObliDB's threat model (see PAPERS.md)
treats every such artefact as visible to the adversary, so all of them
share one serializer, one writer and one loader:

* :func:`serialize` gates the artifact through a default-deny
  :class:`~repro.obs.redact.Redactor`.  Dict keys (authored by this
  code base), the caller's structural values and string values under
  the caller's signature keys (hex CRCs of traffic *shape*, never data)
  pass; any other string token scrubs to ``?`` and shows up in review
  instead of leaking.  The result is canonical JSON.
* :func:`write_atomic` puts bytes on disk through a temporary file,
  fsync and an atomic rename, so a crash leaves the old file or the new
  one, never a torn mix.  Session files use it too.
* :func:`load` reads an artifact back, refusing foreign kinds and other
  schema versions.

Callers that hold the raw dataset (bench, leakmeter, soak, the shell)
also feed the serialized bytes to the adversarial
:class:`~repro.privacy.leakcheck.LeakChecker` before anything is
written.
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.obs.redact import Redactor

#: Keys whose string values are shape-derived hex signatures computed by
#: :mod:`repro.privacy.meter`, never data.
SIGNATURE_KEYS = frozenset(
    {"leak_request_signature", "request_signature", "signatures"}
)


def serialize(
    artifact: dict,
    redactor: Redactor | None = None,
    structural=(),
    signature_keys=frozenset(),
) -> bytes:
    """Gate ``artifact`` through redaction and serialize it.

    A fresh default-deny :class:`Redactor` is used unless one is given
    (sessions pass their own, which already knows the schema
    vocabulary: table and column *names* are part of the accepted
    revelation; values never are).
    """
    redactor = redactor or Redactor()
    redactor.allow(*structural)

    def allow_keys(value, parent_key: str = "") -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                redactor.allow(str(key))
                allow_keys(sub, str(key))
        elif isinstance(value, (list, tuple)):
            for sub in value:
                allow_keys(sub, parent_key)
        elif isinstance(value, str) and parent_key in signature_keys:
            redactor.allow(value)

    allow_keys(artifact)
    scrubbed = redactor.value(artifact)
    text = json.dumps(scrubbed, indent=2, sort_keys=True) + "\n"
    return text.encode("utf-8")


def write_atomic(
    path: str, data: bytes, prefix: str = ".ghostdb-artifact-"
) -> None:
    """Write ``data`` to ``path`` crash-safely, creating its directory.

    The bytes go to a temporary file next to ``path``, are flushed and
    fsynced, and the file is renamed over the destination.  On any
    failure the temporary file is removed and the destination keeps its
    previous contents.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def load(path: str, kind: str, version: int, noun: str = "artifact") -> dict:
    """Read one artifact back, refusing foreign or future JSON."""
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if not isinstance(artifact, dict) or artifact.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} {noun}")
    found = artifact.get("schema_version")
    if found != version:
        raise ValueError(
            f"{path}: {noun} schema_version {found!r}, "
            f"this tool speaks {version}"
        )
    return artifact
