"""The shared vetted-artifact writer every exported artifact uses."""

import os

import pytest

from repro.obs.vetted import write_atomic


def test_failed_rename_keeps_old_bytes_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "DUMP_1.json"
    path.write_bytes(b"committed")

    def crash(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="simulated crash"):
        write_atomic(str(path), b"half-written replacement")
    assert path.read_bytes() == b"committed"
    assert os.listdir(tmp_path) == ["DUMP_1.json"]
