"""Atomic document writes: a failed write never tears the previous file."""

from __future__ import annotations

import json

import pytest

from repro import docio


def test_write_json_matches_the_document_layout(tmp_path):
    path = tmp_path / "DOC.json"
    docio.write_json(str(path), {"b": 1, "a": [1, 2]})
    assert path.read_text() == json.dumps(
        {"a": [1, 2], "b": 1}, indent=2, sort_keys=True
    ) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["DOC.json"]


def test_failed_write_keeps_previous_file_and_leaves_no_temp(
    tmp_path, monkeypatch
):
    path = tmp_path / "DOC.json"
    docio.write_json(str(path), {"version": 1})
    before = path.read_bytes()

    real_dump = json.dump

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"version": 2, "trunc')  # bytes reach the temp file
        raise RuntimeError("disk full")

    monkeypatch.setattr(docio.json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        docio.write_json(str(path), {"version": 2})
    monkeypatch.setattr(docio.json, "dump", real_dump)

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["DOC.json"]
