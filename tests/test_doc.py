"""The document layer: one contract for every kind, and atomic writes.

Every persisted kind (BENCH, PERF, FLEET, SLO, REPLAY) must round-trip
through ``save``/``load``, validate when freshly built, and refuse a
foreign schema, a tampered fingerprint, a non-object and an empty file
with a ``ValueError`` that names the file.  A text or JSON write that
fails midway never tears the previous file and leaves no temp behind.
"""

from __future__ import annotations

import glob
import json
import os
import re

import pytest

from repro import cli, doc
from repro.fleet import FleetConfig, run_fleet
from repro.obs.slo import SloPlane, SloSpec
from repro.obs.slo import build_document as slo_document
from repro.replay import ReplayConfig, TraceProfile, generate_trace, run_replay


def _bench(tmp_path):
    figures = {"synthetic": {"original": {"throughput_mbps": 100.0}}}
    return doc.new("bench", {"label": "base", "config": {"seed": 42},
                             "figures": figures})


def _perf(tmp_path):
    layers = {"splitter": {"ops": 10, "wall_s": 1.0, "ops_per_sec": 10.0}}
    return doc.new("perf", {"label": "base", "config": {"pinned": True},
                            "python": "3.11.7", "layers": layers,
                            "total_wall_s": 1.0, "profile": []})


def _fleet(tmp_path):
    return run_fleet(FleetConfig.smoke(volumes=2, ticks=2)).to_dict()


def _slo(tmp_path):
    spec = SloSpec(name="lat", metric="lat_s", threshold=1.0, objective="le",
                   target=0.9)
    plane = SloPlane([spec], window=1.0)
    plane.observe("lat_s", 0.5, 2.0)
    plane.observe("lat_s", 1.5, 0.1)
    plane.evaluate_through(1)
    return slo_document("unit", {"kind": "unit", "seed": 3}, plane)


def _replay(tmp_path):
    trace = str(tmp_path / "t.bin")
    generate_trace(trace, TraceProfile(ops=300, seed=2, files=4))
    return run_replay(trace, ReplayConfig()).to_dict("base")


BUILDERS = {
    "bench": _bench, "perf": _perf, "fleet": _fleet, "slo": _slo,
    "replay": _replay,
}


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_document_kind_contract(kind, tmp_path, capsys):
    document = BUILDERS[kind](tmp_path)
    assert document["schema"] == doc.KINDS[kind].schema
    doc.validate(document)
    doc.validate(document, kind)
    assert document["fingerprint"] == doc.fingerprint(document)

    path = tmp_path / f"{kind.upper()}_base.json"
    doc.save(str(path), document)
    assert doc.load(str(path), kind) == document
    assert doc.load(str(path)) == document

    malformed = {
        "foreign": json.dumps(dict(document, schema="repro.other/v1")),
        "tampered": json.dumps(dict(document, fingerprint="0" * 16)),
        "list": "[]",
        "empty": "",
    }
    for name, text in malformed.items():
        bad = tmp_path / f"{name}.json"
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            doc.load(str(bad), kind)
        # the CLI prints that one line and exits 2, not a traceback
        assert cli.main([kind, "--compare", str(path), str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and len(err.splitlines()) == 1
    with pytest.raises(ValueError, match=f"unsupported {kind} schema"):
        doc.load(str(tmp_path / "foreign.json"), kind)
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        doc.load(str(tmp_path / "tampered.json"), kind)
    # another kind's valid document is refused by schema
    other = "slo" if kind == "bench" else "bench"
    with pytest.raises(ValueError, match=f"unsupported {other} schema"):
        doc.load(str(path), other)
    # saving refuses what loading would refuse
    with pytest.raises(ValueError, match="fingerprint mismatch"):
        doc.save(str(path), dict(document, fingerprint="0" * 16))
    assert doc.load(str(path), kind) == document


def test_every_committed_baseline_loads():
    root = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "baselines")
    paths = sorted(glob.glob(os.path.join(root, "*.json")))
    assert paths
    for path in paths:
        document = doc.load(path)
        assert doc.compare(document, document).ok


def test_write_json_matches_the_document_layout(tmp_path):
    path = tmp_path / "DOC.json"
    doc.write_json(str(path), {"b": 1, "a": [1, 2]})
    assert path.read_text() == json.dumps(
        {"a": [1, 2], "b": 1}, indent=2, sort_keys=True
    ) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["DOC.json"]


def test_failed_write_keeps_previous_file_and_leaves_no_temp(
    tmp_path, monkeypatch
):
    path = tmp_path / "DOC.json"
    doc.write_json(str(path), {"version": 1})
    before = path.read_bytes()

    real_replace = doc.os.replace

    def fail_before_replace(src, dst):
        with open(src) as fh:  # the new bytes did reach the temp file
            assert '"version": 2' in fh.read()
        raise RuntimeError("disk full")

    monkeypatch.setattr(doc.os, "replace", fail_before_replace)
    with pytest.raises(RuntimeError, match="disk full"):
        doc.write_json(str(path), {"version": 2})
    monkeypatch.setattr(doc.os, "replace", real_replace)

    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["DOC.json"]


def test_failed_text_write_keeps_previous_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "metrics.prom"
    doc.write_text(str(path), "old 1\n")
    # a lone surrogate cannot be encoded: the write fails after the temp
    # file was opened
    with pytest.raises(UnicodeEncodeError):
        doc.write_text(str(path), "new \udc80\n")
    assert path.read_text() == "old 1\n"
    assert [p.name for p in tmp_path.iterdir()] == ["metrics.prom"]
    # text goes out verbatim: no newline is added
    doc.write_text(str(path), "{}")
    assert path.read_bytes() == b"{}"
