"""The wall-clock perf-regression pipeline (documents, compare, CLI)."""

import json

import pytest

from repro import doc
from repro.cli import main
from repro.perf.suite import suite_config


def _doc(label, layers, total, config=None):
    return doc.new("perf", {
        "label": label,
        "config": config if config is not None else {"pinned": True},
        "python": "3.11.7",
        "layers": layers,
        "total_wall_s": total,
        "profile": [],
    })


def test_document_roundtrip(tmp_path):
    document = _doc("base", {"splitter": {"ops": 10, "wall_s": 1.0, "ops_per_sec": 10.0}}, 1.0)
    path = tmp_path / "PERF_base.json"
    doc.save(str(path), document)
    loaded = doc.load(str(path), "perf")
    assert loaded == document
    assert loaded["schema"] == doc.KINDS["perf"].schema
    # a PERF fingerprint hashes the pinned config alone
    assert loaded["fingerprint"] == doc.canonical_hash({"pinned": True})


def test_load_rejects_foreign_schema(tmp_path):
    path = tmp_path / "PERF_bad.json"
    path.write_text(json.dumps({"schema": "repro.bench/v1"}))
    with pytest.raises(ValueError, match="unsupported perf schema"):
        doc.load(str(path), "perf")


def test_compare_is_direction_aware():
    base = _doc("base", {
        "splitter": {"ops": 100, "wall_s": 1.0, "ops_per_sec": 100.0},
        "extent_map": {"ops": 100, "wall_s": 1.0, "ops_per_sec": 100.0},
    }, 2.0)
    cand = _doc("cand", {
        # throughput UP: an improvement, never a regression
        "splitter": {"ops": 100, "wall_s": 0.25, "ops_per_sec": 400.0},
        # throughput DOWN past the threshold: a regression
        "extent_map": {"ops": 100, "wall_s": 2.0, "ops_per_sec": 50.0},
    }, 2.25)
    comparison = doc.compare(base, cand, threshold=0.20)
    by_path = {f.path: f for f in comparison.findings}
    assert not by_path["layers.splitter.ops_per_sec"].regression
    assert by_path["layers.extent_map.ops_per_sec"].regression
    # total wall going UP past the threshold is also a regression, but
    # 2.0 -> 2.25 is +12.5% < 20%
    assert not by_path["total_wall_s"].regression
    assert not comparison.ok
    assert "REGRESSION" in comparison.report()


def test_compare_flags_total_wall_increase():
    base = _doc("base", {}, 1.0)
    cand = _doc("cand", {}, 1.5)
    comparison = doc.compare(base, cand, threshold=0.20)
    (finding,) = comparison.findings
    assert finding.path == "total_wall_s" and finding.regression
    assert "overall wall-clock speedup: 0.67x" in comparison.report()


def test_compare_reports_speedup_and_stays_ok():
    base = _doc("base", {"fs": {"ops": 10, "wall_s": 2.0, "ops_per_sec": 5.0}}, 2.0)
    cand = _doc("cand", {"fs": {"ops": 10, "wall_s": 0.5, "ops_per_sec": 20.0}}, 0.5)
    comparison = doc.compare(base, cand)
    assert comparison.ok
    assert "overall wall-clock speedup: 4.00x" in comparison.report()


def test_compare_warns_on_fingerprint_and_python_mismatch():
    base = _doc("base", {}, 1.0, config={"smoke": True})
    cand = _doc("cand", {}, 1.0, config={"smoke": False})
    cand["python"] = "0.0.0"
    comparison = doc.compare(base, cand)
    assert any("fingerprint differs" in w for w in comparison.warnings)
    assert any("python differs" in w for w in comparison.warnings)


def test_suite_config_is_pinned_and_fingerprintable():
    # the pinned configs must be stable across calls (deterministic suite)
    assert suite_config(smoke=True) == suite_config(smoke=True)
    assert suite_config(smoke=False) == suite_config(smoke=False)
    assert (doc.canonical_hash(suite_config(smoke=True))
            != doc.canonical_hash(suite_config(smoke=False)))


def test_cli_perf_smoke_writes_document(capsys, tmp_path):
    path = tmp_path / "PERF_smoke.json"
    assert main(["perf", "--smoke", "--no-profile",
                 "--label", "smoketest", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "total" in out
    document = doc.load(str(path))
    assert document["label"] == "smoketest"
    assert document["total_wall_s"] > 0
    for layer in ("syscalls", "extent_map", "free_space", "page_cache",
                  "splitter", "device_models", "end_to_end"):
        assert document["layers"][layer]["ops_per_sec"] > 0


def test_cli_perf_compare_detects_regression(capsys, tmp_path):
    base_path = tmp_path / "PERF_a.json"
    cand_path = tmp_path / "PERF_b.json"
    doc.save(str(base_path), _doc(
        "a", {"fs": {"ops": 10, "wall_s": 1.0, "ops_per_sec": 10.0}}, 1.0))
    doc.save(str(cand_path), _doc(
        "b", {"fs": {"ops": 10, "wall_s": 4.0, "ops_per_sec": 2.5}}, 4.0))
    assert main(["perf", "--compare", str(base_path), str(cand_path)]) == 1
    assert "REGRESSION" in capsys.readouterr().out
    # --warn-only downgrades the exit code but still prints the findings
    assert main(["perf", "--compare", str(base_path), str(cand_path),
                 "--warn-only"]) == 0


def test_cli_perf_compare_clean_run_exits_zero(capsys, tmp_path):
    base_path = tmp_path / "PERF_a.json"
    cand_path = tmp_path / "PERF_b.json"
    doc.save(str(base_path), _doc(
        "a", {"fs": {"ops": 10, "wall_s": 1.0, "ops_per_sec": 10.0}}, 1.0))
    doc.save(str(cand_path), _doc(
        "b", {"fs": {"ops": 10, "wall_s": 0.5, "ops_per_sec": 20.0}}, 0.5))
    assert main(["perf", "--compare", str(base_path), str(cand_path)]) == 0
    assert "speedup" in capsys.readouterr().out
