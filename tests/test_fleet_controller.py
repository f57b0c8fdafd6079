"""Whole fleet runs: the scheduler's SLO contract and crash resilience."""

import pytest

from repro import doc
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.report import SCHEMA


@pytest.fixture(scope="module")
def smoke_report():
    return run_fleet(FleetConfig.smoke(volumes=6, seed=0))


def test_fragmentation_trigger_admits_jobs(smoke_report):
    # volume 0 is always heavy, so the trigger must fire
    assert smoke_report.volumes_above_start >= 1
    assert smoke_report.jobs_admitted >= 1
    assert smoke_report.migrated_payload_bytes > 0


def test_budget_never_exceeded_per_tick(smoke_report):
    budget = smoke_report.config["budget_per_tick"]
    for row in smoke_report.ticks:
        assert row.migrated_bytes <= budget
    assert smoke_report.budget_ok


def test_slo_report_has_latency_percentiles(smoke_report):
    assert smoke_report.fg_read_count > 0
    assert 0.0 < smoke_report.fg_read_p50_s <= smoke_report.fg_read_p99_s
    assert smoke_report.fg_read_p99_s <= smoke_report.fg_read_max_s
    assert len(smoke_report.ticks) == smoke_report.config["ticks"]


def test_defrag_lowers_the_above_trigger_curve(smoke_report):
    # the whole point of the service: volumes above the trigger shrink
    assert smoke_report.volumes_above_end < smoke_report.volumes_above_start


def test_document_round_trip(tmp_path, smoke_report):
    path = str(tmp_path / "FLEET_test.json")
    document = smoke_report.to_dict()
    assert document["schema"] == SCHEMA
    doc.save(path, document)
    loaded = doc.load(path, "fleet")
    assert loaded == document


def test_compare_identical_documents_ok(smoke_report):
    document = smoke_report.to_dict()
    comparison = doc.compare(document, document)
    assert comparison.ok
    assert comparison.findings  # metrics were actually compared


def test_compare_flags_latency_regression(smoke_report):
    baseline = smoke_report.to_dict()
    worse = smoke_report.to_dict()
    worse["foreground"]["read_p99_s"] = baseline["foreground"]["read_p99_s"] * 2
    comparison = doc.compare(baseline, worse)
    assert not comparison.ok
    assert any(f.path == "foreground.read_p99_s" for f in comparison.regressions)


def test_text_report_renders(smoke_report):
    text = smoke_report.text()
    assert "fleet SLO report" in text
    assert "p99" in text
    assert smoke_report.fingerprint in text


def test_crash_mid_migration_recovers_without_stalling_the_fleet():
    # this seeded storm fires one power-off inside a defrag job's
    # fallocate: the job dies, the journal replays, and the rest of the
    # fleet keeps being scheduled
    report = run_fleet(FleetConfig.smoke(volumes=8, seed=0, faults=True, ticks=8))
    assert report.jobs_failed >= 1
    assert report.recovered_entries >= 1
    assert report.journal_pending == 0  # nothing left un-replayed
    assert report.jobs_completed >= 1  # the fleet did not stall
    assert report.budget_ok


def test_faulted_volume_reenters_cooldown_then_retriggers():
    # after the crash the volume is still fragmented; once cooldown ends
    # the trigger may fire again (no permanent blacklisting)
    config = FleetConfig.smoke(
        volumes=8, seed=0, faults=True, ticks=12, cooldown_ticks=1,
    )
    report = run_fleet(config)
    assert report.jobs_failed >= 1
    assert report.jobs_admitted > report.jobs_failed
