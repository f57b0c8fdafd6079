"""The fleet SLO report: population-scale figures, not single-run bars.

Everything in here derives from virtual time and seeded draws, so the
canonical JSON document — and therefore its sha256 fingerprint — is
byte-identical run to run for the same :class:`FleetConfig`, with or
without the observability plane armed (the fleet's determinism guard).

``compare`` reuses the bench pipeline's direction-aware
:class:`~repro.bench.regression.Comparison`/:class:`Finding` machinery:
foreground latency going up is a regression, foreground ops going down is
a regression, volumes left above the trigger going up is a regression.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..bench.regression import Comparison, Finding
from ..constants import MIB
from ..docio import write_json

#: document schema tag; bump on incompatible layout changes
SCHEMA = "repro.fleet/v1"

#: headline metrics compared by :func:`compare`: name -> higher_is_better
_COMPARED = {
    "fg_read_p50_s": False,
    "fg_read_p99_s": False,
    "fg_read_mean_s": False,
    "fg_ops": True,
    "volumes_above_end": False,
}


def percentile(values: Sequence[float], q: float) -> float:
    """Deterministic nearest-rank percentile (q in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass(frozen=True)
class TickRow:
    """One scheduler tick's fleet-wide readings."""

    tick: int
    volumes_above: int
    migrated_bytes: int
    jobs_running: int
    jobs_admitted: int
    jobs_waiting: int
    fg_ops: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "tick": self.tick,
            "volumes_above": self.volumes_above,
            "migrated_bytes": self.migrated_bytes,
            "jobs_running": self.jobs_running,
            "jobs_admitted": self.jobs_admitted,
            "jobs_waiting": self.jobs_waiting,
            "fg_ops": self.fg_ops,
        }


@dataclass
class FleetReport:
    """What one fleet run did, SLO-style."""

    config: Dict[str, object]
    volumes: int = 0
    ticks: List[TickRow] = field(default_factory=list)
    # jobs
    jobs_admitted: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    jobs_still_running: int = 0
    jobs_deferred_ticks: int = 0
    jobs_budget_blocked_ticks: int = 0
    recovered_entries: int = 0
    journal_pending: int = 0
    # migration traffic
    migrated_payload_bytes: int = 0
    defrag_read_bytes: int = 0
    defrag_write_bytes: int = 0
    ranges_migrated: int = 0
    ranges_failed: int = 0
    retries: int = 0
    # foreground SLO
    fg_ops: int = 0
    fg_errors: int = 0
    fg_read_count: int = 0
    fg_read_p50_s: float = 0.0
    fg_read_p99_s: float = 0.0
    fg_read_mean_s: float = 0.0
    fg_read_max_s: float = 0.0
    # fragmentation census
    volumes_above_start: int = 0
    volumes_above_end: int = 0
    # SLO monitor section (only when gating is armed; absent keeps old
    # documents byte-identical)
    slo: Optional[Dict[str, object]] = None

    # -- budget compliance ---------------------------------------------

    @property
    def max_tick_migrated(self) -> int:
        return max((row.migrated_bytes for row in self.ticks), default=0)

    @property
    def budget_ok(self) -> bool:
        """Did any tick exceed the configured migration budget?"""
        budget = self.config.get("budget_per_tick")
        if budget is None:
            return True
        return self.max_tick_migrated <= int(budget)

    # -- document ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "schema": SCHEMA,
            "config": dict(self.config),
            "volumes": self.volumes,
            "jobs": {
                "admitted": self.jobs_admitted,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
                "still_running": self.jobs_still_running,
                "deferred_ticks": self.jobs_deferred_ticks,
                "budget_blocked_ticks": self.jobs_budget_blocked_ticks,
                "recovered_entries": self.recovered_entries,
                "journal_pending": self.journal_pending,
            },
            "migration": {
                "payload_bytes": self.migrated_payload_bytes,
                "read_bytes": self.defrag_read_bytes,
                "write_bytes": self.defrag_write_bytes,
                "ranges_migrated": self.ranges_migrated,
                "ranges_failed": self.ranges_failed,
                "retries": self.retries,
                "max_tick_migrated": self.max_tick_migrated,
                "budget_ok": self.budget_ok,
            },
            "foreground": {
                "ops": self.fg_ops,
                "errors": self.fg_errors,
                "read_count": self.fg_read_count,
                "read_p50_s": self.fg_read_p50_s,
                "read_p99_s": self.fg_read_p99_s,
                "read_mean_s": self.fg_read_mean_s,
                "read_max_s": self.fg_read_max_s,
            },
            "census": {
                "volumes_above_start": self.volumes_above_start,
                "volumes_above_end": self.volumes_above_end,
                "ticks": [row.to_dict() for row in self.ticks],
            },
        }
        if self.slo is not None:
            doc["slo"] = self.slo
        doc["fingerprint"] = fingerprint(doc)
        return doc

    @property
    def fingerprint(self) -> str:
        return fingerprint(self.to_dict())

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -- rendering -----------------------------------------------------

    def text(self) -> str:
        config = self.config
        budget = config.get("budget_per_tick")
        budget_text = (
            "unthrottled" if budget is None else f"{budget / MIB:.2f} MiB/tick"
        )
        lines = [
            "fleet SLO report",
            "=" * 16,
            "",
            f"fleet          : {self.volumes} volumes, seed {config.get('seed')}, "
            f"{len(self.ticks)} ticks x {config.get('tick_seconds')}s",
            f"scheduler      : trigger {config.get('trigger')} extents/file, "
            f"cap {config.get('max_jobs')} jobs, budget {budget_text}",
            "",
            f"jobs           : {self.jobs_admitted} admitted, "
            f"{self.jobs_completed} completed, {self.jobs_failed} failed, "
            f"{self.jobs_still_running} still running",
            f"  deferred     : {self.jobs_deferred_ticks} volume-ticks queued "
            f"behind the cap, {self.jobs_budget_blocked_ticks} job-ticks "
            f"parked on a dry budget",
            f"  resilience   : {self.retries} retries, {self.ranges_failed} "
            f"ranges skipped, {self.recovered_entries} journal entries "
            f"replayed, {self.journal_pending} pending",
            f"migration      : {self.migrated_payload_bytes / MIB:.2f} MiB payload "
            f"({self.ranges_migrated} ranges), device traffic "
            f"{self.defrag_read_bytes / MIB:.2f} MiB read + "
            f"{self.defrag_write_bytes / MIB:.2f} MiB written",
            f"  budget       : max {self.max_tick_migrated / MIB:.2f} MiB in one tick "
            f"-> {'within budget' if self.budget_ok else 'BUDGET EXCEEDED'}",
            "",
            f"foreground SLO : {self.fg_ops} ops ({self.fg_errors} errors), "
            f"{self.fg_read_count} reads",
            f"  read latency : p50 {self.fg_read_p50_s * 1e3:.3f} ms, "
            f"p99 {self.fg_read_p99_s * 1e3:.3f} ms, "
            f"mean {self.fg_read_mean_s * 1e3:.3f} ms, "
            f"max {self.fg_read_max_s * 1e3:.3f} ms",
            "",
            f"fragmentation  : {self.volumes_above_start} volumes above trigger "
            f"at start -> {self.volumes_above_end} at end",
        ]
        if self.slo is not None:
            alerts = self.slo.get("alerts", [])
            promotions = self.slo.get("promotions", [])
            lines.append(
                f"SLO gating     : latency objective "
                f"{float(self.slo.get('latency_slo_s', 0.0)) * 1e3:.3f} ms, "
                f"{len(alerts)} burn alerts "
                f"({self.slo.get('volume_alerts', 0)} per-volume), "
                f"{len(promotions)} queue promotions"
            )
            for name, summary in sorted(self.slo.get("slos", {}).items()):
                lines.append(
                    f"  {name:<13}: compliance {summary.get('compliance', 0.0):.4f}, "
                    f"budget left {summary.get('budget_remaining', 0.0) * 100:.1f}%, "
                    f"{summary.get('alerts', 0)} alerts"
                )
        lines.extend([
            "",
            "  tick  above  migrated(MiB)  running  admitted  waiting  fg_ops",
        ])
        for row in self.ticks:
            lines.append(
                f"  {row.tick:>4}  {row.volumes_above:>5}  "
                f"{row.migrated_bytes / MIB:>13.2f}  {row.jobs_running:>7}  "
                f"{row.jobs_admitted:>8}  {row.jobs_waiting:>7}  {row.fg_ops:>6}"
            )
        lines.append("")
        lines.append(f"fingerprint: {self.fingerprint}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# canonical fingerprint + persistence
# ----------------------------------------------------------------------

def fingerprint(document: Dict[str, object]) -> str:
    """sha256 over the canonical document (fingerprint field excluded)."""
    body = {k: v for k, v in document.items() if k != "fingerprint"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def save(path: str, document: Dict[str, object]) -> None:
    write_json(path, document)


def load(path: str) -> Dict[str, object]:
    with open(path) as fh:
        document = json.load(fh)
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported fleet schema {schema!r} (want {SCHEMA!r})"
        )
    return document


# ----------------------------------------------------------------------
# direction-aware comparison (reuses the bench pipeline's machinery)
# ----------------------------------------------------------------------

def _headline(document: Dict[str, object]) -> Dict[str, float]:
    fg = document.get("foreground", {})
    census = document.get("census", {})
    return {
        "fg_read_p50_s": float(fg.get("read_p50_s", 0.0)),
        "fg_read_p99_s": float(fg.get("read_p99_s", 0.0)),
        "fg_read_mean_s": float(fg.get("read_mean_s", 0.0)),
        "fg_ops": float(fg.get("ops", 0)),
        "volumes_above_end": float(census.get("volumes_above_end", 0)),
    }


def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = 0.10,
) -> Comparison:
    """Direction-aware comparison of two FLEET documents."""
    comparison = Comparison(
        baseline_label=str(baseline.get("config", {}).get("seed", "?")),
        candidate_label=str(candidate.get("config", {}).get("seed", "?")),
        threshold=threshold,
        kind="fleet",
    )
    if baseline.get("fingerprint") != candidate.get("fingerprint"):
        base_cfg = baseline.get("config", {})
        cand_cfg = candidate.get("config", {})
        if base_cfg != cand_cfg:
            comparison.warnings.append(
                "fleet configurations differ: the documents describe "
                "different fleets"
            )
    base_values = _headline(baseline)
    cand_values = _headline(candidate)
    for metric, higher_is_better in _COMPARED.items():
        base = base_values[metric]
        cand = cand_values[metric]
        if max(abs(base), abs(cand)) < 1e-12:
            continue
        if abs(base) < 1e-12:
            change = 1.0
        else:
            change = (cand - base) / abs(base)
        if higher_is_better:
            regression = change <= -threshold
        else:
            regression = change >= threshold
        comparison.findings.append(Finding(
            figure="fleet", variant="slo", metric=metric,
            baseline=base, candidate=cand, change=change,
            regression=regression,
        ))
    return comparison
