"""Persistent ``PERF_<label>.json`` documents and wall-clock comparisons.

The document layout mirrors :mod:`repro.bench.regression` but tracks
host wall-clock numbers instead of virtual-time results:

- ``layers[name]`` — ``{ops, wall_s, ops_per_sec}`` per hot-path layer;
- ``total_wall_s`` — the suite's summed best-of-N wall time;
- ``profile`` — the hot-function table from a bundled cProfile run
  (informational; never compared, profiles don't regress, code does).

``compare(baseline, candidate)`` is direction-aware:

- a layer's ``ops_per_sec`` going **down** is a regression,
- ``total_wall_s`` going **up** is a regression,

and the report always prints the overall speedup factor
(baseline wall / candidate wall), which is how the hot-path PRs state
their before/after numbers.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..docio import write_json

#: document schema tag; bump on incompatible layout changes
SCHEMA = "repro.perf/v1"

#: ops/sec below which a layer reading is considered noise
VALUE_FLOOR = 1e-9


def config_fingerprint(config: Dict[str, object]) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_document(
    label: str,
    config: Dict[str, object],
    layers: Dict[str, Dict[str, float]],
    total_wall_s: float,
    profile: Optional[List[Dict[str, object]]] = None,
    scaling: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    document = {
        "schema": SCHEMA,
        "label": label,
        "config": dict(config),
        "fingerprint": config_fingerprint(config),
        "python": platform.python_version(),
        "layers": layers,
        "total_wall_s": total_wall_s,
        "profile": list(profile or []),
    }
    if scaling is not None:
        # measured parallel-engine scaling (repro perf --scaling);
        # recorded for the record, never compared — like `profile`,
        # wall-clock parallelism is a property of the host, not the code
        # alone.  Kept outside `config` so the fingerprint is unchanged.
        document["scaling"] = dict(scaling)
    return document


def save(path: str, document: Dict[str, object]) -> None:
    write_json(path, document)


def load(path: str) -> Dict[str, object]:
    with open(path) as fh:
        document = json.load(fh)
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported perf schema {schema!r} (want {SCHEMA!r})"
        )
    return document


@dataclass
class Finding:
    """One compared wall-clock value and its verdict."""

    layer: str
    metric: str
    baseline: float
    candidate: float
    change: float            # signed relative change, candidate vs baseline
    regression: bool

    def describe(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return (
            f"[{verdict}] {self.layer} {self.metric}: "
            f"{self.baseline:.6g} -> {self.candidate:.6g} "
            f"({self.change:+.1%})"
        )


@dataclass
class Comparison:
    baseline_label: str
    candidate_label: str
    threshold: float
    speedup: float = 1.0     # baseline wall / candidate wall
    findings: List[Finding] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def report(self) -> str:
        lines = [
            f"perf compare: {self.baseline_label} (baseline) vs "
            f"{self.candidate_label} (candidate), threshold {self.threshold:.0%}"
        ]
        lines += [f"  note: {w}" for w in self.warnings]
        for finding in self.findings:
            if finding.regression or abs(finding.change) >= self.threshold:
                lines.append("  " + finding.describe())
        lines.append(
            f"  overall wall-clock speedup: {self.speedup:.2f}x "
            f"({len(self.findings)} values compared, "
            f"{len(self.regressions)} regression(s))"
        )
        return "\n".join(lines)


def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = 0.20,
) -> Comparison:
    """Direction-aware comparison of two PERF documents."""
    comparison = Comparison(
        baseline_label=str(baseline.get("label", "?")),
        candidate_label=str(candidate.get("label", "?")),
        threshold=threshold,
    )
    if baseline.get("fingerprint") != candidate.get("fingerprint"):
        comparison.warnings.append(
            "config fingerprints differ "
            f"({baseline.get('fingerprint')} vs {candidate.get('fingerprint')}): "
            "the documents were produced by different suite configurations"
        )
    if baseline.get("python") != candidate.get("python"):
        comparison.warnings.append(
            f"python versions differ ({baseline.get('python')} vs "
            f"{candidate.get('python')}): wall-clock numbers shift across "
            "interpreters"
        )
    base_layers = baseline.get("layers", {})
    cand_layers = candidate.get("layers", {})
    for layer in sorted(base_layers):
        if layer not in cand_layers:
            comparison.warnings.append(f"layer {layer!r} missing from candidate")
            continue
        base_rate = float(base_layers[layer].get("ops_per_sec", 0.0))
        cand_rate = float(cand_layers[layer].get("ops_per_sec", 0.0))
        if max(base_rate, cand_rate) < VALUE_FLOOR:
            continue
        change = (cand_rate - base_rate) / base_rate if base_rate else float("inf")
        comparison.findings.append(Finding(
            layer=layer, metric="ops_per_sec",
            baseline=base_rate, candidate=cand_rate,
            change=change if change != float("inf") else 1.0,
            regression=change <= -threshold,
        ))
    base_total = float(baseline.get("total_wall_s", 0.0))
    cand_total = float(candidate.get("total_wall_s", 0.0))
    if base_total > VALUE_FLOOR and cand_total > VALUE_FLOOR:
        change = (cand_total - base_total) / base_total
        comparison.findings.append(Finding(
            layer="suite", metric="total_wall_s",
            baseline=base_total, candidate=cand_total,
            change=change,
            regression=change >= threshold,
        ))
        comparison.speedup = base_total / cand_total
    return comparison
