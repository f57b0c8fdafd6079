"""Persistent benchmark documents and component-level regression checks.

``repro bench`` serialises one suite run into a schema-versioned
``BENCH_<label>.json``: per-figure throughput numbers, split-fanout
histogram summaries, and the latency-attribution breakdown per variant,
fingerprinted with the exact suite configuration so two documents are
only ever compared like-for-like.

``compare(baseline, candidate)`` then walks both documents and flags
regressions *per component*, direction-aware:

- throughput / ops-per-second going **down** is a regression,
- attribution component seconds going **up** is a regression,
- split-fanout mean going **up** is a regression.

A tiny absolute floor keeps noise in near-zero components (e.g. a device
penalty of 1e-9 s doubling) from tripping the threshold.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..docio import write_json

#: document schema tag; bump on incompatible layout changes
SCHEMA = "repro.bench/v1"

#: metrics where a *decrease* is the regression direction
HIGHER_IS_BETTER = ("throughput_mbps", "ops_per_sec", "grep_gb_per_s")

#: seconds below which an attribution component is treated as noise
COMPONENT_FLOOR_S = 1e-6

#: relative change below which a fanout/throughput value is ignored
VALUE_FLOOR = 1e-9


def config_fingerprint(config: Dict[str, object]) -> str:
    """Short stable hash of the suite configuration (seeds, sizes, ...)."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_document(
    label: str,
    config: Dict[str, object],
    figures: Dict[str, Dict[str, Dict[str, object]]],
) -> Dict[str, object]:
    """Assemble a BENCH document: ``figures[figure][variant] -> summary``.

    Each variant summary is a flat dict that may carry ``throughput_mbps``
    (or other headline numbers), a ``split_fanout`` summary, and an
    ``attribution`` sub-document (``Attribution.to_dict()``).
    """
    return {
        "schema": SCHEMA,
        "label": label,
        "config": dict(config),
        "fingerprint": config_fingerprint(config),
        "figures": figures,
    }


def save(path: str, document: Dict[str, object]) -> None:
    write_json(path, document)


def load(path: str) -> Dict[str, object]:
    with open(path) as fh:
        document = json.load(fh)
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} (want {SCHEMA!r})"
        )
    return document


@dataclass
class Finding:
    """One compared value: where it lives, both readings, the verdict."""

    figure: str
    variant: str
    metric: str
    baseline: float
    candidate: float
    change: float            # signed relative change, candidate vs baseline
    regression: bool

    def describe(self) -> str:
        arrow = "REGRESSION" if self.regression else "ok"
        return (
            f"[{arrow}] {self.figure}/{self.variant} {self.metric}: "
            f"{self.baseline:.6g} -> {self.candidate:.6g} "
            f"({self.change:+.1%})"
        )


@dataclass
class Comparison:
    baseline_label: str
    candidate_label: str
    threshold: float
    findings: List[Finding] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: which document family the comparison covers (report header)
    kind: str = "bench"

    @property
    def regressions(self) -> List[Finding]:
        return [f for f in self.findings if f.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def report(self) -> str:
        lines = [
            f"{self.kind} compare: {self.baseline_label} (baseline) vs "
            f"{self.candidate_label} (candidate), threshold {self.threshold:.0%}"
        ]
        lines += [f"  note: {w}" for w in self.warnings]
        for finding in self.regressions:
            lines.append("  " + finding.describe())
        moved = [
            f for f in self.findings
            if not f.regression and abs(f.change) >= self.threshold
        ]
        for finding in moved:
            lines.append("  " + finding.describe())
        lines.append(
            f"  {len(self.findings)} values compared, "
            f"{len(self.regressions)} regression(s)"
        )
        return "\n".join(lines)


def _relative_change(baseline: float, candidate: float) -> Optional[float]:
    if abs(baseline) < VALUE_FLOOR:
        return None if abs(candidate) < VALUE_FLOOR else float("inf")
    return (candidate - baseline) / abs(baseline)


def _compare_value(
    comparison: Comparison,
    figure: str,
    variant: str,
    metric: str,
    baseline: float,
    candidate: float,
    higher_is_better: bool,
    floor: float = VALUE_FLOOR,
) -> None:
    if max(abs(baseline), abs(candidate)) < floor:
        return  # both effectively zero: nothing to compare
    change = _relative_change(baseline, candidate)
    if change is None:
        return
    if higher_is_better:
        regression = change <= -comparison.threshold
    else:
        regression = change >= comparison.threshold
    comparison.findings.append(Finding(
        figure=figure, variant=variant, metric=metric,
        baseline=baseline, candidate=candidate,
        change=change if change != float("inf") else 1.0,
        regression=regression,
    ))


def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: float = 0.10,
) -> Comparison:
    """Direction-aware comparison of two BENCH documents."""
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
    base_figures = baseline.get("figures", {})
    cand_figures = candidate.get("figures", {})
    for figure in sorted(base_figures):
        if figure not in cand_figures:
            comparison.warnings.append(f"figure {figure!r} missing from candidate")
            continue
        for variant in sorted(base_figures[figure]):
            if variant not in cand_figures[figure]:
                comparison.warnings.append(
                    f"variant {figure}/{variant} missing from candidate"
                )
                continue
            _compare_variant(
                comparison, figure, variant,
                base_figures[figure][variant], cand_figures[figure][variant],
            )
    return comparison


def _compare_variant(
    comparison: Comparison,
    figure: str,
    variant: str,
    base: Dict[str, object],
    cand: Dict[str, object],
) -> None:
    for metric in HIGHER_IS_BETTER:
        if metric in base and metric in cand:
            _compare_value(
                comparison, figure, variant, metric,
                float(base[metric]), float(cand[metric]),
                higher_is_better=True,
            )
    base_attr = (base.get("attribution") or {}).get("components_s", {})
    cand_attr = (cand.get("attribution") or {}).get("components_s", {})
    for component in sorted(base_attr):
        if component not in cand_attr:
            continue
        _compare_value(
            comparison, figure, variant, f"attribution.{component}",
            float(base_attr[component]), float(cand_attr[component]),
            higher_is_better=False, floor=COMPONENT_FLOOR_S,
        )
    base_fanout = base.get("split_fanout") or {}
    cand_fanout = cand.get("split_fanout") or {}
    if base_fanout.get("mean") is not None and cand_fanout.get("mean") is not None:
        _compare_value(
            comparison, figure, variant, "split_fanout.mean",
            float(base_fanout["mean"]), float(cand_fanout["mean"]),
            higher_is_better=False,
        )
