"""The document layer: one table of persisted result kinds and one
implementation of every operation on them.

BENCH, PERF, FLEET, SLO and REPLAY documents are schema-tagged JSON
objects with a short sha256 ``fingerprint``.  What differs between kinds
is data, so each kind is one :class:`Kind` row of :data:`KINDS` (schema,
``--compare`` threshold, fingerprint scope, required sections, identity
fields, ledger headline, compared values), and :func:`new`, :func:`fingerprint`,
:func:`save`, :func:`load`, :func:`validate`, :func:`compare` and
:func:`headline` read that row.  The checks that are not structural
(SLO budget arithmetic, the perf speedup line) are hooks beside the
table.

Every file is written through :func:`write_text`: a temp file in the
target's directory, then ``os.replace``, so a reader sees the previous
file or the complete new one, and a failed write leaves no temp behind.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: magnitude below which a value counts as zero
VALUE_FLOOR = 1e-9

#: seconds below which a latency-attribution component is noise
COMPONENT_FLOOR_S = 1e-6

HIGHER, LOWER = True, False


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------


def write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``)."""
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise


def write_json(path: str, document: object) -> None:
    """Write ``document`` as indented, key-sorted JSON, atomically."""
    write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def canonical_hash(value: object, length: Optional[int] = 16) -> str:
    """sha256 over the canonical (key-sorted, compact) JSON of ``value``."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:length]


# ----------------------------------------------------------------------
# comparison results
# ----------------------------------------------------------------------


@dataclass
class Finding:
    """One compared value: where it lives, both readings, the verdict."""

    path: str
    baseline: float
    candidate: float
    change: float            # signed relative change, candidate vs baseline
    regression: bool

    def describe(self) -> str:
        verdict = "REGRESSION" if self.regression else "ok"
        return (
            f"[{verdict}] {self.path}: "
            f"{self.baseline:.6g} -> {self.candidate:.6g} ({self.change:+.1%})"
        )


@dataclass
class Comparison:
    kind: str
    baseline_label: str
    candidate_label: str
    threshold: float
    findings: List[Finding] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    #: extra summary lines a kind's hook adds below the count
    footer: List[str] = field(default_factory=list)

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
        moved = [
            f for f in self.findings
            if not f.regression and abs(f.change) >= self.threshold
        ]
        lines += ["  " + f.describe() for f in self.regressions + moved]
        lines.append(
            f"  {len(self.findings)} values compared, "
            f"{len(self.regressions)} regression(s)"
        )
        lines += [f"  {line}" for line in self.footer]
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-kind hooks
# ----------------------------------------------------------------------


def _check_slo(document: Dict[str, object]) -> None:
    slos = document["slos"]
    if not slos:
        raise ValueError("document has no slos")
    for name, summary in slos.items():
        if not isinstance(summary, dict) or not {
            "budget_consumed", "budget_remaining", "alerts", "windows"
        } <= summary.keys():
            raise ValueError(f"{name}: missing budget or alert counters")
        consumed = summary["budget_consumed"]
        remaining = summary["budget_remaining"]
        if abs((consumed + remaining) - 1.0) > 1e-9:
            raise ValueError(f"{name}: budget does not sum to 1.0")
        if summary["alerts"] > summary["windows"]:
            raise ValueError(f"{name}: more alerts than windows")


def _perf_speedup(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    comparison: Comparison,
) -> None:
    base = _number(baseline.get("total_wall_s")) or 0.0
    cand = _number(candidate.get("total_wall_s")) or 0.0
    if base > VALUE_FLOOR and cand > VALUE_FLOOR:
        comparison.footer.append(f"overall wall-clock speedup: {base / cand:.2f}x")


# ----------------------------------------------------------------------
# the kind table
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One document kind; its files default to ``<NAME>_<label>.json``.

    ``headline`` rows are ``(key, path)``: ``#path`` counts the entries
    under ``path``, and a ``*`` in the path fills the ``*`` in the key.
    ``compared`` rows are ``(path pattern, higher_is_better, floor)``: a
    ``*`` matches every key of the baseline, and a value below ``floor``
    in both documents is noise, not compared.
    """

    name: str
    schema: Optional[str]
    threshold: float = 0.10
    #: the fingerprint hashes this subtree; None = the body minus `excluded`
    fingerprint_of: Optional[str] = None
    excluded: Tuple[str, ...] = ("fingerprint",)
    #: section -> keys it must carry
    required: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: top-level fields whose mismatch makes a comparison warn
    identity: Tuple[str, ...] = ()
    #: dotted path of the label printed in the compare header
    label: str = "label"
    headline: Tuple[Tuple[str, str], ...] = ()
    compared: Tuple[Tuple[str, bool, float], ...] = ()
    #: extra structural check run by validate(document)
    check: Optional[Callable[[Dict[str, object]], None]] = None
    #: extra comparison step run as notes(baseline, candidate, comparison)
    notes: Optional[Callable[..., None]] = None


KINDS: Dict[str, Kind] = {kind.name: kind for kind in (
    Kind(
        "bench", "repro.bench/v1",
        fingerprint_of="config",
        required={"config": (), "figures": ()},
        identity=("fingerprint",),
        headline=(
            ("figures", "#figures"),
            ("obs_trace_ops_before", "figures.obs_trace.before.ops_per_sec"),
            ("obs_trace_ops_after", "figures.obs_trace.after.ops_per_sec"),
        ),
        compared=(
            ("figures.*.*.throughput_mbps", HIGHER, VALUE_FLOOR),
            ("figures.*.*.ops_per_sec", HIGHER, VALUE_FLOOR),
            ("figures.*.*.grep_gb_per_s", HIGHER, VALUE_FLOOR),
            ("figures.*.*.attribution.components_s.*", LOWER, COMPONENT_FLOOR_S),
            ("figures.*.*.split_fanout.mean", LOWER, VALUE_FLOOR),
        ),
    ),
    Kind(
        # wall clock is noisier than virtual time: a looser threshold
        "perf", "repro.perf/v1", threshold=0.20,
        fingerprint_of="config",
        required={"config": (), "layers": ()},
        # wall-clock numbers shift across interpreters
        identity=("fingerprint", "python"),
        headline=(
            ("total_wall_s", "total_wall_s"),
            ("end_to_end_wall_s", "layers.end_to_end.wall_s"),
        ),
        compared=(
            ("layers.*.ops_per_sec", HIGHER, VALUE_FLOOR),
            ("total_wall_s", LOWER, VALUE_FLOOR),
        ),
        notes=_perf_speedup,
    ),
    Kind(
        "fleet", "repro.fleet/v1",
        required={"config": (), "jobs": (), "migration": (),
                  "foreground": (), "census": ()},
        identity=("config",),
        label="config.seed",
        headline=(
            ("jobs_completed", "jobs.completed"),
            ("migrated_bytes", "migration.payload_bytes"),
            ("fg_read_p99_s", "foreground.read_p99_s"),
            ("budget_ok", "migration.budget_ok"),
        ),
        compared=(
            ("foreground.read_p50_s", LOWER, VALUE_FLOOR),
            ("foreground.read_p99_s", LOWER, VALUE_FLOOR),
            ("foreground.read_mean_s", LOWER, VALUE_FLOOR),
            ("foreground.ops", HIGHER, VALUE_FLOOR),
            ("census.volumes_above_end", LOWER, VALUE_FLOOR),
        ),
    ),
    Kind(
        "slo", "repro.slo/v1",
        required={"source": (), "slos": ()},
        identity=("source",),
        headline=(
            ("slos", "#slos"),
            ("alerts", "#alerts"),
            ("*_compliance", "slos.*.compliance"),
        ),
        compared=(
            ("slos.*.compliance", HIGHER, VALUE_FLOOR),
            ("slos.*.budget_remaining", HIGHER, VALUE_FLOOR),
            ("slos.*.breaches", LOWER, VALUE_FLOOR),
            ("slos.*.alerts", LOWER, VALUE_FLOOR),
            ("slos.*.max_fast_burn", LOWER, VALUE_FLOOR),
            ("slos.*.max_slow_burn", LOWER, VALUE_FLOOR),
        ),
        check=_check_slo,
    ),
    Kind(
        # relabeling a replay run does not change its identity
        "replay", "repro.replay/v1",
        excluded=("fingerprint", "label"),
        required={
            "parse": ("records", "malformed", "zero_length", "out_of_order"),
            "reconstruction": ("ops", "ops_read", "ops_write", "bytes_read",
                               "backfill_bytes", "clamped", "no_space"),
            "figures": ("elapsed_s", "ops_per_vsec", "cache_hit_ratio"),
            "cache": ("hits", "misses"),
            "device_traffic": ("read_bytes", "write_bytes"),
        },
        identity=("config", "trace"),
        headline=(
            ("ops_per_vsec", "figures.ops_per_vsec"),
            ("read_mbps", "figures.read_mbps"),
            ("cache_hit_ratio", "figures.cache_hit_ratio"),
        ),
        compared=(
            ("figures.ops_per_vsec", HIGHER, VALUE_FLOOR),
            ("figures.read_mbps", HIGHER, VALUE_FLOOR),
            ("figures.cache_hit_ratio", HIGHER, VALUE_FLOOR),
            ("figures.elapsed_s", LOWER, VALUE_FLOOR),
            ("split_fanout.mean", LOWER, VALUE_FLOOR),
            ("attribution.components_s.*", LOWER, COMPONENT_FLOOR_S),
        ),
    ),
    Kind(
        # the survival report: no schema and no --compare, only a ledger
        # headline (its fingerprint sits on the campaign)
        "faults", None,
        headline=(
            ("ok", "ok"),
            ("sweeps", "#sweeps"),
            ("faults_injected", "campaign.faults_injected"),
            ("data_intact", "campaign.data_intact"),
            ("trials", "series.trials"),
        ),
    ),
)}

_BY_SCHEMA = {kind.schema: kind for kind in KINDS.values() if kind.schema}


# ----------------------------------------------------------------------
# the operations
# ----------------------------------------------------------------------


def _get(
    node: object, path: Sequence[str], missing: Optional[List[str]] = None
) -> object:
    """The value at ``path``, or None; with ``missing``, the shortest
    absent prefix is noted there once."""
    for depth, key in enumerate(path):
        if not isinstance(node, dict) or key not in node:
            note = f"{'.'.join(path[:depth + 1])} missing from candidate"
            if missing is not None and note not in missing:
                missing.append(note)
            return None
        node = node[key]
    return node


def _walk(
    node: object, parts: List[str], at: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], object]]:
    """Every ``(concrete path, value)`` matching ``parts`` (``*`` = any key)."""
    if not parts:
        yield at, node
        return
    if not isinstance(node, dict):
        return
    head, rest = parts[0], parts[1:]
    if head == "*":
        for key in sorted(node):
            yield from _walk(node[key], rest, at + (key,))
    elif head in node:
        yield from _walk(node[head], rest, at + (head,))


def _number(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _kind(document: Dict[str, object], kind: Optional[str]) -> Kind:
    """The named kind, or the one ``document``'s schema declares."""
    schema = document.get("schema")
    found = KINDS[kind] if kind else _BY_SCHEMA.get(schema)
    if found is None or schema != found.schema:
        want = f" (want {found.schema!r})" if found else ""
        raise ValueError(
            f"unsupported {kind or 'document'} schema {schema!r}{want}"
        )
    return found


def fingerprint(document: Dict[str, object], kind: Optional[str] = None) -> str:
    """The document's canonical fingerprint, as its kind defines it."""
    spec = KINDS[kind] if kind else _kind(document, None)
    if spec.fingerprint_of:
        return canonical_hash(document.get(spec.fingerprint_of))
    return canonical_hash(
        {k: v for k, v in document.items() if k not in spec.excluded}
    )


def validate(document: object, kind: Optional[str] = None) -> None:
    """Raise ``ValueError`` unless ``document`` is a well-formed document
    of ``kind`` (default: the kind its schema names) whose recorded
    fingerprint matches its body."""
    if not isinstance(document, dict):
        raise ValueError("not a JSON object")
    spec = _kind(document, kind)
    for section, keys in spec.required.items():
        body = document.get(section)
        if not isinstance(body, dict):
            raise ValueError(f"missing section {section!r}")
        for key in keys:
            if key not in body:
                raise ValueError(f"missing {section}.{key}")
    expected = fingerprint(document, spec.name)
    if document.get("fingerprint") != expected:
        raise ValueError(
            f"fingerprint mismatch: recorded {document.get('fingerprint')!r}, "
            f"recomputed {expected!r}"
        )
    if spec.check is not None:
        spec.check(document)


def new(kind: str, body: Dict[str, object]) -> Dict[str, object]:
    """``body`` stamped as a ``kind`` document: schema and fingerprint."""
    document = {"schema": KINDS[kind].schema, **body}
    document["fingerprint"] = fingerprint(document, kind)
    return document


def save(path: str, document: Dict[str, object]) -> None:
    """Validate ``document``, then write it atomically."""
    validate(document)
    write_json(path, document)


def load(path: str, kind: Optional[str] = None) -> Dict[str, object]:
    """Read and validate one document; ``ValueError`` names ``path``."""
    try:
        with open(path) as fh:
            document = json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: not a JSON document ({exc})") from exc
    try:
        validate(document, kind)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return document


def compare(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    threshold: Optional[float] = None,
) -> Comparison:
    """Direction-aware comparison of two documents of one kind."""
    spec = _kind(baseline, None)
    label = spec.label.split(".")
    comparison = Comparison(
        kind=spec.name,
        baseline_label=str(_get(baseline, label)),
        candidate_label=str(_get(candidate, label)),
        threshold=spec.threshold if threshold is None else threshold,
    )
    for name in spec.identity:
        base, cand = baseline.get(name), candidate.get(name)
        if base != cand:
            shown = "" if isinstance(base, dict) else f" ({base} vs {cand})"
            comparison.warnings.append(
                f"{name} differs{shown}: the documents describe different runs"
            )
    for pattern, higher_is_better, floor in spec.compared:
        parts = pattern.split(".")
        for path, value in _walk(baseline, parts):
            base = _number(value)
            cand = _number(_get(candidate, path, comparison.warnings))
            if base is None or cand is None or max(abs(base), abs(cand)) < floor:
                continue
            change = 1.0 if abs(base) < VALUE_FLOOR else (cand - base) / abs(base)
            comparison.findings.append(Finding(
                path=".".join(path), baseline=base, candidate=cand,
                change=change,
                regression=(change <= -comparison.threshold if higher_is_better
                            else change >= comparison.threshold),
            ))
    if spec.notes is not None:
        spec.notes(baseline, candidate, comparison)
    return comparison


def headline(verb: str, document: Dict[str, object]) -> Dict[str, object]:
    """The small figure set a run-ledger manifest carries for ``verb``."""
    spec = KINDS.get(verb)
    out: Dict[str, object] = {}
    for key, path in spec.headline if spec else ():
        parts = path.lstrip("#").split(".")
        if path.startswith("#"):
            out[key] = len(_get(document, parts) or ())
            continue
        for at, value in _walk(document, parts):
            if value is not None:
                name = at[parts.index("*")] if "*" in parts else ""
                out[key.replace("*", name)] = value
    return out
