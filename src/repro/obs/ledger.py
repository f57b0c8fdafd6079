"""Persistent run ledger: a fingerprinted manifest per document run.

Every document-producing verb (``repro bench/perf/fleet/slo/replay/
faults``) appends one **run manifest** under ``benchmarks/ledger/`` —
the run-over-run history a production telemetry pipeline keeps next to
its live exports.  A manifest records what ran (verb, label, args, seed,
workers), what it produced (the document's schema and fingerprint plus a
small per-verb *headline* — the figures you would put on a dashboard,
declared per kind in :data:`repro.doc.KINDS`),
and what it cost (wall seconds, host CPU count).

The manifest's own ``fingerprint`` hashes only the **deterministic**
fields — verb, label, seed, workers, args, document schema/fingerprint,
headline — never wall time or host shape, so re-running the same
seed-keyed workload reproduces the manifest fingerprint byte-for-byte
(the CI ``obs-par-smoke`` job asserts exactly that).  Filenames are
sequence-numbered (``000007_perf_ab12cd34ef56.json``) so ``repro runs``
can render the trajectory of a metric across recorded runs in recording
order.

Recording is safe against crashes and concurrent runs: each sequence
number is claimed once, with an exclusive create under ``.seq/`` that is
never removed (so deleting a manifest never frees its number), and the
manifest is written to a temporary file and renamed into place, so a
reader never sees a torn one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from ..doc import canonical_hash, headline, write_json
from ..stats.tables import format_table

SCHEMA = "repro.ledger/v1"

#: default ledger directory, relative to the working tree
DEFAULT_DIR = os.path.join("benchmarks", "ledger")

#: subdirectory of sequence-number claims: one empty file per number
CLAIMS_DIR = ".seq"


def resolve_dir(directory: Optional[str] = None) -> str:
    """The ledger directory: explicit arg > $REPRO_LEDGER_DIR > default."""
    return directory or os.environ.get("REPRO_LEDGER_DIR") or DEFAULT_DIR

#: manifest fields hashed into the manifest fingerprint (everything a
#: deterministic re-run reproduces; wall_s/host_cpus deliberately out)
FINGERPRINT_FIELDS = (
    "schema", "verb", "label", "seed", "workers", "args",
    "doc_schema", "doc_fingerprint", "headline",
)

#: every field a valid manifest carries
REQUIRED_FIELDS = FINGERPRINT_FIELDS + ("wall_s", "host_cpus", "fingerprint")


def manifest_fingerprint(manifest: Dict[str, object]) -> str:
    """sha256 over the canonical deterministic subset of a manifest."""
    body = {field: manifest.get(field) for field in FINGERPRINT_FIELDS}
    return canonical_hash(body, length=None)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------


def build_manifest(
    verb: str,
    document: Dict[str, object],
    *,
    label: str = "local",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    args: Optional[Dict[str, object]] = None,
    wall_s: float = 0.0,
) -> Dict[str, object]:
    manifest: Dict[str, object] = {
        "schema": SCHEMA,
        "verb": verb,
        "label": label,
        "seed": seed,
        "workers": workers,
        "args": dict(args or {}),
        "doc_schema": document.get("schema"),
        # the faults document carries its fingerprint on the campaign
        "doc_fingerprint": document.get("fingerprint")
        or (document.get("campaign") or {}).get("fingerprint"),
        "headline": headline(verb, document),
        "wall_s": round(float(wall_s), 3),
        "host_cpus": os.cpu_count() or 1,
    }
    manifest["fingerprint"] = manifest_fingerprint(manifest)
    return manifest


def record_run(
    verb: str,
    document: Dict[str, object],
    *,
    label: str = "local",
    seed: Optional[int] = None,
    workers: Optional[int] = None,
    args: Optional[Dict[str, object]] = None,
    wall_s: float = 0.0,
    directory: Optional[str] = None,
) -> str:
    """Append one manifest to the ledger; returns the path written."""
    directory = resolve_dir(directory)
    os.makedirs(directory, exist_ok=True)
    manifest = build_manifest(
        verb, document, label=label, seed=seed, workers=workers,
        args=args, wall_s=wall_s,
    )
    seq = _claim_seq(directory)
    name = f"{seq:06d}_{verb}_{manifest['fingerprint'][:12]}.json"
    path = os.path.join(directory, name)
    write_json(path, manifest)
    return path


def _claim_seq(directory: str) -> int:
    """Claim the next sequence number with an ``O_CREAT | O_EXCL`` create.

    The search starts past every claim and every manifest present; a
    concurrent run that claimed the same number first makes the create
    fail, and this run moves on to the next number.
    """
    claims = os.path.join(directory, CLAIMS_DIR)
    os.makedirs(claims, exist_ok=True)
    prefixes = os.listdir(claims) + [
        name.split("_", 1)[0] for name in os.listdir(directory)
        if name.endswith(".json")
    ]
    seq = max((int(p) for p in prefixes if p.isdigit()), default=-1) + 1
    while True:
        try:
            fd = os.open(
                os.path.join(claims, f"{seq:06d}"),
                os.O_CREAT | os.O_EXCL | os.O_WRONLY,
            )
        except FileExistsError:
            seq += 1
            continue
        os.close(fd)
        return seq


# ----------------------------------------------------------------------
# querying
# ----------------------------------------------------------------------


def validate_manifest(manifest: Dict[str, object]) -> None:
    """Raise ``ValueError`` on a malformed or tampered manifest."""
    if manifest.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported ledger schema {manifest.get('schema')!r} "
            f"(want {SCHEMA!r})"
        )
    missing = [f for f in REQUIRED_FIELDS if f not in manifest]
    if missing:
        raise ValueError(f"manifest missing fields: {', '.join(missing)}")
    expected = manifest_fingerprint(manifest)
    if manifest["fingerprint"] != expected:
        raise ValueError(
            f"manifest fingerprint mismatch: recorded "
            f"{manifest['fingerprint']!r}, recomputed {expected!r}"
        )


def list_runs(
    directory: Optional[str] = None, verb: Optional[str] = None
) -> List[Dict[str, object]]:
    """Every recorded manifest in recording (filename) order.

    Each returned dict gains a non-schema ``path`` key for display.
    Malformed files raise ``ValueError`` naming the file — a corrupt
    ledger should be loud, not silently skipped.
    """
    directory = resolve_dir(directory)
    if not os.path.isdir(directory):
        return []
    runs: List[Dict[str, object]] = []
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        path = os.path.join(directory, name)
        try:
            with open(path) as fh:
                manifest = json.load(fh)
            if not isinstance(manifest, dict):
                raise ValueError("not a JSON object")
            validate_manifest(manifest)
        except ValueError as exc:  # json.JSONDecodeError included
            raise ValueError(f"malformed ledger manifest {path}: {exc}") from exc
        if verb is not None and manifest.get("verb") != verb:
            continue
        manifest["path"] = path
        runs.append(manifest)
    return runs


def runs_table(runs: List[Dict[str, object]]) -> str:
    """One-line-per-run summary table (``repro runs list``)."""
    rows = []
    for run in runs:
        head = run.get("headline", {})
        summary = " ".join(
            f"{key}={_fmt(value)}" for key, value in sorted(head.items())
        )
        rows.append([
            os.path.basename(str(run.get("path", ""))).split("_")[0],
            run["verb"], run["label"],
            run["seed"] if run["seed"] is not None else "-",
            run["workers"] if run["workers"] is not None else "-",
            run["wall_s"], str(run["doc_fingerprint"])[:12], summary,
        ])
    return format_table(
        ["seq", "verb", "label", "seed", "workers", "wall_s",
         "doc_fingerprint", "headline"],
        rows,
    )


def trajectory_table(runs: List[Dict[str, object]]) -> str:
    """Headline figures across runs, one row per run, one column per
    headline key (``repro runs trajectory``)."""
    keys: List[str] = []
    for run in runs:
        for key in sorted(run.get("headline", {})):
            if key not in keys:
                keys.append(key)
    rows = []
    for run in runs:
        head = run.get("headline", {})
        rows.append(
            [os.path.basename(str(run.get("path", ""))).split("_")[0],
             run["verb"], run["label"], run["wall_s"]]
            + [_fmt(head.get(key, "-")) for key in keys]
        )
    return format_table(["seq", "verb", "label", "wall_s"] + keys, rows)


def _fmt(value: object) -> object:
    if isinstance(value, float):
        return f"{value:.6g}"
    return value
