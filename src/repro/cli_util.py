"""Shared wiring for CLI verbs that persist comparable JSON documents.

``bench``, ``perf``, ``fleet``, ``slo`` and ``replay`` all follow the
same contract: run a suite, save a schema-tagged document whose
fingerprint makes runs comparable, and (with ``--compare``) diff two
such documents with a direction-aware threshold.  Each verb names its
row of :data:`repro.doc.KINDS`; the argument set and the compare flow
are held here once.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Tuple

from . import doc
from .obs.export import metrics_json, prometheus_text


def add_document_args(
    parser: argparse.ArgumentParser,
    kind: str,
    threshold_help: Optional[str] = None,
) -> None:
    """Attach the --label/--json/--compare/--threshold/--warn-only set."""
    prefix = kind.upper()
    threshold = doc.KINDS[kind].threshold
    parser.add_argument(
        "--label", default=None,
        help="document label (default: 'smoke' or 'full')",
    )
    parser.add_argument(
        "--json", nargs="?", const=None, default=None, metavar="PATH",
        help=f"write the {prefix} document here "
             f"(default: {prefix}_<label>.json)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("BASELINE", "CANDIDATE"),
        help=f"compare two {prefix} documents instead of running; "
             "exits 1 when a regression exceeds the threshold",
    )
    parser.add_argument(
        "--threshold", type=float, default=threshold,
        help=threshold_help
        or f"relative regression threshold (default {threshold:.2f})",
    )
    parser.add_argument(
        "--warn-only", action="store_true",
        help="report regressions but always exit 0",
    )


def add_workers_arg(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--workers N`` flag (default: serial path).

    Only ``bench`` and ``perf`` take it: both route their shards through
    :mod:`repro.par`, whose canonical merge makes the parallel output
    byte-identical to serial.
    """
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard the run across N worker processes (default: serial; "
             "output is byte-identical either way)",
    )


def add_ledger_args(parser: argparse.ArgumentParser) -> None:
    """Attach the run-ledger flags every document verb shares.

    Each run appends a fingerprinted manifest to the persistent ledger
    (``repro runs`` queries it); ``--no-ledger`` opts a run out.
    """
    parser.add_argument(
        "--ledger-dir", default=None, metavar="DIR",
        help="run-ledger directory (default: $REPRO_LEDGER_DIR or "
             "benchmarks/ledger)",
    )
    parser.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run's manifest to the run ledger",
    )


def record_ledger(
    args: argparse.Namespace,
    verb: str,
    document: dict,
    *,
    label: str = "local",
    seed: Optional[int] = None,
    wall_s: float = 0.0,
    extra: Optional[dict] = None,
) -> Optional[str]:
    """Append this run's manifest to the ledger (unless --no-ledger)."""
    if getattr(args, "no_ledger", False):
        return None
    from .obs import ledger

    path = ledger.record_run(
        verb, document, label=label, seed=seed,
        workers=getattr(args, "workers", None),
        args=extra, wall_s=wall_s,
        directory=getattr(args, "ledger_dir", None),
    )
    print(f"recorded run manifest {path}")
    return path


def write_metrics(args: argparse.Namespace, registry) -> None:
    """Write the ``--metrics-json`` / ``--prom`` exports a verb asked for."""
    if getattr(args, "metrics_json", None):
        doc.write_text(args.metrics_json, metrics_json(registry))
        print(f"wrote metrics JSON to {args.metrics_json}")
    if getattr(args, "prom", None):
        doc.write_text(args.prom, prometheus_text(registry))
        print(f"wrote Prometheus metrics to {args.prom}")


def document_path(args: argparse.Namespace, kind: str) -> Tuple[str, str]:
    """Resolve the (label, output path) pair for a document run."""
    label = args.label or ("smoke" if getattr(args, "smoke", False) else "full")
    path = args.json or f"{kind.upper()}_{label}.json"
    return label, path


def run_compare(args: argparse.Namespace, kind: str) -> Optional[int]:
    """Execute the --compare flow if requested; None means "not asked".

    Returns 1 when a regression passes the threshold (0 with --warn-only)
    and 2, after one line naming the file, when either document cannot
    be read as a valid ``kind`` document.
    """
    if not getattr(args, "compare", None):
        return None
    try:
        baseline, candidate = (doc.load(path, kind) for path in args.compare)
    except (OSError, ValueError) as exc:
        print(f"{kind} compare: {exc}", file=sys.stderr)
        return 2
    comparison = doc.compare(baseline, candidate, threshold=args.threshold)
    print(comparison.report())
    if comparison.ok or args.warn_only:
        return 0
    return 1
