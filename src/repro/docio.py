"""Atomic JSON document writes.

Every persisted document (BENCH/PERF/FLEET/SLO/REPLAY files and run-ledger
manifests) goes through :func:`write_json`: the bytes land in a temp file
in the target's directory, then ``os.replace`` swaps it in.  A reader
therefore sees either the previous file or the complete new one — never
a torn document — and a write that fails midway leaves no temp behind.
"""

from __future__ import annotations

import contextlib
import json
import os


def write_json(path: str, document: object) -> None:
    """Write ``document`` as indented, key-sorted JSON, atomically."""
    directory, name = os.path.split(os.path.abspath(path))
    temp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w") as fh:
            json.dump(document, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)
        raise
