"""Cold start: importing the package's entry points leaves numpy unloaded.

numpy costs about a sixth of a second to import.  Only the paper's
correlation statistics need it, so they import it on first use; every
interpreter start and every spawned ``repro.par`` worker skips it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.bench.suite",
    "repro.fleet",
    "repro.replay.report",
    "repro.faults.campaign",
)


def test_entry_points_do_not_import_numpy():
    code = "\n".join(
        ["import sys"]
        + [f"import {module}" for module in ENTRY_POINTS]
        + ["print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"]
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_statistics_still_use_numpy_on_demand():
    from repro.stats.correlation import correlation_coefficient, nlrs

    assert correlation_coefficient([1, 2, 3], [2, 4, 6]) == 1.0
    assert nlrs([1, 2, 3], [1, 2, 3]) == 1.0
