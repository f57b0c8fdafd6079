"""Checks on the benchmark itself.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest -q hostbench/test_hostbench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import load_metrics  # noqa: E402
from tracer import LAYERS, Tracer, accounting_error  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _traced_run(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=170,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stdout
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_across_runs_and_hash_seeds(workload):
    first = _traced_run(workload, "0")
    second = _traced_run(workload, "1")
    for name in load_metrics()[2]:
        assert first[name]["value"] == second[name]["value"], name
    assert first["fs.syscalls"]["value"] > 0


def test_traced_round_accounts_for_all_self_time():
    from run import traced_round

    workload = WORKLOADS["crash_matrix"]()
    workload.setup(3)
    wall, summary, _ = traced_round(workload, Tracer(), 0)
    assert accounting_error(summary, wall) is None
    assert all(summary[f"{layer}.self_s"] >= 0 for layer in LAYERS)
    assert summary["faults.self_s"] > 0 and summary["fs.self_s"] > 0


def test_accounting_error_flags_unbalanced_and_negative_splits():
    tracer = Tracer()
    summary = tracer.summary(1.0)
    assert summary["harness.residual_s"] == 1.0
    assert accounting_error(summary, 1.0) is None
    assert accounting_error(summary, 1.5) is not None
    summary["fs.self_s"] = -0.5
    summary["harness.residual_s"] = 1.5
    assert "negative" in accounting_error(summary, 1.0)


def test_remove_restores_every_entry_point():
    from repro.bench.experiments import synthetic_defrag
    from repro.fs.base import Filesystem
    from repro.sim import engine

    before = (Filesystem.read, synthetic_defrag.PATTERNS["seq_read"],
              engine.run_concurrently)
    tracer = Tracer().install()
    assert Filesystem.read is not before[0]
    assert synthetic_defrag.PATTERNS["seq_read"] is not before[1]
    tracer.remove()
    after = (Filesystem.read, synthetic_defrag.PATTERNS["seq_read"],
             engine.run_concurrently)
    assert after == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "fleet", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
