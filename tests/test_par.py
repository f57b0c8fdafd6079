"""The parallel engine: canonical merge, failure modes, determinism.

Spawned pools cost real wall-clock on small hosts, so every parallel
test here uses the smallest config that still proves its property.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.errors import InvalidArgument
from repro.faults import hooks as fault_hooks
from repro.fleet.spec import FleetConfig
from repro.fs import extent_map
from repro.obs import hooks as obs_hooks
from repro.obs.hooks import Instrumentation
from repro.par import ShardError, resolve_workers, run_sharded


# ----------------------------------------------------------------------
# module-level shard functions (must pickle into spawn workers)
# ----------------------------------------------------------------------

def _square(x):
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("two is right out")
    return x


def _sleep_then_value(payload):
    delay, value = payload
    time.sleep(delay)
    return value


def _report_globals(_):
    # even under an armed parent the shard sees the null facade — never
    # the parent's (or a polluted) registry
    return (
        extent_map.DEBUG_CHECKS,
        obs_hooks.current() is obs_hooks.NULL,
        fault_hooks.current() is fault_hooks.NULL,
    )


# ----------------------------------------------------------------------
# run_sharded
# ----------------------------------------------------------------------

def test_resolve_workers_validation():
    assert resolve_workers(None) is None
    assert resolve_workers(1) == 1
    assert resolve_workers(8) == 8
    with pytest.raises(InvalidArgument):
        resolve_workers(0)
    with pytest.raises(InvalidArgument):
        resolve_workers(-3)


def test_serial_path_runs_in_process():
    # workers=None never spawns: a closure (unpicklable) works fine
    seen = []

    def record(x):
        seen.append(x)
        return x + 1

    assert run_sharded(record, [1, 2, 3]) == [2, 3, 4]
    assert seen == [1, 2, 3]


def test_empty_payloads_short_circuit():
    obs = Instrumentation()
    with obs_hooks.use(obs):
        assert run_sharded(_square, [], workers=4) == []
    metrics = obs.registry.to_dict()
    assert metrics["par.plans"]["value"] == 1
    assert metrics["par.shards"]["value"] == 0


def test_merge_is_shard_order_not_completion_order():
    # shard 0 sleeps past shard 1's finish; the merge must still return
    # results in payload order
    results = run_sharded(
        _sleep_then_value, [(0.4, "slow"), (0.0, "fast")], workers=2
    )
    assert results == ["slow", "fast"]


def test_shard_error_carries_index_and_discards_partials():
    with pytest.raises(ShardError) as excinfo:
        run_sharded(_fail_on_two, [1, 2, 3], workers=2)
    error = excinfo.value
    assert error.shard == 1
    assert error.cause_type == "ValueError"
    assert "two is right out" in str(error)
    assert "ValueError" in error.traceback_text


def test_worker_state_is_scrubbed_despite_polluted_parent():
    # arm every global the parent could leak; the worker must still see
    # a fresh process (satellite: worker-first-result == fresh-process)
    plane = fault_hooks.FaultPlane(
        FleetConfig.smoke(volumes=2, faults=True).fault_plan()
    )
    extent_map.DEBUG_CHECKS = True
    try:
        with obs_hooks.use(Instrumentation()):
            with fault_hooks.use(plane):
                (state,) = run_sharded(_report_globals, [0], workers=1)
    finally:
        extent_map.DEBUG_CHECKS = False
    debug_checks, obs_is_clean, faults_is_null = state
    assert debug_checks is False
    assert obs_is_clean and faults_is_null


def test_perf_fingerprint_identical(tmp_path):
    from repro.perf import suite

    doc_serial, res_serial = suite.run_suite(smoke=True, profile=False)
    doc_par, res_par = suite.run_suite(smoke=True, profile=False, workers=2)
    assert doc_par["fingerprint"] == doc_serial["fingerprint"]
    assert list(doc_par["layers"]) == list(doc_serial["layers"])
    assert [r.ops for r in res_par] == [r.ops for r in res_serial]


# ----------------------------------------------------------------------
# serial-vs-parallel document identity (the bench path)
# ----------------------------------------------------------------------

def test_bench_identity_under_polluted_parent():
    from repro.bench.suite import run_suite

    clean, _ = run_suite(smoke=True)
    extent_map.DEBUG_CHECKS = True
    try:
        with obs_hooks.use(Instrumentation()):
            polluted, _ = run_suite(smoke=True, workers=2)
    finally:
        extent_map.DEBUG_CHECKS = False
    assert json.dumps(polluted, sort_keys=True) == json.dumps(
        clean, sort_keys=True
    )
    assert polluted["fingerprint"] == clean["fingerprint"]


def test_scaling_curve_measures_bench_figure_shards():
    from repro.perf.suite import scaling_curve

    curve = scaling_curve(worker_counts=(1, 2), smoke=True)
    assert curve["workload"] == "bench_figure_shards"
    assert curve["shards"] == 3  # two synthetic device grids + fileserver
    assert [point["workers"] for point in curve["points"]] == [1, 2]
    for point in curve["points"]:
        assert point["wall_s"] > 0
        assert point["efficiency"] == point["speedup"] / point["workers"]
