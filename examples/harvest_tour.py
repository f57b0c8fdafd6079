#!/usr/bin/env python3
"""Harvest tour: worker telemetry surviving the process boundary.

Runs the bench smoke figures across 2 spawned workers with the
observability plane armed.  Spawned workers start from the null
instrumentation, so each figure runs under its own child plane whose
snapshot rides back with the result and merges into the parent strictly
in shard order.  Then an armed fleet shows the same merge in process:
every volume records onto its own child plane, provenance included.
The tour shows what came back:

- merged counters (`par.*` mirrors, one `obs.harvest.snapshots` tick
  per merged snapshot),
- per-shard span tracks (`shard0/...`, `shard1/...`),
- a flamegraph built from the fleet's *merged* provenance ring — volume
  pids were re-based on merge, so the combined ring still parses into
  one syscall→command forest,
- and the run's manifest appended to the persistent ledger, queried
  back with the same machinery `repro runs` uses.

Run:  PYTHONPATH=src python examples/harvest_tour.py
"""

import time

from repro.bench.suite import run_suite
from repro.fleet import FleetConfig, run_fleet
from repro.obs import hooks, ledger
from repro.obs.critical_path import write_flamegraph
from repro.obs.hooks import Instrumentation
from repro.obs.provenance import build_forest

FLAME_PATH = "harvest_tour_flame.txt"
LEDGER_DIR = "harvest_tour_ledger"
WORKERS = 2


def main() -> None:
    obs = Instrumentation()
    start = time.perf_counter()
    with hooks.use(obs):
        document, _ = run_suite(smoke=True, label="harvest-tour", obs=obs,
                                workers=WORKERS)
    wall_s = time.perf_counter() - start

    print(f"== bench smoke figures across {WORKERS} workers ==")
    print(f"  fingerprint : {document['fingerprint']}")
    print(f"  wall        : {wall_s:.3f} s")

    print("\n== counters that crossed the process boundary ==")
    metrics = obs.registry.to_dict()
    for name in ("block.requests", "par.plans", "par.shards",
                 "obs.harvest.snapshots"):
        print(f"  {name:24s} {metrics[name]['value']:>8.0f}")

    tracks = sorted({s.track for s in obs.spans.finished_spans()})
    print(f"\n== {len(tracks)} merged span tracks (one namespace per shard) ==")
    for track in tracks[:8]:
        print(f"  {track}")

    # per-volume planes with provenance, merged back in spec order: the
    # merged ring parses into one forest because pids were re-based
    fleet_obs = Instrumentation(provenance=True)
    with hooks.use(fleet_obs):
        run_fleet(FleetConfig.smoke(volumes=4, seed=11))
    forest = build_forest(fleet_obs.spans)
    trees = forest.complete_trees()
    print(f"\n== merged fleet provenance: {len(trees)} complete syscall trees ==")
    write_flamegraph(FLAME_PATH, forest, fleet_obs.spans)
    print(f"wrote collapsed-stack flamegraph to {FLAME_PATH} "
          "(feed to flamegraph.pl or speedscope)")

    # append this run to a ledger and query it back, `repro runs`-style
    ledger.record_run(
        "bench", document, label="harvest-tour", workers=WORKERS,
        args={"smoke": True}, wall_s=wall_s, directory=LEDGER_DIR,
    )
    runs = ledger.list_runs(LEDGER_DIR)
    print(f"\n== run ledger ({LEDGER_DIR}/, {len(runs)} run(s)) ==")
    print(ledger.runs_table(runs))


if __name__ == "__main__":
    main()
