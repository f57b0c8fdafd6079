"""The four benchmark workloads, each driving ``repro``'s public functions.

A workload builds its inputs from the seed once (:meth:`setup`), then
runs rounds (:meth:`run_round`); :meth:`check` turns one round's outputs
into ``(attempted, failed, digest)``.  Rounds run the same input, except
where :meth:`input_key` gives round ``i`` an input of its own.  A unit -- grid
cell, fleet tick, replay record, crash point or campaign trial -- fails
when it raised or failed its correctness check.  The digest covers the
simulated outputs only, so it is equal across rounds, traced or not, and
across builds that change host speed but not the simulation.

No workload sets ``workers``: spawned workers would compete with the
measuring process on a small host, so ``repro.par`` stays serial.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Dict, List, Optional, Tuple

from repro.constants import MIB

Outcome = Tuple[int, int, str]


def digest(value: object) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


class Workload:
    name = "abstract"

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def input_key(self, index: int) -> int:
        """Rounds with equal keys run equal inputs."""
        return 0

    def run_round(self, index: int):
        raise NotImplementedError

    def check(self, output) -> Outcome:
        raise NotImplementedError


class SyntheticGrid(Workload):
    """Figures 8/9: every (variant, pattern) cell on three fs/device pairs."""

    name = "synthetic_grid"
    COMBOS = (("ext4", "optane"), ("f2fs", "flash"), ("btrfs", "flash"))
    VARIANTS = ("original", "conv", "fragpicker", "fragpicker_b")
    FILE_SIZE = 3 * MIB

    def setup(self, seed: int) -> None:
        from repro.bench.experiments import synthetic_defrag

        self.module = synthetic_defrag
        self.cells = [
            (fs_type, device, variant, pattern)
            for fs_type, device in self.COMBOS
            for variant in self.VARIANTS
            for pattern in synthetic_defrag.PATTERNS
        ]
        # the seed orders the cells; every order runs the same work
        random.Random(seed).shuffle(self.cells)

    def run_round(self, index: int) -> List[tuple]:
        module = self.module
        apply_variant = module._apply_variant
        probes: List[tuple] = []

        def probed(fs, variant, path, pattern_fn, now, hotness):
            before = _file_state(fs, path)
            now, report = apply_variant(fs, variant, path, pattern_fn, now, hotness)
            probes.append((before, _file_state(fs, path), report))
            return now, report

        outcomes = []
        module._apply_variant = probed
        try:
            for fs_type, device, variant, pattern in self.cells:
                del probes[:]
                try:
                    result = module.run(fs_type, device, file_size=self.FILE_SIZE,
                                        variants=(variant,), patterns=(pattern,))
                except Exception as exc:  # a failed unit, counted by check()
                    outcomes.append((fs_type, device, variant, pattern, None, None, repr(exc)))
                    continue
                outcomes.append((fs_type, device, variant, pattern,
                                 result.cell(variant, pattern),
                                 probes[0] if len(probes) == 1 else None, None))
        finally:
            module._apply_variant = apply_variant
        return outcomes

    def check(self, outcomes) -> Outcome:
        failed = 0
        figures = {}
        for fs_type, device, variant, pattern, cell, probe, error in outcomes:
            key = f"{fs_type}/{device}/{variant}/{pattern}"
            if error is not None or probe is None or not _cell_ok(variant, cell, probe):
                failed += 1
                figures[key] = error or "check failed"
                continue
            figures[key] = [cell.throughput_mbps, cell.defrag_read_mb,
                            cell.defrag_write_mb, cell.defrag_elapsed,
                            cell.fragments_after]
        return len(outcomes), failed, digest(figures)


def _file_state(fs, path: str) -> tuple:
    """(size, mapped bytes, content digest) of one file."""
    inode = fs.inode_of(path)
    if fs.page_store.any_content(inode.ino, 0, inode.size):
        content = hashlib.sha256(fs.page_store.read(inode.ino, 0, inode.size)).hexdigest()
    else:
        content = "zeros"
    return inode.size, inode.extent_map.mapped_bytes, content


def _cell_ok(variant: str, cell, probe) -> bool:
    """Defrag kept every byte, and no defrag variant left more fragments
    than the file had before it ran."""
    before, after, report = probe
    if before != after:
        return False
    if variant == "original":
        return report is None
    return (report is not None
            and cell.fragments_after == sum(report.fragments_after.values())
            and cell.fragments_after <= sum(report.fragments_before.values()))


class Fleet(Workload):
    """Seed-keyed 64-volume fleets at default knobs, run serially.

    The volume mix one fleet seed draws moves host time by about 10%, so
    rounds cycle over ``FLEETS`` fleets seeded from ``(seed, i)`` and the
    median over a run's rounds averages the mix.
    """

    name = "fleet"
    VOLUMES = 64
    FLEETS = 4

    def setup(self, seed: int) -> None:
        self.seed = seed

    def input_key(self, index: int) -> int:
        return index % self.FLEETS

    def config(self, index: int):
        from repro.fleet import FleetConfig

        fleet_seed = random.Random(f"{self.seed}:{index}").getrandbits(32)
        return FleetConfig(volumes=self.VOLUMES, seed=fleet_seed)

    def run_round(self, index: int):
        from repro.fleet import run_fleet

        config = self.config(self.input_key(index))
        try:
            return config, run_fleet(config).to_dict(), None
        except Exception as exc:
            return config, None, repr(exc)

    def check(self, output) -> Outcome:
        config, document, error = output
        ticks = config.ticks
        if error is None:
            error = _fleet_error(document, config)
        if error is not None:
            return ticks, ticks, error
        budget = config.budget_per_tick
        failed = sum(1 for row in document["census"]["ticks"]
                     if budget is not None and row["migrated_bytes"] > budget)
        return ticks, failed, document["fingerprint"]


def _fleet_error(document: Dict[str, object], config) -> Optional[str]:
    """Schema check of a ``repro.fleet/v1`` document (None when valid)."""
    from repro.fleet.report import SCHEMA, fingerprint

    if document.get("schema") != SCHEMA:
        return f"bad schema {document.get('schema')!r}"
    for section in ("jobs", "migration", "foreground", "census"):
        if not isinstance(document.get(section), dict):
            return f"missing section {section!r}"
    if document.get("fingerprint") != fingerprint(document):
        return "fingerprint mismatch"
    if len(document["census"]["ticks"]) != config.ticks:
        return "tick rows missing"
    if document["volumes"] != config.volumes:
        return "volume count mismatch"
    return None


class Replay(Workload):
    """A seeded 70/30 read/write corpus replayed on ext4/flash."""

    name = "replay"
    OPS = 20_000

    def setup(self, seed: int) -> None:
        from repro.replay import TraceProfile, generate_trace
        from repro.replay.report import ReplayConfig

        # the corpus lives in an anonymous memory file, open for the life
        # of the process, so no run writes into the checkout
        self.fd = os.memfd_create("hostbench-corpus")
        self.path = f"/proc/self/fd/{self.fd}"
        self.records = generate_trace(self.path, TraceProfile(ops=self.OPS, seed=seed))
        self.config = ReplayConfig(fs_type="ext4", device="flash", seed=seed)

    def run_round(self, index: int):
        from repro.replay import BinaryTraceReader
        from repro.replay.report import run_replay

        try:
            result = run_replay("corpus.bin", self.config,
                                reader=BinaryTraceReader(self.path))
            return result.to_dict(label="hostbench"), None
        except Exception as exc:
            return None, repr(exc)

    def check(self, output) -> Outcome:
        from repro.replay.report import validate

        document, error = output
        if error is None:
            try:
                validate(document)
            except ValueError as exc:
                error = str(exc)
        if error is not None or document["parse"]["records"] != self.records:
            return self.records, self.records, error or "records lost in parsing"
        failed = abs(self.records - document["reconstruction"]["ops"])
        return self.records, failed, document["fingerprint"]


class CrashMatrix(Workload):
    """Crash sweeps over fs x tool, plus a seeded storm series."""

    name = "crash_matrix"
    FS_TYPES = ("ext4", "f2fs", "btrfs")
    FILES = 4
    PIECES = 16
    TRIALS = 32

    def setup(self, seed: int) -> None:
        from repro.faults.campaign import CampaignConfig
        from repro.faults.crashpoints import TOOLS

        self.seed = seed
        self.sweeps = [(fs_type, tool) for fs_type in self.FS_TYPES for tool in TOOLS]
        self.campaign = CampaignConfig(seed=seed)

    def run_round(self, index: int):
        from repro.faults.campaign import run_campaign_series
        from repro.faults.crashpoints import crash_sweep

        results = []
        for fs_type, tool in self.sweeps:
            try:
                results.append(crash_sweep(fs_type=fs_type, tool=tool, files=self.FILES,
                                           pieces=self.PIECES, seed=self.seed).to_dict())
            except Exception as exc:
                results.append({"fs_type": fs_type, "tool": tool, "error": repr(exc)})
        try:
            series = run_campaign_series(self.campaign, trials=self.TRIALS)
            trials = [t.data_intact and not t.pending_after_recovery for t in series.trials]
            results.append({"campaign": series.fingerprint, "intact": trials})
        except Exception as exc:
            results.append({"campaign": None, "error": repr(exc)})
        return results

    def check(self, results) -> Outcome:
        attempted = failed = 0
        for result in results:
            if "error" in result:
                attempted += 1
                failed += 1
            elif "campaign" in result:
                attempted += len(result["intact"])
                failed += result["intact"].count(False)
            else:
                attempted += result["points"]
                failed += result["points"] - result["recovered"]
        return attempted, failed, digest(results)


WORKLOADS = {w.name: w for w in (SyntheticGrid, Fleet, Replay, CrashMatrix)}
