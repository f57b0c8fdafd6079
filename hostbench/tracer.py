"""Host-time spans around the public entry points of each ``repro`` layer.

A :class:`Tracer` installs timing wrappers (class methods are replaced on
the class that defines them; module functions are replaced in every
``repro`` module, and every module-level dict, that holds a reference to
them) and removes them again in :meth:`Tracer.remove`.  Untraced runs
never construct one, so they execute the program unmodified.

Every wrapped call records one span: name, start, end and parent span.
Spans live in flat arrays while the round runs; :meth:`Tracer.summary`
folds them into per-layer self time (a span's duration minus that of its
child spans), calls into each layer, and the few named figures the
benchmark reports.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

#: layer name of each ``repro`` sub-package that has spans
LAYERS = (
    "bench", "workloads", "fs", "block", "device", "core", "tools",
    "sim", "fleet", "replay", "obs", "faults",
)

#: (module, class or None, attribute names, layer); class entries are
#: wrapped on the named class and on every subclass that overrides them
SPEC: Tuple[Tuple[str, Optional[str], Tuple[str, ...], str], ...] = (
    ("repro.bench.experiments.synthetic_defrag", None, ("run",), "bench"),
    ("repro.bench.harness", None, ("fresh_fs",), "bench"),
    ("repro.workloads.synthetic", None,
     ("sequential_read", "stride_read", "sequential_update", "stride_update"),
     "workloads"),
    ("repro.fs.base", "Filesystem",
     ("open", "create", "read", "write", "fsync", "sync", "fallocate",
      "truncate", "unlink", "drop_caches"), "fs"),
    ("repro.fs.fiemap", None, ("fiemap", "fragment_count", "is_fragmented"), "fs"),
    ("repro.block.scheduler", "BlockScheduler", ("submit",), "block"),
    ("repro.device.base", "StorageDevice", ("submit",), "device"),
    ("repro.core.fragpicker", "FragPicker",
     ("analyze", "bypass_plans", "defragment", "defragment_bypass", "cursor"), "core"),
    ("repro.core.fragpicker", "MigrationCursor", ("migrate_next", "finish"), "core"),
    ("repro.core.recovery", "MigrationJournal", ("recover",), "core"),
    ("repro.tools.conventional", "ConventionalDefragmenter", ("defragment",), "tools"),
    ("repro.fleet.controller", None, ("run_fleet",), "fleet"),
    ("repro.fleet.controller", "FleetController", ("begin", "run_tick", "finish"), "fleet"),
    ("repro.replay.report", None, ("run_replay",), "replay"),
    ("repro.replay.reconstruct", "Reconstructor", ("run", "apply"), "replay"),
    ("repro.obs.hooks", "Instrumentation",
     ("syscall", "fs_cpu", "block_submit", "device_command", "device_batch",
      "fault_injected", "migration_retry", "migration_failed",
      "recovery_replayed", "span_start", "span_finish", "event", "actor_step"),
     "obs"),
    ("repro.obs.sampler", "FragmentationSampler", ("maybe_sample", "sample"), "obs"),
    ("repro.obs.analysis", None, ("delta_metrics", "attribute", "histogram_summary"), "obs"),
    ("repro.faults.crashpoints", None, ("crash_sweep", "count_migration_syscalls"), "faults"),
    ("repro.faults.campaign", None, ("run_campaign_series", "run_campaign"), "faults"),
    ("repro.faults.hooks", "FaultPlane", ("check",), "faults"),
)

#: scenario builders: spans in the ``workloads`` layer whose outermost
#: calls are counted as builds
BUILDERS: Tuple[Tuple[str, str], ...] = (
    ("repro.workloads.synthetic", "make_paper_synthetic_file"),
    ("repro.workloads.synthetic", "make_fragmented_file"),
    ("repro.workloads.aging", "age_filesystem"),
    ("repro.faults.crashpoints", "build_scenario"),
    ("repro.fleet.controller", "build_volumes"),
)

#: spans whose return values the summary reads: FragPicker's reports
#: (bytes migrated) and crash-sweep reports (crash points)
_MIGRATING = ("FragPicker.defragment", "FragPicker.defragment_bypass",
              "MigrationCursor.finish")
_SWEEP = "crash_sweep"
_READER_STEP = "TraceReader.next"
_TICK = "FleetController.run_tick"
_RECOVER = "MigrationJournal.recover"
_SUBMIT = "BlockScheduler.submit"


def layer_of_module(module: str) -> str:
    """``repro.<pkg>....`` -> the layer the package belongs to."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return "sim"


class Tracer:
    """Records host-time spans around each layer's public entry points."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._layer_of: List[str] = []
        self._builder: List[bool] = []
        self._ids: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    # -- recording ------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans (wrappers stay installed)."""
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("l")
        self.parents = array("l")
        self.stack: List[int] = []
        self.commands = 0
        self.records = 0
        self.caches: List[object] = []
        self.results: Dict[int, Tuple[str, object]] = {}

    def _name_id(self, name: str, layer: str, builder: bool = False) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
            self._layer_of.append(layer)
            self._builder.append(builder)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.starts)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.name_ids.append(name_id)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def span(self, fn: Callable, name: str, layer: str, builder: bool = False) -> Callable:
        """``fn`` wrapped so each call records a span."""
        name_id = self._name_id(name, layer, builder)
        tracer = self
        if name == _SUBMIT:
            def wrapper(self_, commands, *args, **kwargs):
                tracer.commands += len(commands)
                index = tracer._open(name_id)
                try:
                    return fn(self_, commands, *args, **kwargs)
                finally:
                    tracer._close(index)
        elif name in _MIGRATING or name == _SWEEP:
            def wrapper(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                tracer.results[id(result)] = (name, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        return functools.wraps(fn)(wrapper)

    def steps(self, gen, name: str, layer: str):
        """Iterate ``gen``, recording one span per step it takes."""
        name_id = self._name_id(name, layer)
        while True:
            index = self._open(name_id)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # -- installation ---------------------------------------------------

    def install(self) -> "Tracer":
        import importlib

        for module_name, class_name, attrs, layer in SPEC:
            module = importlib.import_module(module_name)
            if class_name is None:
                for attr in attrs:
                    self._patch_function(module, attr, layer)
            else:
                self._patch_class(getattr(module, class_name), attrs, layer)
        for module_name, attr in BUILDERS:
            self._patch_function(importlib.import_module(module_name), attr,
                                 "workloads", builder=True)
        self._patch_reader()
        self._patch_engine()
        self._patch_page_cache()
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def _patch_class(self, cls: type, attrs: Tuple[str, ...], layer: str) -> None:
        classes = [cls]
        index = 0
        while index < len(classes):
            classes.extend(classes[index].__subclasses__())
            index += 1
        for klass in classes:
            for attr in attrs:
                fn = klass.__dict__.get(attr)
                if callable(fn):
                    self._set(klass, attr, self.span(fn, f"{cls.__name__}.{attr}", layer))

    def _patch_function(self, module, attr: str, layer: str, builder: bool = False,
                        make: Optional[Callable] = None) -> None:
        """Replace ``module.attr`` everywhere a ``repro`` module holds it
        (``make`` adapts the function before it is wrapped)."""
        original = getattr(module, attr)
        target = make(original) if make is not None else original
        wrapper = self.span(target, attr, layer, builder)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    self._set(mod, key, wrapper)
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            self._set(value, dkey, wrapper)

    def _patch_reader(self) -> None:
        from repro.replay.formats import TraceReader

        original = TraceReader.__dict__["__iter__"]
        tracer = self

        def __iter__(reader):
            for record in tracer.steps(original(reader), _READER_STEP, "replay"):
                tracer.records += 1
                yield record

        self._set(TraceReader, "__iter__", __iter__)

    def _patch_engine(self) -> None:
        """Actor generators run inside ``run_concurrently``: give every
        actor step a span in the layer that defined the actor."""
        from repro.sim import engine

        tracer = self

        def traced(fn):
            layer = layer_of_module(getattr(fn, "__module__", "") or "")
            return lambda ctx: tracer.steps(fn(ctx), f"actor.{layer}", layer)

        def stepping(original):
            def run_concurrently(actors, *args, **kwargs):
                actors = {name: traced(fn) for name, fn in actors.items()}
                return original(actors, *args, **kwargs)
            return run_concurrently

        self._patch_function(engine, "run_concurrently", "sim", make=stepping)

    def _patch_page_cache(self) -> None:
        """Keep each page cache's hit/miss stats to sum at the end."""
        from repro.fs.page_cache import PageCache

        original = PageCache.__dict__["__init__"]
        caches = self.caches

        def __init__(cache, *args, **kwargs):
            original(cache, *args, **kwargs)
            caches.append(cache.stats)

        self._set(PageCache, "__init__", __init__)

    # -- accounting -----------------------------------------------------

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Per-layer figures for one traced round of ``wall_s`` seconds."""
        count = len(self.starts)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child = [0.0] * count
        roots = 0.0
        parents = self.parents
        for i in range(count):
            parent = parents[i]
            if parent < 0:
                roots += durations[i]
            else:
                child[parent] += durations[i]
        layer_of = self._layer_of
        builder = self._builder
        ids = self._ids
        self_s = {layer: 0.0 for layer in LAYERS}
        calls = {layer: 0 for layer in LAYERS}
        min_self = 0.0
        builds = 0
        build_s = 0.0
        ticks: List[float] = []
        recover_s = 0.0
        parse_s = 0.0
        tick_id = ids.get(_TICK, -1)
        recover_id = ids.get(_RECOVER, -1)
        step_id = ids.get(_READER_STEP, -1)
        name_ids = self.name_ids
        for i in range(count):
            nid = name_ids[i]
            layer = layer_of[nid]
            own = durations[i] - child[i]
            min_self = min(min_self, own)
            self_s[layer] += own
            parent = parents[i]
            parent_layer = layer_of[name_ids[parent]] if parent >= 0 else None
            if parent_layer != layer:
                calls[layer] += 1
            if builder[nid] and not _inside_builder(i, parents, name_ids, builder):
                builds += 1
                build_s += durations[i]
            if nid == tick_id:
                ticks.append(durations[i])
            elif nid == recover_id:
                recover_s += durations[i]
            elif nid == step_id:
                parse_s += durations[i]
        submits = calls["block"]
        migrated = sum(result.write_bytes for name, result in self.results.values()
                       if name in _MIGRATING)
        crash_points = sum(result.total for name, result in self.results.values()
                           if name == _SWEEP)
        hits = sum(stats.hits for stats in self.caches)
        lookups = hits + sum(stats.misses for stats in self.caches)
        out: Dict[str, float] = {
            "workloads.builds": builds,
            "workloads.build_s": build_s,
            "fs.syscalls": calls["fs"],
            "fs.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "block.submits": submits,
            "block.commands": self.commands,
            "block.fanout": self.commands / submits if submits else 0.0,
            "device.batches": calls["device"],
            "core.calls": calls["core"],
            "core.migrated_mib": migrated / (1 << 20),
            "tools.calls": calls["tools"],
            "fleet.ticks": len(ticks),
            "fleet.tick_p50_ms": statistics.median(ticks) * 1e3 if ticks else 0.0,
            "replay.records": self.records,
            "replay.parse_s": parse_s,
            "obs.calls": calls["obs"],
            "faults.crash_points": crash_points,
            "faults.recover_s": recover_s,
            "harness.residual_s": wall_s - roots,
            "harness.spans": count,
            "harness.min_span_self_s": min_self,
            "harness.open_spans": len(self.stack),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out


def _inside_builder(index: int, parents, name_ids, builder) -> bool:
    parent = parents[index]
    while parent >= 0:
        if builder[name_ids[parent]]:
            return True
        parent = parents[parent]
    return False


def accounting_error(summary: Dict[str, float], wall_s: float) -> Optional[str]:
    """None when the layer self times plus the residual sum to the traced
    wall time and no span's self time is negative; else the reason."""
    total = sum(summary[f"{layer}.self_s"] for layer in LAYERS) + summary["harness.residual_s"]
    tolerance = 1e-6 + 1e-9 * summary["harness.spans"]
    if abs(total - wall_s) > tolerance:
        return f"layer self times + residual = {total!r} s, traced wall = {wall_s!r} s"
    if summary["harness.min_span_self_s"] < -1e-9:
        return f"a span has negative self time ({summary['harness.min_span_self_s']!r} s)"
    if summary["harness.open_spans"]:
        return f"{summary['harness.open_spans']} spans left open"
    for layer in LAYERS:
        if summary[f"{layer}.self_s"] < -tolerance:
            return f"{layer}.self_s is negative"
    return None
