"""Deterministic fan-out across worker processes.

Two verbs shard their work across spawned interpreters: ``repro bench``
(one shard per figure) and ``repro perf`` (one shard per pinned layer).
:func:`run_sharded` executes those shards on N spawned workers while
keeping every fingerprinted document **byte-identical to the serial
run**: results are collected in shard order (never completion order)
and workers start from scrubbed process-global state.  A shard that
raises surfaces as :class:`ShardError` carrying the shard index, and
every already-collected partial result is discarded.

``workers=None`` means the serial path: the shard function runs inline,
in payload order.  Shard functions that need telemetry manage their own
instrumentation and return it (the bench suite's per-figure snapshots);
the engine itself only mirrors ``par.plans`` / ``par.shards`` into an
armed ambient plane, identically on both paths.

Spawn (not fork) is used on every platform: each worker imports the
package fresh, so no parent caches, hook installations, or debug flags
leak in — :func:`reset_worker_state` re-scrubs anyway as a guard against
a future fork-based context.
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, List, Optional, Sequence

from .errors import InvalidArgument, ReproError


class ShardError(ReproError):
    """A worker failed while executing one shard.

    Carries the shard index and the worker-side traceback text; pickles
    across the process boundary intact (``__reduce__``).
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        cause_type: Optional[str] = None,
        traceback_text: str = "",
    ) -> None:
        super().__init__(message)
        self.shard = shard
        self.cause_type = cause_type
        self.traceback_text = traceback_text

    def __reduce__(self):
        return (
            type(self),
            (self.args[0], self.shard, self.cause_type, self.traceback_text),
        )


def resolve_workers(workers: Optional[int]) -> Optional[int]:
    """Validate a ``--workers`` value (None = serial path)."""
    if workers is None:
        return None
    if workers < 1:
        raise InvalidArgument("workers must be >= 1 (omit for the serial path)")
    return workers


def reset_worker_state() -> None:
    """Scrub process-global state so a worker's first result matches a
    fresh process.

    Spawn workers are already fresh interpreters; this is the explicit
    contract (and the guard if the start method ever changes): debug
    flags off, the null instrumentation installed, no fault plane armed.
    Device cost-model memos are instance-level and need no scrubbing.
    """
    from .faults import hooks as fault_hooks
    from .fs import extent_map
    from .obs import hooks as obs_hooks

    extent_map.DEBUG_CHECKS = False
    obs_hooks.install(obs_hooks.NULL)
    fault_hooks.install(fault_hooks.NULL)


def _call_shard(fn: Callable, index: int, payload: object) -> object:
    """Worker-side wrapper: tag any failure with its shard index."""
    try:
        return fn(payload)
    except Exception as exc:
        raise ShardError(
            f"shard {index} failed: {type(exc).__name__}: {exc}",
            shard=index,
            cause_type=type(exc).__name__,
            traceback_text=traceback.format_exc(),
        ) from None


def run_sharded(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    workers: Optional[int] = None,
) -> List[object]:
    """Run ``fn`` over ``payloads``; results come back in payload order.

    ``fn`` must be a picklable module-level callable taking one payload,
    and payloads must pickle too (unless ``workers`` is None).  Results
    are collected strictly in shard order regardless of which worker
    finishes first — the canonical merge that makes parallel output
    byte-identical to serial.
    """
    from .obs import hooks as obs_hooks

    payloads = list(payloads)
    workers = resolve_workers(workers)
    if workers is None or not payloads:
        results = [fn(payload) for payload in payloads]
    else:
        import multiprocessing

        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(payloads)),
            mp_context=multiprocessing.get_context("spawn"),
            initializer=reset_worker_state,
        )
        try:
            futures = [
                pool.submit(_call_shard, fn, index, payload)
                for index, payload in enumerate(payloads)
            ]
            # a ShardError propagates out of here with no partial results
            results = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    # mirrored on BOTH paths: armed serial and parallel runs must export
    # identical par.* counters (the byte-parity contract)
    obs = obs_hooks.current()
    if obs.enabled:
        obs.registry.counter("par.plans").inc()
        obs.registry.counter("par.shards").inc(len(payloads))
    return results
