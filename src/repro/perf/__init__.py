"""Wall-clock performance pipeline (``repro perf``).

:mod:`repro.bench` tracks *virtual-time* results — what the simulated
storage stack computes.  This package tracks how fast the simulator
itself runs on the host: a pinned suite of per-layer microbenchmarks
plus one end-to-end experiment, timed with ``time.perf_counter`` and
persisted as a schema-versioned ``PERF_<label>.json`` that
``repro perf --compare`` diffs direction-aware through
:mod:`repro.doc`, exactly like ``repro bench --compare`` does for
virtual-time documents.

The suite is the regression guard for the hot-path optimizations
(null-plane fast paths, indexed extent/free-space structures, memoized
device cost models): those must never change virtual-time results —
the ``BENCH_*.json`` baseline stays value-for-value identical — while
this suite proves the wall-clock trajectory only moves down.
"""

from .suite import run_suite, scaling_curve, suite_config  # noqa: F401
