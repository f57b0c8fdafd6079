"""Host-memory budgets of the per-page and per-command structures.

The simulator's own footprint bounds the traces it can replay, so the
structures that grow with cached pages, mapped flash pages and emitted
block commands are held to a byte budget each.  Growth is measured with
``tracemalloc`` (allocation sizes, not RSS), which is deterministic for
one interpreter build.
"""

import gc
import tracemalloc

from repro.block.request import IoCommand, IoOp
from repro.block.tracer import BlockTracer
from repro.device.ftl import PageMappingFtl
from repro.fs.page_cache import PageCache
from repro.obs import hooks
from repro.obs.hooks import Instrumentation

N = 20_000


def _bytes_per_item(build, items: int = N) -> float:
    """Traced allocation growth per item while ``build`` runs, counting
    only what its result keeps alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del kept
    return (after - before) / items


def test_page_cache_bytes_per_cached_page():
    def build():
        cache = PageCache()
        for ino in range(4):
            for first in range(0, N // 4, 8):
                cache.fill(ino, range(first, first + 8))
        assert len(cache) == N
        return cache

    assert _bytes_per_item(build) <= 150


def test_ftl_bytes_per_mapped_page():
    def build():
        ftl = PageMappingFtl(logical_pages=4 * N, channels=8)
        for first in range(0, N, 16):
            ftl.write(range(first, first + 16))
        assert len(ftl.mapping) == N
        return ftl

    assert _bytes_per_item(build) <= 112


def test_armed_block_tracer_bytes_per_event():
    obs = Instrumentation()
    with hooks.use(obs):
        tracer = BlockTracer()
    commands = [IoCommand(IoOp.READ, i * 4096, 4096, "app", i) for i in range(N)]

    def build():
        for first in range(0, N, 8):
            tracer.observe(commands[first:first + 8], now=first * 1e-3)
        assert len(obs.spans.events) == N
        return obs

    assert _bytes_per_item(build) <= 200
