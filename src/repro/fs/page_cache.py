"""LRU page cache.

Buffered reads fill it, buffered writes dirty it, fsync/writeback cleans
it.  O_DIRECT bypasses it entirely (as in Linux).  Capacity is configurable
so experiments can model memory pressure; eviction of a dirty page reports
it to the caller for writeback.

The LRU is an ``OrderedDict`` (O(1) hit/refresh) keyed by one int per
page, ``ino << 32 | page``: no tuple per cached page.  Residency is the
key itself; a per-inode ``(lo, hi)`` span bounds the pages an inode may
have resident, so ``invalidate_inode`` walks that span instead of the
whole cache.  Dirtiness is indexed per inode so ``dirty_pages`` touches
only that inode's pages.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

PageKey = Tuple[int, int]  # (ino, page index)

#: pages per inode the int key can address (16 TiB of 4 KiB pages)
_PAGE_LIMIT = 1 << 32
_PAGE_MASK = _PAGE_LIMIT - 1


@dataclass
class PageCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PageCache:
    """LRU over ``ino << 32 | page`` keys with a per-inode dirty index."""

    def __init__(self, capacity_pages: int = 1 << 20) -> None:
        self.capacity_pages = capacity_pages
        self._lru: "OrderedDict[int, None]" = OrderedDict()
        #: per inode, [lo, hi] bounding every page it may have resident;
        #: a hint (eviction does not shrink it), absent = nothing resident
        self._span: Dict[int, List[int]] = {}
        #: dirty page indices per inode (dirty pages are always resident)
        self._dirty_by_ino: Dict[int, Set[int]] = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def __contains__(self, key: PageKey) -> bool:
        ino, page = key
        return (ino << 32 | page) in self._lru

    def __len__(self) -> int:
        return len(self._lru)

    def __iter__(self) -> Iterator[PageKey]:
        """Resident ``(ino, page)`` pairs, least recently used first."""
        for key in self._lru:
            yield key >> 32, key & _PAGE_MASK

    # -- lookup ----------------------------------------------------------

    def probe_pages(self, ino: int, first: int, last: int) -> List[int]:
        """Check residency of pages ``first..last`` of one inode in order,
        refreshing hits in the LRU and counting hits/misses; returns the
        missing page indices."""
        if ino not in self._span:
            missing = list(range(first, last + 1))
        else:
            assert last < _PAGE_LIMIT
            lru = self._lru
            move_to_end = lru.move_to_end
            base = ino << 32
            missing = []
            for page in range(first, last + 1):
                key = base | page
                if key in lru:
                    move_to_end(key)
                else:
                    missing.append(page)
        self.stats.misses += len(missing)
        self.stats.hits += last + 1 - first - len(missing)
        return missing

    # -- population ------------------------------------------------------

    def fill(self, ino: int, pages: Sequence[int]) -> List[PageKey]:
        """Insert clean pages of one inode, ``pages`` in ascending order
        (a range, or the list :meth:`probe_pages` returned); returns the
        dirty ``(ino, page)`` pairs evicted to make room, in eviction
        order."""
        if not pages:
            return []
        lo, hi = pages[0], pages[-1]
        assert hi < _PAGE_LIMIT
        span = self._span.get(ino)
        if span is None:
            self._span[ino] = [lo, hi]
        else:
            if lo < span[0]:
                span[0] = lo
            if hi > span[1]:
                span[1] = hi
        lru = self._lru
        move_to_end = lru.move_to_end
        base = ino << 32
        for page in pages:
            key = base | page
            if key in lru:
                move_to_end(key)
            else:
                lru[key] = None
        writeback: List[PageKey] = []
        capacity = self.capacity_pages
        dirty_by_ino = self._dirty_by_ino
        while len(lru) > capacity:
            victim, _ = lru.popitem(last=False)
            victim_ino = victim >> 32
            dirty = dirty_by_ino.get(victim_ino)
            if dirty is not None:
                page = victim & _PAGE_MASK
                if page in dirty:
                    dirty.discard(page)
                    if not dirty:
                        del dirty_by_ino[victim_ino]
                    self._dirty_total -= 1
                    writeback.append((victim_ino, page))
        return writeback

    def mark_dirty(self, ino: int, pages: Sequence[int]) -> List[PageKey]:
        """Insert/refresh pages of one inode (ascending) as dirty;
        returns evicted dirty pages as :meth:`fill` does."""
        if not pages:
            return []
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            dirty = self._dirty_by_ino[ino] = set()
        before = len(dirty)
        dirty.update(pages)
        self._dirty_total += len(dirty) - before
        return self.fill(ino, pages)

    # -- writeback -------------------------------------------------------

    def dirty_pages(self, ino: int) -> List[int]:
        """Sorted dirty page indices of one inode."""
        return sorted(self._dirty_by_ino.get(ino, ()))

    def clean(self, ino: int, pages: Iterable[int]) -> None:
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            return
        for page in pages:
            if page in dirty:
                dirty.discard(page)
                self._dirty_total -= 1
        if not dirty:
            del self._dirty_by_ino[ino]

    def invalidate_inode(self, ino: int) -> None:
        """Drop every page of an inode (unlink / O_DIRECT coherence)."""
        span = self._span.pop(ino, None)
        if span is not None:
            lru = self._lru
            lo, hi = span
            if hi - lo < len(lru):
                base = ino << 32
                pop = lru.pop
                for key in range(base | lo, (base | hi) + 1):
                    pop(key, None)
            else:  # a sparse span wider than the cache: scan the cache
                for key in [key for key in lru if key >> 32 == ino]:
                    del lru[key]
        dirty = self._dirty_by_ino.pop(ino, None)
        if dirty:
            self._dirty_total -= len(dirty)

    def dirty_count(self) -> int:
        return self._dirty_total

    def drop_clean(self) -> int:
        """Evict every clean page (``drop_caches``); returns count dropped."""
        dirty_by_ino = self._dirty_by_ino
        lru = self._lru
        doomed = [
            key for key in lru
            if key & _PAGE_MASK not in dirty_by_ino.get(key >> 32, ())
        ]
        for key in doomed:
            del lru[key]
        # only inodes with dirty pages keep anything resident
        self._span = {
            ino: span for ino, span in self._span.items() if ino in dirty_by_ino
        }
        return len(doomed)
