"""Page cache: LRU, dirty tracking, eviction, drop_caches."""

import random
from collections import OrderedDict

import pytest

from repro.fs import PageCache
from repro.fs.page_cache import PageCacheStats


def test_probe_miss_then_hit():
    cache = PageCache(capacity_pages=10)
    assert cache.probe_pages(1, 0, 0) == [0]
    cache.fill(1, [0])
    assert cache.probe_pages(1, 0, 0) == []
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio == 0.5


def test_lru_eviction_order():
    cache = PageCache(capacity_pages=2)
    cache.fill(1, [0, 1])
    cache.probe_pages(1, 0, 0)  # refresh page 0
    cache.fill(1, [2])          # evicts page 1 (least recent)
    assert (1, 0) in cache
    assert (1, 1) not in cache
    assert (1, 2) in cache
    assert list(cache) == [(1, 0), (1, 2)]


def test_dirty_eviction_reported():
    cache = PageCache(capacity_pages=2)
    cache.mark_dirty(1, [0])
    cache.fill(1, [1])
    evicted = cache.fill(1, [2])
    assert evicted == [(1, 0)]
    assert cache.dirty_count() == 0


def test_clean_eviction_silent():
    cache = PageCache(capacity_pages=1)
    cache.fill(1, [0])
    assert cache.fill(1, [1]) == []


def test_dirty_pages_sorted_per_inode():
    cache = PageCache()
    cache.mark_dirty(1, [5])
    cache.mark_dirty(2, [0])
    cache.mark_dirty(1, [2])
    assert cache.dirty_pages(1) == [2, 5]
    assert cache.dirty_pages(2) == [0]
    cache.clean(1, [2, 5])
    assert cache.dirty_pages(1) == []


def test_invalidate_inode():
    cache = PageCache()
    cache.mark_dirty(1, [0])
    cache.mark_dirty(2, [0])
    cache.invalidate_inode(1)
    assert (1, 0) not in cache
    assert (2, 0) in cache
    assert cache.dirty_pages(1) == []


def test_drop_clean_keeps_dirty():
    cache = PageCache()
    cache.fill(1, [0, 1])
    cache.mark_dirty(1, [2])
    dropped = cache.drop_clean()
    assert dropped == 2
    assert (1, 2) in cache
    assert (1, 0) not in cache


def test_probe_pages_matches_probing_one_page_at_a_time():
    rng = random.Random(7)
    batch, single = PageCache(capacity_pages=24), _TupleKeyedPageCache(capacity_pages=24)
    for _ in range(400):
        ino, first = rng.randrange(3), rng.randrange(40)
        last = first + rng.randrange(8)
        action = rng.random()
        if action < 0.5:
            missing = batch.probe_pages(ino, first, last)
            expected = [
                page for page in range(first, last + 1)
                if not single.probe((ino, page))
            ]
            assert missing == expected
        elif action < 0.8:
            pages = range(first, last + 1)
            assert batch.fill(ino, pages) == single.fill((ino, p) for p in pages)
        elif action < 0.95:
            pages = range(first, last + 1)
            assert batch.mark_dirty(ino, pages) == single.mark_dirty((ino, p) for p in pages)
        else:
            batch.invalidate_inode(ino)
            single.invalidate_inode(ino)
        assert list(batch) == list(single._lru)  # same LRU order
        assert batch.stats == single.stats


def test_invalidate_sparse_inode_wider_than_the_cache():
    """An inode whose resident pages span more than the cache holds is
    invalidated by a cache scan, with the other inodes untouched."""
    cache = PageCache(capacity_pages=4)
    cache.fill(1, [0])
    cache.fill(2, [7])
    cache.mark_dirty(1, [1 << 20])
    cache.invalidate_inode(1)
    assert list(cache) == [(2, 7)]
    assert cache.dirty_count() == 0


# -- oracle: the tuple-keyed cache the int-keyed one replaced ---------------


class _TupleKeyedPageCache:
    """Reference model: LRU over ``(ino, page)`` tuple keys with per-inode
    residency and dirty sets.  The production cache keys its LRU by one
    int per page and keeps no residency sets; every observable result
    must match this model."""

    def __init__(self, capacity_pages=1 << 20):
        self.capacity_pages = capacity_pages
        self._lru = OrderedDict()
        self._by_ino = {}
        self._dirty_by_ino = {}
        self._dirty_total = 0
        self.stats = PageCacheStats()

    def __len__(self):
        return len(self._lru)

    def probe(self, key):
        if key in self._lru:
            self._lru.move_to_end(key)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def probe_pages(self, ino, first, last):
        return [page for page in range(first, last + 1) if not self.probe((ino, page))]

    def fill(self, keys):
        writeback = []
        for key in keys:
            if key in self._lru:
                self._lru.move_to_end(key)
            else:
                self._lru[key] = None
                self._by_ino.setdefault(key[0], set()).add(key[1])
        while len(self._lru) > self.capacity_pages:
            victim, _ = self._lru.popitem(last=False)
            ino, page = victim
            self._forget_resident(ino, page)
            dirty = self._dirty_by_ino.get(ino)
            if dirty is not None and page in dirty:
                dirty.discard(page)
                if not dirty:
                    del self._dirty_by_ino[ino]
                self._dirty_total -= 1
                writeback.append(victim)
        return writeback

    def mark_dirty(self, keys):
        keys = list(keys)
        for ino, page in keys:
            dirty = self._dirty_by_ino.setdefault(ino, set())
            if page not in dirty:
                dirty.add(page)
                self._dirty_total += 1
        return self.fill(keys)

    def dirty_pages(self, ino):
        return sorted(self._dirty_by_ino.get(ino, ()))

    def clean(self, ino, pages):
        dirty = self._dirty_by_ino.get(ino)
        if dirty is None:
            return
        for page in pages:
            if page in dirty:
                dirty.discard(page)
                self._dirty_total -= 1
        if not dirty:
            del self._dirty_by_ino[ino]

    def invalidate_inode(self, ino):
        for page in self._by_ino.pop(ino, ()):
            del self._lru[(ino, page)]
        dirty = self._dirty_by_ino.pop(ino, None)
        if dirty:
            self._dirty_total -= len(dirty)

    def dirty_count(self):
        return self._dirty_total

    def drop_clean(self):
        doomed = [
            (ino, page) for ino, page in self._lru
            if page not in self._dirty_by_ino.get(ino, ())
        ]
        for key in doomed:
            del self._lru[key]
            self._forget_resident(*key)
        return len(doomed)

    def _forget_resident(self, ino, page):
        resident = self._by_ino.get(ino)
        if resident is not None:
            resident.discard(page)
            if not resident:
                del self._by_ino[ino]


@pytest.mark.parametrize("seed", range(24))
def test_matches_tuple_keyed_reference(seed):
    """Seeded random fill / mark_dirty / probe_pages / clean /
    invalidate_inode / drop_clean sequences at capacities 1-32 over 3-5
    inodes: missing lists, writeback lists (in order), stats, dirty
    pages, sizes and LRU order all equal the reference model's."""
    rng = random.Random(seed)
    capacity = rng.randint(1, 32)
    inodes = rng.randint(3, 5)
    cache, ref = PageCache(capacity), _TupleKeyedPageCache(capacity)
    for _ in range(300):
        ino = rng.randrange(inodes)
        first = rng.randrange(2 * capacity + 8)
        last = first + rng.randrange(10)
        action = rng.random()
        if action < 0.35:
            assert cache.probe_pages(ino, first, last) == ref.probe_pages(ino, first, last)
        elif action < 0.6:
            span = range(first, last + 1)
            pages = sorted(rng.sample(span, rng.randint(1, len(span))))
            assert cache.fill(ino, pages) == ref.fill((ino, p) for p in pages)
        elif action < 0.8:
            pages = range(first, last + 1)
            assert cache.mark_dirty(ino, pages) == ref.mark_dirty((ino, p) for p in pages)
        elif action < 0.9:
            pages = cache.dirty_pages(ino)[::2] + list(range(first, last + 1))
            cache.clean(ino, pages)
            ref.clean(ino, pages)
        elif action < 0.97:
            cache.invalidate_inode(ino)
            ref.invalidate_inode(ino)
        else:
            assert cache.drop_clean() == ref.drop_clean()
        assert cache.stats == ref.stats
        assert cache.dirty_count() == ref.dirty_count()
        assert len(cache) == len(ref)
        assert list(cache) == list(ref._lru)
        for i in range(inodes):
            assert cache.dirty_pages(i) == ref.dirty_pages(i)
