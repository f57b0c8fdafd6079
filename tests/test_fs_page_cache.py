"""Page cache: LRU, dirty tracking, eviction, drop_caches."""

from repro.fs import PageCache


def test_probe_miss_then_hit():
    cache = PageCache(capacity_pages=10)
    assert not cache.probe((1, 0))
    cache.fill([(1, 0)])
    assert cache.probe((1, 0))
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.hit_ratio == 0.5


def test_lru_eviction_order():
    cache = PageCache(capacity_pages=2)
    cache.fill([(1, 0), (1, 1)])
    cache.probe((1, 0))        # refresh page 0
    cache.fill([(1, 2)])       # evicts page 1 (least recent)
    assert (1, 0) in cache
    assert (1, 1) not in cache
    assert (1, 2) in cache


def test_dirty_eviction_reported():
    cache = PageCache(capacity_pages=2)
    cache.mark_dirty([(1, 0)])
    cache.fill([(1, 1)])
    evicted = cache.fill([(1, 2)])
    assert evicted == [(1, 0)]
    assert cache.dirty_count() == 0


def test_clean_eviction_silent():
    cache = PageCache(capacity_pages=1)
    cache.fill([(1, 0)])
    assert cache.fill([(1, 1)]) == []


def test_dirty_pages_sorted_per_inode():
    cache = PageCache()
    cache.mark_dirty([(1, 5), (2, 0), (1, 2)])
    assert cache.dirty_pages(1) == [2, 5]
    assert cache.dirty_pages(2) == [0]
    cache.clean(1, [2, 5])
    assert cache.dirty_pages(1) == []


def test_invalidate_inode():
    cache = PageCache()
    cache.mark_dirty([(1, 0), (2, 0)])
    cache.invalidate_inode(1)
    assert (1, 0) not in cache
    assert (2, 0) in cache
    assert cache.dirty_pages(1) == []


def test_drop_clean_keeps_dirty():
    cache = PageCache()
    cache.fill([(1, 0), (1, 1)])
    cache.mark_dirty([(1, 2)])
    dropped = cache.drop_clean()
    assert dropped == 2
    assert (1, 2) in cache
    assert (1, 0) not in cache


def test_probe_pages_matches_probing_one_page_at_a_time():
    import random

    rng = random.Random(7)
    batch, single = PageCache(capacity_pages=24), PageCache(capacity_pages=24)
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
            keys = [(ino, page) for page in range(first, last + 1)]
            assert batch.fill(keys) == single.fill(keys)
        elif action < 0.95:
            keys = [(ino, page) for page in range(first, last + 1)]
            assert batch.mark_dirty(keys) == single.mark_dirty(keys)
        else:
            batch.invalidate_inode(ino)
            single.invalidate_inode(ino)
        assert list(batch._lru) == list(single._lru)  # same LRU order
        assert batch.stats == single.stats
