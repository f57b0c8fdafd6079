"""Page-mapping FTL: mapping, striping, invalidation, GC, wear."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.ftl import PageMappingFtl
from repro.errors import DeviceError


def small_ftl(logical_pages=1024, channels=4, pages_per_block=16):
    return PageMappingFtl(
        logical_pages=logical_pages,
        channels=channels,
        pages_per_block=pages_per_block,
        overprovision=0.25,
    )


def test_unwritten_pages_stripe_by_address():
    ftl = small_ftl(channels=4)
    assert [ftl.channel_of(i) for i in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_writes_stripe_round_robin():
    ftl = small_ftl(channels=4)
    result = ftl.write(list(range(8)))
    assert result.pages_per_channel == {0: 2, 1: 2, 2: 2, 3: 2}


def test_mapping_follows_write():
    ftl = small_ftl(channels=4)
    ftl.write([100])  # first write goes to channel 0
    assert ftl.channel_of(100) == 0
    ftl.write([100])  # rewrite lands on the next channel
    assert ftl.channel_of(100) == 1


def test_overwrite_invalidates_old_page():
    ftl = small_ftl()
    ftl.write([5])
    block, _ = ftl.location(5)
    assert block.valid_count == 1
    ftl.write([5])
    assert block.valid_count == 0


def test_invalidate_discard():
    ftl = small_ftl()
    ftl.write([1, 2, 3])
    dropped = ftl.invalidate([1, 2, 3, 4])
    assert dropped == 3
    assert 1 not in ftl.mapping
    assert ftl.location(1) is None
    # discarded pages read as address-striped again
    assert ftl.channel_of(1) == 1


def test_write_beyond_capacity_rejected():
    ftl = small_ftl(logical_pages=10)
    with pytest.raises(DeviceError):
        ftl.write([10])


def test_gc_reclaims_invalid_pages():
    ftl = small_ftl(logical_pages=128, channels=1, pages_per_block=8)
    # overwrite a small working set far beyond physical capacity
    for _ in range(40):
        ftl.write(list(range(16)))
    assert ftl.total_erases > 0
    assert ftl.write_amplification >= 1.0
    # mapping stays consistent through GC
    for lpn in range(16):
        block, slot = ftl.location(lpn)
        assert block.pages[slot] == lpn


def test_write_amplification_grows_under_pressure():
    """Cold data interleaved with hot churn forces GC relocations."""
    tight = small_ftl(logical_pages=64, channels=1, pages_per_block=8)
    # lay down cold (0..31) and hot (32..47) pages interleaved, so every
    # erase block holds some never-invalidated cold pages
    interleaved = [p for pair in zip(range(32), range(32, 48)) for p in pair]
    tight.write(interleaved + list(range(16, 32)))
    for _ in range(60):
        tight.write(list(range(32, 48)))  # churn only the hot set
    assert tight.total_erases > 0
    assert tight.write_amplification > 1.0
    assert tight.relocated_pages_total > 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 63), min_size=1, max_size=300))
def test_mapping_always_consistent(lpns):
    """Model check: after any write sequence, every mapped lpn's slot
    holds that lpn, and valid counts match the mapping."""
    ftl = small_ftl(logical_pages=64, channels=2, pages_per_block=8)
    for lpn in lpns:
        ftl.write([lpn])
    for lpn in ftl.mapping:
        block, slot = ftl.location(lpn)
        assert block.pages[slot] == lpn
    assert len(ftl.mapping) == len(set(lpns))
    assert ftl.host_pages_written == len(lpns)



def test_gc_retries_once_an_overwrite_creates_a_victim():
    """A victim search that found only all-valid blocks is not repeated
    until something changes -- and an overwrite is such a change."""
    ftl = PageMappingFtl(logical_pages=64, channels=1, pages_per_block=8,
                         overprovision=0.0)
    # six sealed all-valid blocks, a part-filled active one, one free
    # block: below the GC threshold with nothing to reclaim
    ftl.write(list(range(52)))
    assert ftl.total_erases == 0
    ftl.write([0])  # invalidates a page of the first sealed block
    assert ftl.total_erases == 0  # that page's own GC check came first
    result = ftl.write([60])
    assert (result.relocated_pages, result.erased_blocks) == (7, 1)
    ftl.invalidate([8])  # a discard creates a victim the same way
    assert ftl.write([61]).erased_blocks == 1

class _PerPageFtl:
    """Reference model: the straightforward per-page FTL, which runs the
    GC check (free blocks below threshold -> collect greedy victims)
    before every single page.  The production FTL skips checks that
    cannot change the outcome; it must match this model page for page."""

    def __init__(self, channels, pages_per_block, blocks_per_channel, threshold=2):
        self.channels = channels
        self.ppb = pages_per_block
        self.bpc = blocks_per_channel
        self.threshold = threshold
        self.mapping = {}
        self.active = [None] * channels
        self.sealed = [[] for _ in range(channels)]
        self.pool = [[] for _ in range(channels)]
        self.created = [0] * channels
        self.next_channel = 0
        self.erases = 0
        self.relocated = 0

    def _take(self, channel):
        if self.pool[channel]:
            return self.pool[channel].pop()
        if self.created[channel] < self.bpc:
            self.created[channel] += 1
            return {"channel": channel, "pages": [], "valid": 0}
        raise DeviceError("out of space")

    def _append(self, channel, lpn):
        block = self.active[channel]
        if block is None or len(block["pages"]) >= self.ppb:
            if block is not None:
                self.sealed[channel].append(block)
            block = self.active[channel] = self._take(channel)
        block["pages"].append(lpn)
        block["valid"] += 1
        self.mapping[lpn] = (block, len(block["pages"]) - 1)

    def _gc(self, channel):
        relocated = erased = 0
        while len(self.pool[channel]) + self.bpc - self.created[channel] < self.threshold:
            sealed = self.sealed[channel]
            if not sealed:
                break
            best = min(range(len(sealed)), key=lambda i: sealed[i]["valid"])
            if sealed[best]["valid"] >= self.ppb:
                break
            victim = sealed.pop(best)
            moved = 0
            for slot, lpn in enumerate(victim["pages"]):
                if lpn is not None:
                    victim["pages"][slot] = None
                    victim["valid"] -= 1
                    self._append(channel, lpn)
                    moved += 1
            victim["pages"] = []
            self.erases += 1
            self.relocated += moved
            self.pool[channel].append(victim)
            relocated += moved
            erased += 1
        return relocated, erased

    def write(self, lpns):
        per_channel, relocated, erased = {}, 0, 0
        for lpn in lpns:
            channel = self.next_channel
            self.next_channel = (channel + 1) % self.channels
            r, e = self._gc(channel)
            relocated, erased = relocated + r, erased + e
            old = self.mapping.get(lpn)
            if old is not None:
                old[0]["pages"][old[1]] = None
                old[0]["valid"] -= 1
            self._append(channel, lpn)
            per_channel[channel] = per_channel.get(channel, 0) + 1
        return per_channel, relocated, erased

    def invalidate(self, lpns):
        for lpn in lpns:
            entry = self.mapping.pop(lpn, None)
            if entry is not None:
                entry[0]["pages"][entry[1]] = None
                entry[0]["valid"] -= 1


_ops = st.lists(
    st.tuples(
        st.sampled_from(["write", "write", "write", "discard"]),
        st.integers(0, 63),
        st.integers(1, 12),
    ),
    min_size=1, max_size=120,
)


@settings(max_examples=80, deadline=None)
@given(_ops, st.sampled_from([(1, 8), (2, 8), (4, 4)]),
       st.sampled_from([0.0, 0.07, 0.25]))
def test_gc_matches_per_page_reference(ops, shape, overprovision):
    """GC fires at exactly the page the per-page algorithm fires it,
    including on a full device whose blocks hold only valid pages."""
    channels, pages_per_block = shape
    ftl = PageMappingFtl(logical_pages=64, channels=channels,
                         pages_per_block=pages_per_block,
                         overprovision=overprovision)
    ref = _PerPageFtl(channels, pages_per_block, ftl.blocks_per_channel)
    for kind, first, count in ops:
        lpns = [(first + i) % 64 for i in range(count)]
        if kind == "discard":
            ftl.invalidate(lpns)
            ref.invalidate(lpns)
            continue
        try:
            expected = ref.write(lpns)
        except DeviceError:
            with pytest.raises(DeviceError):
                ftl.write(lpns)
            return  # both out of space: the device is wedged
        result = ftl.write(lpns)
        assert (result.pages_per_channel, result.relocated_pages,
                result.erased_blocks) == expected
        assert ftl.total_erases == ref.erases
        assert ftl.relocated_pages_total == ref.relocated
        locations = {lpn: ftl.location(lpn) for lpn in ftl.mapping}
        assert {lpn: (b.channel, s) for lpn, (b, s) in locations.items()} == {
            lpn: (b["channel"], s) for lpn, (b, s) in ref.mapping.items()}
