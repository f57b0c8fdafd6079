"""Extent map: mapping, punching, inserting, coalescing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import BLOCK_SIZE as B
from repro.errors import InvalidArgument
from repro.fs import Extent, ExtentMap


def test_extent_alignment_enforced():
    # validation is explicit (hot-path extents skip it); insert() applies
    # it when repro.fs.extent_map.DEBUG_CHECKS is on
    with pytest.raises(InvalidArgument):
        Extent(1, 0, B).validate()
    with pytest.raises(InvalidArgument):
        Extent(0, 0, B + 1).validate()
    with pytest.raises(InvalidArgument):
        Extent(0, 0, 0).validate()


def test_insert_validates_in_debug_mode(monkeypatch):
    from repro.fs import extent_map as extent_map_mod

    monkeypatch.setattr(extent_map_mod, "DEBUG_CHECKS", True)
    m = ExtentMap()
    with pytest.raises(InvalidArgument):
        m.insert(Extent(1, 0, B))


def test_disk_at():
    e = Extent(4 * B, 100 * B, 4 * B)
    assert e.disk_at(4 * B) == 100 * B
    assert e.disk_at(5 * B) == 101 * B
    with pytest.raises(InvalidArgument):
        e.disk_at(8 * B)


def test_map_range_with_holes():
    m = ExtentMap()
    m.insert(Extent(0, 10 * B, 2 * B))
    m.insert(Extent(4 * B, 50 * B, 2 * B))
    pieces = m.map_range(0, 6 * B)
    assert pieces == [(10 * B, 2 * B), (None, 2 * B), (50 * B, 2 * B)]
    assert m.holes(0, 6 * B) == [(2 * B, 2 * B)]
    assert not m.is_fully_mapped(0, 6 * B)
    assert m.is_fully_mapped(0, 2 * B)


def test_map_range_partial_extent():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, 10 * B))
    assert m.map_range(2 * B, 3 * B) == [(102 * B, 3 * B)]


def test_insert_replaces_overlap():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, 4 * B))
    displaced = m.insert(Extent(B, 200 * B, 2 * B))
    assert displaced == [Extent(B, 101 * B, 2 * B)]
    assert m.map_range(0, 4 * B) == [
        (100 * B, B), (200 * B, 2 * B), (103 * B, B)
    ]


def test_insert_coalesces_neighbours():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, B))
    m.insert(Extent(B, 101 * B, B))
    m.insert(Extent(2 * B, 102 * B, B))
    assert len(m) == 1
    assert m.extents()[0] == Extent(0, 100 * B, 3 * B)


def test_no_coalesce_across_disk_gap():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, B))
    m.insert(Extent(B, 200 * B, B))
    assert len(m) == 2


def test_punch_middle_splits():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, 10 * B))
    removed = m.punch(4 * B, 2 * B)
    assert removed == [Extent(4 * B, 104 * B, 2 * B)]
    assert len(m) == 2
    assert m.holes(0, 10 * B) == [(4 * B, 2 * B)]


def test_punch_unaligned_rejected(monkeypatch):
    from repro.fs import extent_map as extent_map_mod

    monkeypatch.setattr(extent_map_mod, "DEBUG_CHECKS", True)
    m = ExtentMap()
    with pytest.raises(InvalidArgument):
        m.punch(1, B)


def test_fragment_count_merges_contiguous():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, B))
    m.insert(Extent(B, 101 * B, B))    # contiguous: same fragment
    m.insert(Extent(2 * B, 500 * B, B))  # jump: new fragment
    assert m.fragment_count() == 2


def test_preceding():
    m = ExtentMap()
    m.insert(Extent(0, 100 * B, 2 * B))
    m.insert(Extent(10 * B, 200 * B, 2 * B))
    assert m.preceding(5 * B) == Extent(0, 100 * B, 2 * B)
    assert m.preceding(0) is None
    assert m.preceding(100 * B).disk_offset == 200 * B


# ---------------------------------------------------------------------------
# model-based property test: the map must agree with a naive page dict
# ---------------------------------------------------------------------------

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "punch"]),
        st.integers(0, 120),   # start page
        st.integers(1, 16),    # page count
        st.integers(0, 5000),  # disk page
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops)
def test_matches_naive_model(operations):
    m = ExtentMap()
    model = {}
    for op, start, count, disk in operations:
        if op == "insert":
            m.insert(Extent(start * B, disk * B, count * B))
            for i in range(count):
                model[start + i] = disk + i
        else:
            m.punch(start * B, count * B)
            for i in range(count):
                model.pop(start + i, None)
        m.check_invariants()
    for page in range(0, 140):
        got = m.map_range(page * B, B)[0][0]
        want = model.get(page)
        assert got == (want * B if want is not None else None), page
    assert m.mapped_bytes == len(model) * B
    for start in range(0, 140, 7):
        for count in (1, 5, 33):
            pieces = m.map_range(start * B, count * B)
            assert m.disk_ranges(start * B, count * B) == [
                (disk, n) for disk, n in pieces if disk is not None]
