"""Traffic accounting agrees across the block and device layers.

The block tracer counts every submitted command twice (into the total and
into its tag's counter) and the device counts it again in its stats.  A
mixed workload through a real stack must leave all three views equal
after every operation, for bytes and for commands of every op kind.
"""

from __future__ import annotations

import pytest

from repro.constants import GIB, KIB
from repro.device import make_device
from repro.fs import FallocMode, make_filesystem
from repro.tools.fstrim import Fstrim

FIELDS = (
    "read_bytes", "write_bytes", "discard_bytes",
    "read_commands", "write_commands", "discard_commands",
)


def _assert_consistent(fs, step: str) -> None:
    total = fs.tracer.total
    tags = fs.tracer.by_tag.values()
    for field in FIELDS:
        counted = getattr(total, field)
        assert counted == sum(getattr(c, field) for c in tags), (step, field)
        assert counted == getattr(fs.device.stats, field), (step, field)


def _mixed_workload(fs):
    """Yield after each operation, naming it."""
    direct = fs.open("/direct", o_direct=True, app="db", create=True)
    other = fs.open("/other", o_direct=True, app="db", create=True)
    buffered = fs.open("/buffered", app="log", create=True)
    now = fs.write(direct, 0, 256 * KIB).finish_time
    yield "direct write"
    for i in range(16):  # interleave two files: fragments /direct
        now = fs.write(direct, 256 * KIB + i * 8 * KIB, 8 * KIB, now=now).finish_time
        now = fs.write(other, i * 4 * KIB, 4 * KIB, now=now).finish_time
    yield "interleaved direct writes"
    now = fs.write(buffered, 0, data=b"x" * (96 * KIB), now=now).finish_time
    yield "buffered write"
    now = fs.fsync(buffered, now=now).finish_time
    yield "fsync"
    now = fs.read(direct, 0, 384 * KIB, now=now).finish_time
    yield "direct read"
    fs.drop_caches()
    now = fs.read(buffered, 0, 32 * KIB, now=now).finish_time
    now = fs.read(buffered, 32 * KIB, 64 * KIB, now=now).finish_time
    yield "buffered reads"
    now = fs.write(direct, 64 * KIB, 128 * KIB, now=now).finish_time
    yield "direct overwrite"
    now = fs.fallocate(direct, FallocMode.PUNCH_HOLE, 16 * KIB, 96 * KIB, now=now).finish_time
    yield "punch hole"
    now = fs.unlink("/other", now=now).finish_time
    yield "unlink"
    now = Fstrim(fs).run(now=now).elapsed + now
    yield "fstrim"
    fs.write(buffered, 8 * KIB, 20 * KIB, now=now)
    fs.sync(now=now)
    yield "sync"


@pytest.mark.parametrize("fs_type,device", [
    ("ext4", "optane"), ("f2fs", "flash"), ("btrfs", "microsd"),
])
def test_tracer_total_matches_tags_and_device_stats(fs_type, device):
    fs = make_filesystem(fs_type, make_device(device, capacity=1 * GIB))
    for step in _mixed_workload(fs):
        _assert_consistent(fs, step)
    total = fs.tracer.total
    # the workload really exercised every op kind and several tags
    assert total.read_commands and total.write_commands and total.discard_commands
    assert {"db", "log", "fstrim"} <= set(fs.tracer.by_tag)
    assert fs.device.stats.total_commands == fs.scheduler.requests_submitted
