"""Seeded synthetic trace corpora in the compact binary format.

Real traces are not redistributable with the repo, so CI and the
acceptance run generate their own: a seed-keyed stream with the shape
block traces actually have — zipfian file popularity, sequential runs
broken by strided jumps, a read-heavy mix with write bursts, and
jittered-but-monotonic timestamps.  Generation is as streaming as
replay: one record is drawn, written, and forgotten, so a 100M-op corpus
needs the same memory as a 100-op one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator

from ..constants import BLOCK_SIZE, KIB, MIB
from ..errors import InvalidArgument
from ..types import IoOp
from .formats import BinaryTraceWriter


@dataclass(frozen=True)
class TraceProfile:
    """Knobs of the generated workload shape."""

    ops: int = 100_000
    seed: int = 0
    files: int = 64
    #: per-file address-space cap the generator draws offsets from
    file_bytes: int = 8 * MIB
    #: fraction of ops that are reads
    read_fraction: float = 0.7
    #: fraction of ops continuing the file's current sequential run
    sequential_fraction: float = 0.6
    #: request-size choices (block-aligned)
    request_sizes: tuple = (4 * KIB, 16 * KIB, 64 * KIB, 128 * KIB)
    #: zipf-ish skew: probability mass concentrates on low file ids
    skew: float = 1.1
    #: mean virtual inter-arrival gap between ops, seconds
    interarrival: float = 0.0002
    #: fsync roughly every N writes per file (0 disables)
    fsync_every: int = 32
    #: fraction of ops issued O_DIRECT (the rest go through the page
    #: cache, so replay exercises hit/readahead re-simulation)
    direct_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.ops < 0:
            raise InvalidArgument("ops must be >= 0")
        if self.files < 1:
            raise InvalidArgument("files must be >= 1")
        if self.file_bytes < BLOCK_SIZE:
            raise InvalidArgument("file_bytes must cover one block")

    def to_dict(self) -> Dict[str, object]:
        return {
            "ops": self.ops,
            "seed": self.seed,
            "files": self.files,
            "file_bytes": self.file_bytes,
            "read_fraction": self.read_fraction,
            "sequential_fraction": self.sequential_fraction,
            "request_sizes": list(self.request_sizes),
            "skew": self.skew,
            "interarrival": self.interarrival,
            "fsync_every": self.fsync_every,
            "direct_fraction": self.direct_fraction,
        }


def generate_ops(profile: TraceProfile) -> Iterator[IoOp]:
    """The seeded op stream (a generator; nothing is materialized)."""
    rng = random.Random(f"repro.replay.gen:{profile.seed}")
    # zipf-ish popularity via inverse-power draw (no scipy dependency)
    files = profile.files
    cursor: Dict[int, int] = {}      # file_id -> next sequential offset
    dirty_writes: Dict[int, int] = {}  # file_id -> writes since last fsync
    now = 0.0
    slots = max(1, profile.file_bytes // BLOCK_SIZE)
    for _ in range(profile.ops):
        u = rng.random()
        file_id = min(files - 1, int(files * (u ** profile.skew)))
        size = rng.choice(profile.request_sizes)
        if rng.random() < profile.sequential_fraction:
            offset = cursor.get(file_id, 0)
            if offset + size > profile.file_bytes:
                offset = 0
        else:
            offset = rng.randrange(slots) * BLOCK_SIZE
            offset = min(offset, profile.file_bytes - size)
            offset -= offset % BLOCK_SIZE
        cursor[file_id] = offset + size
        is_read = rng.random() < profile.read_fraction
        o_direct = rng.random() < profile.direct_fraction
        now += rng.expovariate(1.0 / profile.interarrival) if profile.interarrival else 0.0
        if is_read:
            yield IoOp("read", file_id, offset, size, now, o_direct)
            continue
        yield IoOp("write", file_id, offset, size, now, o_direct)
        count = dirty_writes.get(file_id, 0) + 1
        if profile.fsync_every and count >= profile.fsync_every:
            now += rng.expovariate(1.0 / profile.interarrival) if profile.interarrival else 0.0
            yield IoOp("fsync", file_id, 0, 0, now, o_direct)
            count = 0
        dirty_writes[file_id] = count


def generate_trace(path: str, profile: TraceProfile) -> int:
    """Stream a seeded corpus to ``path``; returns records written."""
    with BinaryTraceWriter(path) as writer:
        for record in generate_ops(profile):
            writer.write_op(record)
        return writer.written
