"""I/O command structures.

An :class:`IoCommand` corresponds to the chain ``bio -> request -> device
command`` in Linux: it can only express one *contiguous* LBA range.  That
restriction is what makes fragmentation expensive on modern devices — the
paper's *request splitting*.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..errors import InvalidArgument


class IoOp(enum.Enum):
    READ = "read"
    WRITE = "write"
    DISCARD = "discard"


# Module-level aliases of the members: looking a member up on the enum
# class (``IoOp.READ``) costs about eight times a global read, and the
# per-command paths below the filesystem compare ops on every command.
READ = IoOp.READ
WRITE = IoOp.WRITE
DISCARD = IoOp.DISCARD


class IoCommand(NamedTuple):
    """One contiguous-LBA device command.

    A ``NamedTuple`` rather than a dataclass: commands are constructed in
    the per-piece splitter loop, the single hottest allocation site in the
    stack, and the tuple constructor is about twice as fast.  Argument
    validation lives in :meth:`validate` — ranges are validated once at
    the syscall boundary, not per command.

    Attributes:
        op: read / write / discard.
        offset: device byte address (LBA * block size).
        length: bytes, > 0.
        tag: origin label used by the tracer to attribute traffic
            (e.g. ``"workload"`` vs ``"defrag"``).
        pid: provenance id of the originating syscall, 0 when causal
            tracing is disarmed or the command has no syscall origin
            (GC, fstrim).  Minted by the fs layer only when an armed
            :class:`~repro.obs.hooks.Instrumentation` is installed; the
            device layer keys per-command completion edges on it.
    """

    op: IoOp
    offset: int
    length: int
    tag: str = ""
    pid: int = 0

    @property
    def end(self) -> int:
        return self.offset + self.length

    def validate(self) -> "IoCommand":
        if self.offset < 0:
            raise InvalidArgument(f"negative device offset {self.offset}")
        if self.length <= 0:
            raise InvalidArgument(f"non-positive command length {self.length}")
        return self

    def retagged(self, tag: str) -> "IoCommand":
        return IoCommand(self.op, self.offset, self.length, tag, self.pid)
