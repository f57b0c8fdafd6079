"""Page-mapping flash translation layer.

Implements the flash behaviour the paper leans on in Sections 2.2/3.3:

- **Out-of-place updates**: every host write allocates fresh flash pages,
  striped round-robin across channels in arrival order, and invalidates the
  old mapping.  This is why *update* workloads on flash are less sensitive
  to fragmentation than reads — new pages spread over channels regardless
  of LBA contiguity.
- **Read channel affinity**: a read goes to whichever channel the page was
  written on, so a file whose pages were written interleaved with other
  traffic can concentrate on few channels (channel conflicts).
- **Garbage collection & wear**: greedy victim selection, valid-page
  relocation, per-block erase counting.  Defragmentation write traffic
  consumes program/erase cycles — the lifetime argument of Section 1 — and
  the wear counters make that measurable (benchmark E14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import DeviceError


@dataclass
class EraseBlock:
    """One flash erase block: an append-only list of page slots.

    ``index`` is the block's position in the FTL's block registry; a
    mapped page's location is ``index * pages_per_block + slot``.
    """

    channel: int
    index: int
    pages: List[Optional[int]] = field(default_factory=list)
    valid_count: int = 0
    erase_count: int = 0


class FtlWriteResult(NamedTuple):
    """Channel load and GC work produced by one logical write.

    Host pages stripe round-robin, so the channel load is fully described
    by the first page's channel and the page count.
    """

    first_channel: int
    pages: int
    relocated_pages: int
    erased_blocks: int
    channels: int

    @property
    def pages_per_channel(self) -> Dict[int, int]:
        """Pages per channel, in the order the stripe first touches them."""
        channels = self.channels
        base, rem = divmod(self.pages, channels)
        return {
            (self.first_channel + k) % channels: base + 1 if k < rem else base
            for k in range(min(channels, self.pages))
        }


class PageMappingFtl:
    """Page-level logical-to-physical mapping with greedy GC."""

    def __init__(
        self,
        logical_pages: int,
        channels: int = 8,
        pages_per_block: int = 256,
        overprovision: float = 0.07,
        gc_free_block_threshold: int = 2,
    ) -> None:
        if channels <= 0 or pages_per_block <= 0:
            raise DeviceError("channels and pages_per_block must be positive")
        self.logical_pages = logical_pages
        self.channels = channels
        self.pages_per_block = pages_per_block
        physical_pages = int(logical_pages * (1.0 + overprovision))
        per_channel_blocks = max(
            gc_free_block_threshold + 2,
            -(-physical_pages // (pages_per_block * channels)),
        )
        self.blocks_per_channel = per_channel_blocks
        self.gc_free_block_threshold = gc_free_block_threshold
        #: lpn -> location, ``block.index * pages_per_block + slot``: one
        #: int per mapped page instead of a (block, slot) tuple
        self.mapping: Dict[int, int] = {}
        #: every block created so far, by index
        self._blocks: List[EraseBlock] = []
        self._active: List[Optional[EraseBlock]] = [None] * channels
        self._sealed: List[List[EraseBlock]] = [[] for _ in range(channels)]
        self._free_pool: List[List[EraseBlock]] = [[] for _ in range(channels)]
        self._created_blocks = [0] * channels
        #: per-channel free blocks: pooled erased blocks plus never-used ones
        self._free_blocks = [per_channel_blocks] * channels
        #: the channel's last victim search found nothing reclaimable and no
        #: block on it has since been sealed or lost a valid page, so GC
        #: would find nothing again
        self._gc_stalled = [False] * channels
        self._next_channel = 0
        self.total_erases = 0
        self.host_pages_written = 0
        self.relocated_pages_total = 0
        #: bumped on every mapping mutation (write/invalidate, including
        #: GC relocations inside write); read-plan memoization keys on it
        self.generation = 0

    # -- mapping queries -------------------------------------------------

    def channel_of(self, lpn: int) -> int:
        """Channel a read of ``lpn`` lands on.

        Unwritten logical pages behave as if the drive were pre-filled
        sequentially (address-striped).
        """
        loc = self.mapping.get(lpn)
        if loc is None:
            return lpn % self.channels
        return self._blocks[loc // self.pages_per_block].channel

    def location(self, lpn: int) -> Optional[Tuple[EraseBlock, int]]:
        """``(block, slot)`` holding ``lpn``, or None when it is unmapped."""
        loc = self.mapping.get(lpn)
        if loc is None:
            return None
        index, slot = divmod(loc, self.pages_per_block)
        return self._blocks[index], slot

    def channel_counts(self, first: int, last: int) -> Dict[int, int]:
        """Pages-per-channel for a read of lpns ``first..last`` inclusive.

        Batch form of :meth:`channel_of`.  The dict is in first-occurrence
        order, which the plan's ``unit_work`` tuple (and every
        fingerprinted document hashing it) depends on.
        """
        mapping_get = self.mapping.get
        blocks = self._blocks
        pages_per_block = self.pages_per_block
        channels = self.channels
        counts: Dict[int, int] = {}
        for lpn in range(first, last + 1):
            loc = mapping_get(lpn)
            channel = (
                lpn % channels if loc is None
                else blocks[loc // pages_per_block].channel
            )
            counts[channel] = counts.get(channel, 0) + 1
        return counts

    @property
    def write_amplification(self) -> float:
        if self.host_pages_written == 0:
            return 1.0
        return (self.host_pages_written + self.relocated_pages_total) / self.host_pages_written

    # -- block lifecycle -------------------------------------------------

    def _take_free_block(self, channel: int) -> Optional[EraseBlock]:
        if self._free_pool[channel]:
            block = self._free_pool[channel].pop()
        elif self._created_blocks[channel] < self.blocks_per_channel:
            self._created_blocks[channel] += 1
            block = EraseBlock(channel, len(self._blocks))
            self._blocks.append(block)
        else:
            return None
        self._free_blocks[channel] -= 1
        return block

    def _replace_active(self, channel: int) -> Optional[EraseBlock]:
        """Seal the channel's active block and open a free one (None when
        the channel has no free block left)."""
        block = self._active[channel]
        if block is not None:
            self._sealed[channel].append(block)
            self._gc_stalled[channel] = False
        block = self._active[channel] = self._take_free_block(channel)
        return block

    # -- program path ----------------------------------------------------

    def write(self, lpns: Sequence[int]) -> FtlWriteResult:
        """Host write of the given logical pages (out-of-place, striped).

        One pass per command: page ``k`` lands on channel ``(first + k) %
        channels``.  Before each page, GC runs on that page's channel when
        its free-block count is below the threshold, unless the channel is
        stalled (see ``_gc_stalled``).
        """
        if lpns and max(lpns) >= self.logical_pages:
            bad = next(lpn for lpn in lpns if lpn >= self.logical_pages)
            raise DeviceError(f"lpn {bad} beyond logical capacity")
        self.generation += 1
        channels = self.channels
        pages_per_block = self.pages_per_block
        threshold = self.gc_free_block_threshold
        mapping = self.mapping
        mapping_get = mapping.get
        blocks = self._blocks
        active = self._active
        free_blocks = self._free_blocks
        stalled = self._gc_stalled
        first_channel = channel = self._next_channel
        relocated = 0
        erased = 0
        for lpn in lpns:
            if free_blocks[channel] < threshold and not stalled[channel]:
                r, e = self._collect_garbage(channel)
                relocated += r
                erased += e
            old = mapping_get(lpn)
            if old is not None:
                old_block = blocks[old // pages_per_block]
                old_block.pages[old % pages_per_block] = None
                old_block.valid_count -= 1
                stalled[old_block.channel] = False
            block = active[channel]
            if block is None or len(block.pages) >= pages_per_block:
                block = self._replace_active(channel)
                if block is None:
                    raise DeviceError(f"flash channel {channel} out of space (GC failed)")
            pages = block.pages
            pages.append(lpn)
            block.valid_count += 1
            mapping[lpn] = block.index * pages_per_block + len(pages) - 1
            channel += 1
            if channel == channels:
                channel = 0
        self._next_channel = channel
        self.host_pages_written += len(lpns)
        return FtlWriteResult(first_channel, len(lpns), relocated, erased, channels)

    def invalidate(self, lpns: Iterable[int]) -> int:
        """Discard: drop mappings, freeing the pages for GC.  Returns count."""
        self.generation += 1
        stalled = self._gc_stalled
        blocks = self._blocks
        pages_per_block = self.pages_per_block
        dropped = 0
        for lpn in lpns:
            loc = self.mapping.pop(lpn, None)
            if loc is not None:
                index, slot = divmod(loc, pages_per_block)
                block = blocks[index]
                block.pages[slot] = None
                block.valid_count -= 1
                stalled[block.channel] = False
                dropped += 1
        return dropped

    # -- garbage collection ----------------------------------------------

    def _collect_garbage(self, channel: int) -> Tuple[int, int]:
        """Reclaim victims until the channel is back at the free-block
        threshold; returns ``(relocated pages, erased blocks)``."""
        relocated = 0
        erased = 0
        while self._free_blocks[channel] < self.gc_free_block_threshold:
            victim = self._pick_victim(channel)
            if victim is None:
                self._gc_stalled[channel] = True
                break
            relocated += self._collect(victim)
            erased += 1
        return relocated, erased

    def _pick_victim(self, channel: int) -> Optional[EraseBlock]:
        sealed = self._sealed[channel]
        if not sealed:
            return None
        best_idx = min(range(len(sealed)), key=lambda i: sealed[i].valid_count)
        if sealed[best_idx].valid_count >= self.pages_per_block:
            return None  # nothing reclaimable
        return sealed.pop(best_idx)

    def _collect(self, victim: EraseBlock) -> int:
        """Relocate valid pages out of ``victim`` and erase it."""
        moved = 0
        for slot, lpn in enumerate(victim.pages):
            if lpn is None:
                continue
            victim.pages[slot] = None
            victim.valid_count -= 1
            # Relocations stay on the victim's channel (intra-channel copyback).
            self._program_relocation(victim.channel, lpn)
            moved += 1
        victim.pages = []
        victim.erase_count += 1
        self.total_erases += 1
        self.relocated_pages_total += moved
        self._free_pool[victim.channel].append(victim)
        self._free_blocks[victim.channel] += 1
        return moved

    def _program_relocation(self, channel: int, lpn: int) -> None:
        block = self._active[channel]
        if block is None or len(block.pages) >= self.pages_per_block:
            block = self._replace_active(channel)
            if block is None:
                raise DeviceError(f"flash channel {channel} wedged during GC")
        block.pages.append(lpn)
        block.valid_count += 1
        self.mapping[lpn] = block.index * self.pages_per_block + len(block.pages) - 1
