"""Critical-path extraction and profile exports over a provenance forest.

Given the per-syscall trees :func:`repro.obs.provenance.build_forest`
reconstructs, this module answers "where did the run's wall-clock go?"
three ways:

- :func:`critical_path` — sweep the run's timeline and attribute every
  instant to the syscall on the path (or to host/idle gaps between
  syscalls, labelled with the enclosing phase span).  The segment
  durations sum to the run's wall-clock *exactly* by construction;
  :meth:`CriticalPath.check` enforces the same sum-to-total invariant
  the latency attribution uses, so a failing check means the sweep (not
  the simulation) regressed.
- :func:`flamegraph` — collapsed-stack lines
  (``frame;frame;frame value``), the format ``flamegraph.pl`` and
  speedscope consume.  Stacks are
  ``run;<phase>;<op>:<app>;<component>``; values are summed virtual
  microseconds, so splitting shows up as wide ``kernel`` and
  ``<device>.queue`` frames that collapse after defragmentation.
- :func:`flow_events` — Chrome ``trace_event`` slices for every traced
  syscall and device command plus ``s``/``f`` flow arrows linking each
  syscall to its critical (tail) command, so Perfetto draws the causal
  chain across tracks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..stats.tables import format_table
from .provenance import ProvenanceForest, SyscallTree
from .spans import Span, SpanRecorder

#: tid namespace for provenance tracks in exported Chrome traces (clear
#: of the per-track ids chrome_trace assigns from 1)
FLOW_TID_BASE = 1000


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One stretch of the run's timeline attributed to a single cause."""

    kind: str          # "syscall" | "host"
    label: str
    phase: str
    start: float
    end: float
    pid: int = 0
    detail: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The run's wall-clock, decomposed into path segments."""

    run_start: float
    run_end: float
    segments: List[Segment] = field(default_factory=list)

    @property
    def wall_clock(self) -> float:
        return max(0.0, self.run_end - self.run_start)

    @property
    def total(self) -> float:
        return sum(segment.duration for segment in self.segments)

    @property
    def residual(self) -> float:
        return self.wall_clock - self.total

    def check(self, tolerance: float = 0.01) -> bool:
        """Segments cover the wall-clock within ``tolerance`` (the same
        sum-to-total contract as the latency attribution)."""
        if self.wall_clock <= 0.0:
            return self.total <= 1e-12
        return abs(self.residual) <= tolerance * self.wall_clock

    def by_phase(self) -> Dict[str, float]:
        """Wall-clock per phase label, in first-seen order."""
        shares: Dict[str, float] = {}
        for segment in self.segments:
            shares[segment.phase] = shares.get(segment.phase, 0.0) + segment.duration
        return shares

    def table(self, limit: int = 15) -> str:
        """Longest path segments plus the sum-to-total footer."""
        ranked = sorted(
            self.segments, key=lambda s: (-s.duration, s.start)
        )[:limit]
        rows: List[List[object]] = [
            [segment.start, segment.duration, segment.kind, segment.phase,
             segment.label, segment.detail]
            for segment in ranked
        ]
        body = format_table(
            ["start s", "duration s", "kind", "phase", "on the path", "detail"],
            rows,
        )
        footer = (
            f"critical path: {len(self.segments)} segments, "
            f"{self.total:.6f} s of {self.wall_clock:.6f} s wall-clock "
            f"(residual {self.residual:+.2e} s, "
            f"check {'OK' if self.check() else 'FAILED'})"
        )
        phases = ", ".join(
            f"{name} {seconds:.4f}s" for name, seconds in self.by_phase().items()
        )
        return f"{body}\n{footer}\nby phase: {phases}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": "repro.obs.critical_path/v1",
            "wall_clock_s": self.wall_clock,
            "total_s": self.total,
            "residual_s": self.residual,
            "ok": self.check(),
            "segments": len(self.segments),
            "by_phase_s": self.by_phase(),
        }


def _phase_spans(recorder: Optional[SpanRecorder]) -> List[Span]:
    """Finished spans usable as phase labels (top-level first)."""
    if recorder is None:
        return []
    return sorted(
        recorder.finished_spans(), key=lambda span: (span.depth, span.start)
    )


def _phase_at(spans: List[Span], time: float) -> str:
    """Deepest finished span covering ``time`` (sorted shallow→deep, so
    the last hit wins)."""
    label = "run"
    for span in spans:
        if span.start <= time <= (span.end if span.end is not None else span.start):
            label = span.name
    return label


def critical_path(
    forest: ProvenanceForest,
    recorder: Optional[SpanRecorder] = None,
    start: Optional[float] = None,
    end: Optional[float] = None,
) -> CriticalPath:
    """Sweep the run window and attribute every instant to its cause.

    Synchronous syscalls own their [start, end) windows (overlaps from
    co-running actors are clipped — the later-finishing call stays on
    the path); uncovered stretches become ``host`` segments labelled by
    the phase span covering them.  The segment durations therefore sum
    to the wall-clock exactly.
    """
    trees = sorted(
        forest.complete_trees(), key=lambda t: (t.start, t.end, t.pid)
    )
    spans = _phase_spans(recorder)
    bounds: List[float] = []
    for tree in trees:
        bounds.extend((tree.start, tree.end))
    for span in spans:
        bounds.extend((span.start, span.end))
    if not bounds:
        return CriticalPath(0.0, 0.0)
    run_start = start if start is not None else min(bounds)
    run_end = end if end is not None else max(bounds)
    path = CriticalPath(run_start, run_end)
    segments = path.segments
    cursor = run_start

    def host_gap(gap_start: float, gap_end: float) -> None:
        midpoint = (gap_start + gap_end) / 2.0
        segments.append(Segment(
            kind="host", label="(host cpu / idle)",
            phase=_phase_at(spans, midpoint),
            start=gap_start, end=gap_end,
        ))

    for tree in trees:
        if tree.end <= cursor or tree.start >= run_end:
            continue  # fully shadowed by an earlier call / out of window
        if tree.start > cursor:
            host_gap(cursor, min(tree.start, run_end))
            cursor = min(tree.start, run_end)
        seg_end = min(tree.end, run_end)
        segments.append(Segment(
            kind="syscall",
            label=f"{tree.op} {tree.path}",
            phase=_phase_at(spans, (max(cursor, tree.start) + seg_end) / 2.0),
            start=max(cursor, tree.start),
            end=seg_end,
            pid=tree.pid,
            detail=f"{tree.fanout} cmd(s), tail {tree.describe_tail()}",
        ))
        cursor = seg_end
    if cursor < run_end:
        host_gap(cursor, run_end)
    return path


# ----------------------------------------------------------------------
# flamegraph (collapsed-stack) export
# ----------------------------------------------------------------------


def _tree_frames(tree: SyscallTree, phase: str) -> List[Tuple[str, float]]:
    """(stack, seconds) contributions of one syscall tree."""
    base = f"run;{phase};{tree.op}:{tree.app}"
    frames: List[Tuple[str, float]] = []
    kernel_queue = tree.kernel_queue
    kernel_cpu = tree.kernel_cpu
    if kernel_queue > 0.0:
        frames.append((f"{base};kernel.queue", kernel_queue))
    if kernel_cpu > 0.0:
        frames.append((f"{base};kernel", kernel_cpu))
    device_total = 0.0
    for command in tree.commands:
        if command.queue_wait > 0.0:
            frames.append((f"{base};{command.device}.queue", command.queue_wait))
        service = command.service
        if service > 0.0:
            penalty = min(command.penalty, service)
            if penalty > 0.0:
                frames.append((
                    f"{base};{command.device}.{command.op};penalty", penalty
                ))
            if service - penalty > 0.0:
                frames.append((
                    f"{base};{command.device}.{command.op}", service - penalty
                ))
    for begin, finish in tree.device_windows():
        device_total += finish - begin
    host = tree.latency - kernel_queue - kernel_cpu - device_total
    if host > 0.0:
        frames.append((f"{base};fs", host))
    return frames


def flamegraph(
    forest: ProvenanceForest, recorder: Optional[SpanRecorder] = None
) -> str:
    """Collapsed-stack profile of every traced syscall.

    One line per unique stack, ``frame;frame;... <microseconds>``, ready
    for ``flamegraph.pl`` / speedscope / inferno.  Weights are summed
    virtual time, so parallel device work can legitimately exceed
    wall-clock (it's a profile, not a timeline).
    """
    spans = _phase_spans(recorder)
    weights: Dict[str, float] = {}
    for tree in forest.complete_trees():
        phase = _phase_at(spans, (tree.start + tree.end) / 2.0)
        for stack, seconds in _tree_frames(tree, phase):
            weights[stack] = weights.get(stack, 0.0) + seconds
    lines = []
    for stack in sorted(weights):
        micros = round(weights[stack] * 1e6)
        if micros > 0:
            lines.append(f"{stack} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_flamegraph(
    path: str, forest: ProvenanceForest, recorder: Optional[SpanRecorder] = None
) -> None:
    from ..doc import write_text  # on use: keeps repro.doc out of `import repro`

    write_text(path, flamegraph(forest, recorder))


# ----------------------------------------------------------------------
# Chrome flow-event export
# ----------------------------------------------------------------------


def flow_events(forest: ProvenanceForest) -> List[Dict[str, object]]:
    """Chrome trace events drawing each syscall→command causal chain.

    Emits per-syscall and per-command complete ("X") slices on dedicated
    provenance tracks plus flow start/finish ("s"/"f") arrows keyed by
    pid, linking every syscall slice to its critical (tail) command.
    Feed the result to ``chrome_trace(..., extra_events=...)``.
    """
    from .export import TRACE_PID  # late: export imports this module's sibling

    events: List[Dict[str, object]] = []
    syscall_tid = FLOW_TID_BASE
    device_tids: Dict[str, int] = {}
    events.append({
        "name": "thread_name", "cat": "prov", "ph": "M", "pid": TRACE_PID,
        "tid": syscall_tid, "args": {"name": "prov.syscalls"},
    })
    for tree in sorted(forest.complete_trees(), key=lambda t: (t.start, t.pid)):
        events.append({
            "name": f"{tree.op} {tree.path}",
            "cat": "prov",
            "ph": "X",
            "ts": tree.start * 1e6,
            "dur": tree.latency * 1e6,
            "pid": TRACE_PID,
            "tid": syscall_tid,
            "args": {
                "pid": tree.pid, "app": tree.app, "requests": tree.requests,
                "fanout": tree.fanout, "bytes": tree.size,
            },
        })
        for command in sorted(tree.commands, key=lambda c: (c.begin, c.offset)):
            tid = device_tids.get(command.device)
            if tid is None:
                tid = device_tids[command.device] = (
                    FLOW_TID_BASE + 1 + len(device_tids)
                )
                events.append({
                    "name": "thread_name", "cat": "prov", "ph": "M",
                    "pid": TRACE_PID, "tid": tid,
                    "args": {"name": f"prov.{command.device}"},
                })
            events.append({
                "name": f"{command.device}.{command.op}",
                "cat": "prov",
                "ph": "X",
                "ts": command.begin * 1e6,
                "dur": command.service * 1e6,
                "pid": TRACE_PID,
                "tid": tid,
                "args": {
                    "pid": tree.pid, "offset": command.offset,
                    "length": command.length, "units": command.units,
                    "unit": command.unit,
                    "queue_wait_us": command.queue_wait * 1e6,
                    "penalty_us": command.penalty * 1e6,
                },
            })
        tail = tree.tail
        if tail is not None:
            events.append({
                "name": "io", "cat": "prov", "ph": "s", "id": tree.pid,
                "ts": tree.start * 1e6, "pid": TRACE_PID, "tid": syscall_tid,
            })
            events.append({
                "name": "io", "cat": "prov", "ph": "f", "bp": "e",
                "id": tree.pid, "ts": max(tail.begin, tree.start) * 1e6,
                "pid": TRACE_PID, "tid": device_tids[tail.device],
            })
    return events
