"""blktrace-equivalent accounting."""

import hashlib
import json

import pytest

from repro.block import BlockTracer, IoCommand, IoOp, TrafficCounter


def test_per_tag_accounting():
    tracer = BlockTracer()
    tracer.observe([
        IoCommand(IoOp.READ, 0, 100, "a"),
        IoCommand(IoOp.WRITE, 0, 200, "a"),
        IoCommand(IoOp.READ, 0, 300, "b"),
        IoCommand(IoOp.DISCARD, 0, 400, "b"),
    ])
    assert tracer.tag("a").read_bytes == 100
    assert tracer.tag("a").write_bytes == 200
    assert tracer.tag("b").read_bytes == 300
    assert tracer.tag("b").discard_bytes == 400
    assert tracer.total.read_bytes == 400
    assert tracer.tag("missing").total_bytes == 0


def test_command_counts():
    tracer = BlockTracer()
    tracer.observe([IoCommand(IoOp.READ, 0, 1, "x")] * 5)
    assert tracer.tag("x").read_commands == 5


def test_snapshot_delta():
    counter = TrafficCounter()
    counter.account(IoCommand(IoOp.WRITE, 0, 100))
    snap = counter.snapshot()
    counter.account(IoCommand(IoOp.WRITE, 0, 50))
    delta = counter.delta(snap)
    assert delta.write_bytes == 50
    assert snap.write_bytes == 100  # snapshot unaffected


def test_keep_log():
    tracer = BlockTracer(keep_log=True)
    tracer.observe([IoCommand(IoOp.READ, 0, 1)])
    assert len(tracer.log) == 1


def test_observe_emits_into_obs_event_ring():
    """With obs enabled, the tracer mirrors commands into the shared ring."""
    from repro.obs import hooks
    from repro.obs.hooks import Instrumentation

    try:
        with hooks.use(Instrumentation()) as obs:
            tracer = BlockTracer()
            tracer.observe([
                IoCommand(IoOp.READ, 4096, 512, "a"),
                IoCommand(IoOp.WRITE, 8192, 1024, "b"),
            ], now=1.5)
            events = [e for e in obs.spans.events if e.name == "block.cmd"]
        assert len(events) == 2
        read, write = events
        assert read.track == "block" and read.time == 1.5
        assert read.attrs == {"op": "read", "offset": 4096, "length": 512, "tag": "a", "pid": 0}
        assert write.attrs["op"] == "write" and write.attrs["tag"] == "b"
        # the counter side is unaffected by the mirroring
        assert tracer.tag("a").read_bytes == 512
    finally:
        hooks.disable()


#: sha256 of the armed obs outputs of a ``replay --smoke``-sized run
#: (20k ops, seed 0, ext4 on flash): its Chrome trace document and the
#: ``block.cmd`` events a harvest snapshot carries.  Pinned from the
#: kwargs-dict emitter; row-form events must reproduce them byte for byte.
REPLAY_TRACE_SHA256 = "9724f72de245af09cc308097c953dce2717b4a3ab2d0c61179dc43c17feedd95"
REPLAY_BLOCK_CMD_SHA256 = "7fe74ebebec6d43b51f6d72528fad48a8a88d110373874b8eb4ff7cbbd4610c4"


@pytest.fixture(scope="module")
def armed_replay_obs(tmp_path_factory):
    """The private obs plane of one smoke-sized ``run_replay``."""
    from repro.replay import TraceProfile, generate_trace
    from repro.replay import report

    planes = []

    class Recording(report.Instrumentation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            planes.append(self)

    path = str(tmp_path_factory.mktemp("replay") / "smoke.bin")
    generate_trace(path, TraceProfile(ops=20_000, seed=0))
    patch = pytest.MonkeyPatch()
    patch.setattr(report, "Instrumentation", Recording)
    try:
        report.run_replay(path, report.ReplayConfig())
    finally:
        patch.undo()
    (obs,) = planes
    return obs


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def test_armed_replay_chrome_trace_is_pinned(armed_replay_obs):
    from repro.obs import export

    obs = armed_replay_obs
    assert _sha256(export.chrome_trace(obs.spans, obs.registry)) == REPLAY_TRACE_SHA256


def test_armed_replay_harvested_block_cmds_are_pinned(armed_replay_obs):
    from repro.obs import harvest

    commands = [e for e in harvest.capture(armed_replay_obs).events if e[0] == "block.cmd"]
    assert len(commands) == 16_919
    assert _sha256(commands) == REPLAY_BLOCK_CMD_SHA256
