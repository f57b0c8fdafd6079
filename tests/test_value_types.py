"""The per-syscall value types are immutable.

They are ``NamedTuple``s for construction speed; immutability is what
makes sharing them safe.  The Flash and Optane plan caches hand one
``CommandPlan`` instance to every command of the same shape, so a
mutable plan would let one command silently rewrite another's timing.
"""

from __future__ import annotations

import pytest

from repro.block.request import IoCommand, IoOp
from repro.block.scheduler import SubmitResult
from repro.constants import GIB, KIB
from repro.device import make_device
from repro.device.base import BatchResult, CommandPlan
from repro.device.ftl import FtlWriteResult
from repro.fs.base import SyscallResult
from repro.fs.readahead import ReadPlan

VALUES = [
    SyscallResult(1.0, 0.5, 2, 8192),
    SubmitResult(1.0, 0.5, 2, 0.1, 0.4),
    BatchResult(0.5, 1.0, 0.4, 2),
    CommandPlan(0.1, ((0, 1.0), (1, 1.0)), 8192),
    ReadPlan(0, 8192, True),
    FtlWriteResult(3, 2, 0, 0, 8),
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_value_types_reject_attribute_assignment(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_value_type_defaults_and_properties():
    assert SyscallResult(1.0, 0.5, 0, 0).data is None
    assert CommandPlan(0.1) == (0.1, (), 0, 0.0)
    assert BatchResult(0.5, 1.25, 0.4, 2).latency == 0.75
    assert ReadPlan(4096, 12288, False).length == 8192
    assert FtlWriteResult(6, 10, 0, 0, 8).pages_per_channel == {
        6: 2, 7: 2, 0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}


@pytest.mark.parametrize("kind,op", [
    ("optane", IoOp.READ), ("optane", IoOp.WRITE), ("flash", IoOp.WRITE),
])
def test_plan_caches_share_one_immutable_instance(kind, op):
    device = make_device(kind, capacity=1 * GIB)
    plans = [
        device._plan_command(IoCommand(op, i * 64 * KIB, 16 * KIB))
        for i in range(3)
    ]
    # Optane: every offset here starts on bank 0.  Flash: a 4-page write
    # stripe starts on channel 0, 4, then 0 again (8 channels).
    assert plans[2] is plans[0]
    with pytest.raises(AttributeError):
        plans[0].unit_work = ()
