"""The per-role message tables: one handler row per payload type.

Each site role dispatches inbound payloads through a ``HANDLERS`` table.
Under a fault plan the survivability layer's ``FAULT_HANDLERS`` rows
join it in the composed classes, and the layer's central adds
``LOG_HANDLERS`` for the primary <-> standby stream.  Each payload
carries the ``kind`` it is sent and traced under.
"""

from collections import Counter

import pytest

from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, paper_config, protocol
from repro.hybrid.config import PROTOCOLS
from repro.hybrid.protocol import CancelAck, CentralSnapshot, \
    FailoverNotice
from repro.hybrid.survival import SurvivableCentralSite, \
    SurvivableLocalSite
from repro.hybrid.system import site_classes
from repro.sim.faults import failover_outage_plan
from repro.sim.network import Message

PAYLOADS = [getattr(protocol, name) for name in protocol.__all__
            if name != "CentralSnapshot"]

#: The envelope and trace kind of every payload.  The golden trace
#: digests hash these strings, so they must not change.
KINDS = {
    "TxnShipment": "txn",
    "UpdatePropagation": "update",
    "UpdateAck": "update-ack",
    "AuthRequest": "auth-request",
    "AuthReply": "auth-reply",
    "CommitOrder": "commit",
    "ReleaseOrder": "release",
    "TxnResponse": "txn-response",
    "ShipmentCancel": "cancel",
    "CancelAck": "cancel-ack",
    "Heartbeat": "heartbeat",
    "LogRecord": "log",
    "TakeoverNotice": "takeover",
    "FailoverNotice": "failover",
    "RejoinRequest": "rejoin",
    "RejoinSnapshot": "rejoin-snapshot",
    "RemoteLockRequest": "remote-lock",
    "RemoteLockReply": "remote-reply",
    "RemoteCommit": "remote-commit",
    "RemoteRelease": "remote-release",
    "RemoteInvalidate": "remote-invalidate",
    "TxnPrepare": "prepare",
    "TxnVote": "vote",
    "TxnDecision": "decision",
    "EpochCommitOrder": "epoch-commit",
}


def tables(protocol_name):
    """(class, table) for every receiving table of a protocol: its
    fault-free pair's and the survivability layer's."""
    local_cls, central_cls = site_classes(protocol_name)
    return [(local_cls, local_cls.HANDLERS),
            (SurvivableLocalSite, SurvivableLocalSite.FAULT_HANDLERS),
            (central_cls, central_cls.HANDLERS),
            (SurvivableCentralSite, SurvivableCentralSite.FAULT_HANDLERS),
            (SurvivableCentralSite, SurvivableCentralSite.LOG_HANDLERS)]


def rows(protocol_name):
    return Counter(payload_type for _cls, table in tables(protocol_name)
                   for payload_type in table)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_each_payload_has_at_most_one_row_per_protocol(protocol_name):
    counts = rows(protocol_name)
    assert set(counts) <= set(PAYLOADS)
    assert all(count == 1 for count in counts.values()), counts
    for cls, table in tables(protocol_name):
        for name in table.values():
            assert callable(getattr(cls, name)), (cls, name)


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_composed_tables_add_the_fault_rows(protocol_name):
    plain = site_classes(protocol_name)
    composed = site_classes(protocol_name, failover_outage_plan(5.0, 20.0))
    for plain_cls, cls in zip(plain, composed):
        assert issubclass(cls, plain_cls)
        assert not set(plain_cls.HANDLERS) & set(cls.FAULT_HANDLERS)
        assert cls.HANDLERS == {**plain_cls.HANDLERS, **cls.FAULT_HANDLERS}
        for name in cls.HANDLERS.values():
            assert callable(getattr(cls, name)), (cls, name)
    for name in composed[1].LOG_HANDLERS.values():
        assert callable(getattr(composed[1], name)), name


def test_every_payload_has_a_row():
    received = set()
    for protocol_name in PROTOCOLS:
        received |= set(rows(protocol_name))
    assert received == set(PAYLOADS)
    protocol_only = {protocol.TxnPrepare, protocol.TxnVote,
                     protocol.TxnDecision, protocol.EpochCommitOrder}
    assert set(rows("optimistic")) == set(PAYLOADS) - protocol_only


def test_payload_kinds_are_pinned_and_unique():
    assert {cls.__name__: cls.kind for cls in PAYLOADS} == KINDS
    assert len(set(KINDS.values())) == len(KINDS)


def test_every_payload_is_slotted():
    for cls in [CentralSnapshot, *PAYLOADS]:
        assert "__slots__" in vars(cls), cls


@pytest.mark.parametrize("protocol_name", PROTOCOLS)
def test_fault_free_tables_hold_no_fault_rows(protocol_name):
    config = paper_config(total_rate=10.0, warmup_time=0.0,
                          measure_time=5.0, protocol=protocol_name)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config))
    layers = [SurvivableLocalSite] * len(system.sites) + \
        [SurvivableCentralSite]
    for node, layer in zip((*system.sites, system.central), layers):
        assert set(node.handlers) == set(type(node).HANDLERS)
        assert not set(node.handlers) & set(layer.FAULT_HANDLERS)
    ack = CancelAck(txn_id=1, outcome="killed",
                    snapshot=CentralSnapshot.empty())
    with pytest.raises(TypeError, match="unexpected payload CancelAck"):
        system.sites[0]._receive(ack)


def test_fault_plan_merges_fault_rows():
    config = paper_config(total_rate=10.0, warmup_time=5.0,
                          measure_time=20.0)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config),
                          fault_plan=failover_outage_plan(5.0, 20.0))
    for node in (*system.sites, system.central, system.standby):
        cls = type(node)
        assert set(node.handlers) == set(cls.HANDLERS) | \
            set(cls.FAULT_HANDLERS)


def test_unexpected_payload_on_the_log_stream_raises():
    config = paper_config(total_rate=10.0, warmup_time=5.0,
                          measure_time=20.0)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config),
                          fault_plan=failover_outage_plan(5.0, 20.0))
    stray = FailoverNotice(snapshot=CentralSnapshot.empty())
    system.central.log_endpoint.send(Message(
        kind=stray.kind, source="central", payload=stray))
    with pytest.raises(TypeError, match="unexpected payload FailoverNotice"):
        system.env.run(until=1.0)
