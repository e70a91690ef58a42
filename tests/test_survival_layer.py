"""The survivability layer exists only under a fault plan.

A fault-free system is built from the protocol's plain site classes and
carries none of the layer's state or methods; under every canned fault
plan the layer is composed over each protocol and its fault rows
dispatch.  The authentication round's cancel reactions are the layer's
too, driven here by hand.  ``admission_limit`` bounds only a rejoining
site's arrival queue.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import STRATEGIES
from repro.core.router import AlwaysLocalRouter
from repro.db import LockMode, Placement, Reference, Transaction, \
    TransactionClass
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid import central as central_module
from repro.hybrid.central import CentralSite
from repro.hybrid.config import PROTOCOLS
from repro.hybrid.protocol import AuthReply, CancelAck, CentralSnapshot, \
    ReleaseOrder, ShipmentCancel
from repro.hybrid.protocols import epoch as epoch_module
from repro.hybrid.survival import SurvivableCentralSite, \
    SurvivableLocalSite
from repro.hybrid.system import site_classes
from repro.sim.engine import Event
from repro.sim.faults import NAMED_PLANS, RecoveryPolicy, \
    rejoin_crash_plan, standard_outage_plan
from repro.sim.trace import Tracer

SRC = Path(__file__).resolve().parents[1] / "src"

#: Members only the layer defines: state, hooks and handlers.
LAYER_MEMBERS = ("_pending_ship", "breaker", "channel", "on_crash",
                 "start_log", "_handle_cancel")


def build(protocol, plan=None, total_rate=10.0):
    config = paper_config(total_rate=total_rate, warmup_time=5.0,
                          measure_time=20.0, protocol=protocol)
    return HybridSystem(config, STRATEGIES["queue-length"](config),
                        fault_plan=plan)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fault_free_system_is_the_plain_protocol(protocol):
    system = build(protocol)
    local_cls, central_cls = site_classes(protocol)
    assert {type(site) for site in system.sites} == {local_cls}
    assert type(system.central) is central_cls
    assert system.standby is None and system.injector is None
    for node in (*system.sites, system.central):
        # A protocol module keeps its own fault hooks (2PC's and the
        # epoch protocol's ``on_crash``), which reach the layer through
        # ``super()`` and never run without it.
        stock = [cls for cls in type(node).__mro__
                 if not cls.__module__.startswith("repro.hybrid.protocols.")]
        for name in LAYER_MEMBERS:
            assert name not in vars(node), (type(node).__name__, name)
            assert not any(name in vars(cls) for cls in stock), name


IMPORT_PROBE = """
import sys

from repro.experiments import runner

for protocol in ("optimistic", "2pc", "epoch"):
    runner.run_single("queue-length", 12.0, protocol=protocol,
                      settings=runner.RunSettings(scale=0.02))
print("repro.hybrid.survival" in sys.modules)
"""


def test_fault_free_runs_never_import_the_layer():
    # A fresh interpreter: this test process has the layer loaded.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               env=env, capture_output=True, text=True,
                               timeout=120, check=True)
    assert completed.stdout.strip() == "False"


@pytest.mark.parametrize("plan_name", sorted(NAMED_PLANS))
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_every_plan_composes_the_layer_and_dispatches_its_rows(
        protocol, plan_name):
    plan = NAMED_PLANS[plan_name](warmup_time=5.0, measure_time=20.0)
    system = build(protocol, plan)
    local_cls, central_cls = site_classes(protocol)
    site, central = system.sites[0], system.central
    assert isinstance(site, local_cls)
    assert isinstance(site, SurvivableLocalSite)
    assert isinstance(central, central_cls)
    assert isinstance(central, SurvivableCentralSite)
    # The layer sits between the protocol class and the stock class.
    for node, layer, protocol_cls in (
            (site, SurvivableLocalSite, local_cls),
            (central, SurvivableCentralSite, central_cls)):
        mro = type(node).__mro__
        assert mro[mro.index(layer) + 1] is layer.__base__
        assert protocol_cls is layer.__base__ or \
            mro.index(protocol_cls) < mro.index(layer)

    # Site row: a CancelAck settles the pending cancel handshake.
    done = Event(system.env)
    site._pending_cancels[99] = done
    site._receive(CancelAck(txn_id=99, outcome="killed",
                            snapshot=CentralSnapshot.empty()))
    assert done.triggered and done.value.outcome == "killed"

    # Central row: a ShipmentCancel for an unknown shipment is answered
    # "killed" on the site's reliable channel.
    channel = central.channels[0]
    unacked = channel.unacked
    getattr(central, central.handlers[ShipmentCancel])(
        ShipmentCancel(txn_id=99, site=0))
    assert channel.unacked == unacked + 1


def test_admission_limit_without_rejoin_sheds_nothing():
    plan = standard_outage_plan(warmup_time=5.0, measure_time=30.0)
    plan = plan.with_recovery(RecoveryPolicy(admission_limit=1))
    config = paper_config(total_rate=30.0, warmup_time=5.0,
                          measure_time=30.0, seed=3)
    result = HybridSystem(config, STRATEGIES["queue-length"](config),
                          fault_plan=plan).run()
    assert result.completed > 500
    assert result.arrivals_shed == 0


def test_admission_limit_bounds_the_rejoin_queue():
    # The goldens' rejoin queue never overflows, so this is the one
    # simulation that fires the ``shed`` trace kind and counter family.
    plan = rejoin_crash_plan(warmup_time=5.0, measure_time=30.0, site=0)
    plan = plan.with_recovery(RecoveryPolicy(rejoin=True,
                                             admission_limit=1))
    config = paper_config(total_rate=30.0, warmup_time=5.0,
                          measure_time=30.0, seed=3)
    tracer = Tracer(kinds={"shed"})
    system = HybridSystem(config, STRATEGIES["queue-length"](config),
                          fault_plan=plan, tracer=tracer)
    result = system.run()
    assert result.site_rejoins == 1
    assert result.arrivals_shed > 0
    # Only the crashed site's queue sheds; the trace is never gated.
    assert {record.details["node"] for record in tracer.records} \
        == {"site-0"}
    assert len(tracer.records) >= result.arrivals_shed
    assert system.registry.snapshot()["arrivals_shed{node=site-0}"] \
        == result.arrivals_shed


#: What only the layer needs of the authentication round: its state for
#: cancelled rounds and for rejoin's request re-sends.
ROUND_LAYER_MEMBERS = ("_round_requests", "_cancelled_rounds")


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_plain_centrals_keep_no_fault_state_of_the_round(protocol):
    assert [f.name for f in dataclasses.fields(central_module._PendingAuth)] \
        == ["event", "expected", "replies"]
    for module in (central_module, epoch_module):
        assert not hasattr(module, "Interrupt"), module.__name__
    central = build(protocol).central
    for cls in type(central).__mro__:
        for name in ROUND_LAYER_MEMBERS:
            assert name not in vars(cls), (cls.__name__, name)
    for name in ROUND_LAYER_MEMBERS:
        assert not hasattr(central, name), name
    # The interrupt reactions are the layer's overrides of these hooks.
    for hook in ("_await_auth", "_commit_burst", "_round_replied"):
        assert hook in vars(SurvivableCentralSite), hook
        assert hook in vars(CentralSite), hook
        assert not any(hook in vars(cls) for cls in type(central).__mro__
                       if cls is not CentralSite), hook


def build_quiet(protocol):
    """A fault-plan system with (practically) no arrivals, so a
    hand-admitted transaction is the only work at the central."""
    plan = standard_outage_plan(warmup_time=5.0, measure_time=20.0)
    config = paper_config(total_rate=1e-6, warmup_time=0.0,
                          measure_time=100.0, protocol=protocol)
    return HybridSystem(config, lambda c, i: AlwaysLocalRouter(),
                        fault_plan=plan)


def admit_central(system):
    """Admit a class B transaction updating one entity each of sites 0
    and 4 at the central, and spy on what the central sends."""
    partition = system.partition
    txn = Transaction(
        txn_id=90_001, txn_class=TransactionClass.B, home_site=0,
        references=(
            Reference(partition.site_range(0)[0], LockMode.EXCLUSIVE),
            Reference(partition.site_range(4)[0], LockMode.EXCLUSIVE)),
        arrival_time=0.0)
    txn.route(Placement.CENTRAL)
    central = system.central
    sent = []
    send = central._send

    def spy(site, payload):
        sent.append((site, payload))
        return send(site, payload)

    central._send = spy
    central.admit(txn)
    return txn, sent


def run_until(system, done, step=1e-3):
    while not done():
        system.env.run(until=system.env.now + step)


def cancel(system, txn):
    """Deliver a ShipmentCancel for ``txn`` and the interrupt it throws."""
    central = system.central
    getattr(central, central.handlers[ShipmentCancel])(
        ShipmentCancel(txn_id=txn.txn_id, site=txn.home_site))
    system.env.run(until=system.env.now + 1e-9)


def releases(sent):
    return sorted(site for site, payload in sent
                  if isinstance(payload, ReleaseOrder))


def round_state(central, auth_id):
    """The central's records still keyed by the round's ``auth_id``."""
    return [name for name, value in vars(central).items()
            if isinstance(value, dict) and auth_id in value]


def test_cancel_mid_round_releases_granted_masters_after_the_last_reply():
    system = build_quiet("optimistic")
    central = system.central
    txn, sent = admit_central(system)
    run_until(system, lambda: central._pending_auth)
    (auth_id, pending), = central._pending_auth.items()
    assert pending.expected == 2
    assert "_pending_auth" in round_state(central, auth_id)
    cancel(system, txn)
    assert txn.txn_id not in central.active
    central._collect_auth_reply(AuthReply(
        auth_id=auth_id, txn_id=txn.txn_id, site=4, granted=True))
    # A release before the last reply could overtake a grant.
    assert releases(sent) == []
    central._collect_auth_reply(AuthReply(
        auth_id=auth_id, txn_id=txn.txn_id, site=0, granted=False))
    assert releases(sent) == [4]
    assert not pending.event.triggered
    assert round_state(central, auth_id) == []
    # A late straggler for the finished round is dropped.
    central._collect_auth_reply(AuthReply(
        auth_id=auth_id, txn_id=txn.txn_id, site=0, granted=True))
    assert releases(sent) == [4]


def test_cancel_during_the_commit_burst_releases_every_master():
    system = build_quiet("optimistic")
    central = system.central
    txn, sent = admit_central(system)
    run_until(system, lambda: central._pending_auth)
    (auth_id, _pending), = central._pending_auth.items()
    for site in (0, 4):
        central._collect_auth_reply(AuthReply(
            auth_id=auth_id, txn_id=txn.txn_id, site=site, granted=True))
    system.env.run(until=system.env.now + 1e-9)
    # Both masters granted: the transaction holds the CPU for its commit.
    assert central.cpu_queue_length == 1
    assert releases(sent) == []
    cancel(system, txn)
    assert releases(sent) == [0, 4]
    assert round_state(central, auth_id) == []
    system.env.run(until=system.env.now + 1.0)
    assert txn.completed_at is None


def test_epoch_cancel_mid_epoch_leaves_the_boundary_queue():
    system = build_quiet("epoch")
    central = system.central
    txn, _sent = admit_central(system)
    run_until(system, lambda: central._epoch_commits)
    (txn_id, wakeup), = central._epoch_commits
    assert txn_id == txn.txn_id
    cancel(system, txn)
    assert central._epoch_commits == []
    system.env.run(until=system.env.now
                   + 2 * system.config.epoch_interval)
    assert not wakeup.triggered
    assert txn.completed_at is None
