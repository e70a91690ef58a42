"""The survivability layer exists only under a fault plan.

A fault-free system is built from the protocol's plain site classes and
carries none of the layer's state or methods; under every canned fault
plan the layer is composed over each protocol and its fault rows
dispatch.  ``admission_limit`` bounds only a rejoining site's arrival
queue.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid.config import PROTOCOLS
from repro.hybrid.protocol import CancelAck, CentralSnapshot, \
    ShipmentCancel
from repro.hybrid.survival import SurvivableCentralSite, \
    SurvivableLocalSite
from repro.hybrid.system import site_classes
from repro.sim.engine import Event
from repro.sim.faults import NAMED_PLANS, RecoveryPolicy, \
    rejoin_crash_plan, standard_outage_plan

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
    plan = rejoin_crash_plan(warmup_time=5.0, measure_time=30.0, site=0)
    plan = plan.with_recovery(RecoveryPolicy(rejoin=True,
                                             admission_limit=1))
    config = paper_config(total_rate=30.0, warmup_time=5.0,
                          measure_time=30.0, seed=3)
    result = HybridSystem(config, STRATEGIES["queue-length"](config),
                          fault_plan=plan).run()
    assert result.site_rejoins == 1
    assert result.arrivals_shed > 0
