"""The commit-protocol lookup, its config/CLI plumbing and cache keys.

Property-tested round trips (name -> config -> site classes), clean
rejection of unknown names at every entry point (SystemConfig, the
lookup, the CLI), the hot standby as an instance of the protocol's own
central class, and the guarantee that two protocols can never share an
on-disk result-cache entry.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import STRATEGIES
from repro.experiments.cache import ResultCache
from repro.experiments.cli import main as experiment_main
from repro.experiments.runner import RunSettings
from repro.hybrid import PROTOCOLS, CentralSite, HybridSystem, LocalSite, \
    SystemConfig, paper_config, site_classes
from repro.sim.faults import failover_outage_plan

BUILTINS = ("optimistic", "2pc", "epoch")


# ---------------------------------------------------------------------------
# The lookup
# ---------------------------------------------------------------------------


def test_builtins_are_registered():
    """Every protocol name maps to one (local, central) class pair."""
    assert PROTOCOLS == BUILTINS
    assert site_classes("optimistic") == (LocalSite, CentralSite)
    for name in PROTOCOLS:
        local_cls, central_cls = site_classes(name)
        assert issubclass(local_cls, LocalSite)
        assert issubclass(central_cls, CentralSite)


@given(name=st.sampled_from(BUILTINS))
@settings(max_examples=20, deadline=None)
def test_name_protocol_config_round_trip(name):
    """name -> config -> site classes survives the loop."""
    config = paper_config(protocol=name)
    assert config.protocol == name
    config.validate()  # still valid after the round trip
    rebuilt = dataclasses.replace(config)
    assert site_classes(rebuilt.protocol) == site_classes(name)


@pytest.mark.parametrize("protocol", BUILTINS)
def test_standby_is_the_protocols_central_class(protocol):
    """Under a failover plan the hot standby is a second instance of the
    protocol's own central class, inactive until it takes over."""
    config = paper_config(total_rate=10.0, warmup_time=5.0,
                          measure_time=20.0, protocol=protocol)
    plan = failover_outage_plan(warmup_time=5.0, measure_time=20.0)
    system = HybridSystem(config, STRATEGIES["queue-length"](config),
                          fault_plan=plan)
    assert type(system.standby) is type(system.central)
    assert type(system.central) is site_classes(protocol)[1]
    assert system.central.is_active
    assert not system.standby.is_active


# ---------------------------------------------------------------------------
# Unknown names fail fast at every entry point
# ---------------------------------------------------------------------------


@given(name=st.text(min_size=1, max_size=20).filter(
    lambda s: s not in BUILTINS))
@settings(max_examples=30, deadline=None)
def test_unknown_protocol_raises_value_error(name):
    with pytest.raises(ValueError, match="unknown commit protocol"):
        site_classes(name)
    with pytest.raises(ValueError, match="unknown commit protocol"):
        paper_config(protocol=name)


def test_config_error_names_the_alternatives():
    with pytest.raises(ValueError) as excinfo:
        SystemConfig(protocol="three-phase")
    message = str(excinfo.value)
    for name in BUILTINS:
        assert name in message


def test_nonpositive_epoch_interval_rejected():
    with pytest.raises(ValueError, match="epoch_interval"):
        paper_config(epoch_interval=0.0)


def test_cli_rejects_unknown_protocol(capsys):
    code = experiment_main(["--figure", "4.1", "--protocol", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown --protocol 'bogus'" in err
    assert "optimistic" in err


def test_cli_lists_protocols(capsys):
    """Each protocol is listed with its local site class's summary."""
    assert experiment_main(["--list-protocols"]) == 0
    out = capsys.readouterr().out
    for name in BUILTINS:
        summary = site_classes(name)[0].__doc__.strip().splitlines()[0]
        assert f"  {name}: {summary}" in out


# ---------------------------------------------------------------------------
# RunSettings threading and cache-key separation
# ---------------------------------------------------------------------------


def test_run_settings_thread_protocol_into_configs():
    settings = RunSettings(protocol="epoch")
    config = settings.config_for(20.0, 0.2)
    assert config.protocol == "epoch"
    # An explicit override still wins over the settings default.
    forced = settings.config_for(20.0, 0.2, protocol="2pc")
    assert forced.protocol == "2pc"


def test_cache_keys_never_collide_across_protocols():
    """One workload, every protocol: all distinct cache keys -- a 2PC
    result can never be served from the optimistic cache (or vice
    versa)."""
    keys = set()
    for name in PROTOCOLS:
        config = paper_config(total_rate=20.0, protocol=name)
        keys.add(ResultCache.key_for(config, "queue-length"))
    assert len(keys) == len(PROTOCOLS)


def test_epoch_interval_is_cache_significant():
    base = paper_config(total_rate=20.0, protocol="epoch")
    tweaked = paper_config(total_rate=20.0, protocol="epoch",
                           epoch_interval=0.5)
    assert (ResultCache.key_for(base, "queue-length") !=
            ResultCache.key_for(tweaked, "queue-length"))
