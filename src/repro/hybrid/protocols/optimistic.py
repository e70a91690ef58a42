"""The paper's optimistic-authentication protocol (the default).

This is the protocol the reproduction grew up with, extracted verbatim:
the factories return the stock :class:`~repro.hybrid.local.LocalSite`,
:class:`~repro.hybrid.central.CentralSite` and
:class:`~repro.hybrid.standby.StandbyCentral` classes unchanged, so a
run under ``protocol="optimistic"`` is bit-identical to the
pre-extraction simulator (pinned by the golden-trace gate in
``tests/test_protocol_conformance.py``).
"""

from __future__ import annotations

from ..central import CentralSite
from ..local import LocalSite
from ..standby import StandbyCentral
from . import register
from .base import CommitProtocol

__all__ = ["OptimisticProtocol"]


@register
class OptimisticProtocol(CommitProtocol):
    """Asynchronous update propagation + optimistic authentication."""

    name = "optimistic"

    messages_per_local_commit = ("1 async ``UpdatePropagation`` + 1 "
                                 "``UpdateAck``")
    blocking = ("non-blocking: local commits never wait on the central; "
                "coherence counts defer conflicts to authentication")
    consistency = ("eventual between commits; exact after drain "
                   "(replica counters converge)")

    def make_local(self, env, site_id, config, system, router) -> LocalSite:
        return LocalSite(env, site_id, config, system, router)

    def make_central(self, env, config, system, partition) -> CentralSite:
        return CentralSite(env, config, system, partition)

    def make_standby(self, env, config, system, partition) -> StandbyCentral:
        return StandbyCentral(env, config, system, partition)
