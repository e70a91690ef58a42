"""The alternative commit protocols: other site<->central interactions.

The paper evaluates its load-sharing strategies on top of exactly one
site<->central interaction -- asynchronous update propagation with
optimistic authentication (section 2), realised by the stock
:class:`~repro.hybrid.local.LocalSite` and
:class:`~repro.hybrid.central.CentralSite`.  Each module here realises a
competing protocol as a subclass pair of those two, so it runs under the
same workloads, fault plans, routing strategies and figures:

``2pc`` (:mod:`.twophase`)
    Primary-copy two-phase commit.  Updating local transactions block
    on a prepare/vote round with the central site (the primary-copy
    coordinator) before committing; coordinator failure leaves them
    blocked until a standby takes over.
``epoch`` (:mod:`.epoch`)
    Deterministic epoch-batched group commit.  Execution stays
    optimistic, but update batches ship once per epoch and are applied
    at the central in deterministic ``(site, seq)`` order; central
    commits wait for the epoch boundary.

:func:`repro.hybrid.system.site_classes` maps a protocol name (one of
:data:`repro.hybrid.config.PROTOCOLS`) to its class pair and imports a
module here only when its protocol runs.
"""
