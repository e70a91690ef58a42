"""System configuration for the hybrid distributed-centralized model.

All parameters of the paper's simulation study (Section 3.1 / 4.1) are
collected in :class:`SystemConfig`.  Values stated in the paper:

* 10 distributed sites, central complex of 15 MIPS, 1 MIPS per local
  site, 0.2 s link delay (0.5 s in the sensitivity study);
* Poisson arrivals, identical rate per site, ``p_local = 0.75``;
* 10 database calls per transaction at 30 K instructions per call, plus
  150 K instructions of message processing and transaction initiation;
* global lock space of 32 K entities; class A references uniform over the
  home tenth, class B uniform over the whole space;
* the collision constant ``C = N_l / lockspace``;
* CPU released on lock contention, on every I/O, and for communication;
* deadlock victims release all locks; transactions aborted by cross-site
  collisions re-run finding all data in memory.

The paper does not print numeric values for I/O times or the commit /
authentication / update-apply overhead pathlengths (they come from the
internal [YU87] trace).  The defaults below are chosen once, recorded in
EXPERIMENTS.md, and produce the paper's qualitative behaviour: local
saturation near 20 tps without load sharing, static load sharing carrying
the system to about 30 tps, and dynamic schemes beyond that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any

from ..db.workload import WorkloadParams

__all__ = ["SystemConfig", "PAPER_BASE", "PROTOCOLS", "paper_config"]

#: The site<->central commit protocols, the paper's first.  Each is a
#: (local site, central site) class pair that
#: :func:`repro.hybrid.system.site_classes` picks.
PROTOCOLS = ("optimistic", "2pc", "epoch")

#: Instructions are expressed in raw counts; MIPS ratings convert them to
#: seconds of CPU service (e.g. 30 K instructions on a 1 MIPS site = 30 ms).
MILLION = 1_000_000.0


@dataclass(frozen=True)
class SystemConfig:
    """Full parameterisation of one simulated hybrid system."""

    workload: WorkloadParams = field(default_factory=WorkloadParams)

    # -- hardware ---------------------------------------------------------
    central_mips: float = 15.0
    local_mips: float = 1.0
    comm_delay: float = 0.2            # one-way site <-> central (seconds)

    # -- pathlengths (instructions), Section 3.1 --------------------------
    instr_per_db_call: int = 30_000    # 10 calls per transaction
    instr_txn_overhead: int = 150_000  # message processing + initiation
    # Overheads not quantified in the paper text (see module docstring):
    instr_commit: int = 30_000         # commit processing at the run site
    instr_update_apply: int = 60_000   # apply one async update msg (central)
    instr_auth_master: int = 30_000    # authentication check at a master
    instr_auth_central: int = 30_000   # authentication handling at central

    # -- I/O model ---------------------------------------------------------
    io_initial: float = 0.025          # transaction set-up I/O (no locks)
    io_per_db_call: float = 0.025      # data I/O per call, first run only

    # -- protocol options ---------------------------------------------------
    keep_locks_on_abort: bool = True   # Section 3.1 modelling assumption
    instant_central_state: bool = False  # ablation: undelayed observations
    #: Paper Section 4.2: central queue-length information at the sites
    #: "is only updated during authentication of a centrally running
    #: transaction".  Setting this True also refreshes it from the
    #: acknowledgements of asynchronous updates (an ablation).
    snapshot_on_update_acks: bool = False
    #: Where class B transactions execute: "central" (the hybrid
    #: architecture of the paper) or "remote-call" (the fully distributed
    #: alternative of the introduction: run at the home site, fetch each
    #: non-local datum from the central data server with a synchronous
    #: remote call).  Section 3 notes this possibility without analysing
    #: it; this implementation makes the comparison runnable.
    class_b_mode: str = "central"

    # -- commit protocol -----------------------------------------------------
    #: The site<->central commit protocol, one of :data:`PROTOCOLS`
    #: (``optimistic`` -- the paper's asynchronous-update / optimistic-
    #: authentication interaction, ``2pc`` -- primary-copy two-phase
    #: commit, ``epoch`` -- deterministic epoch-batched group commit).
    protocol: str = "optimistic"
    #: Epoch length in seconds for the epoch-batched protocol (update
    #: batches ship and central commits resolve once per epoch).
    #: Ignored by the other protocols.
    epoch_interval: float = 0.25

    # -- measurement ---------------------------------------------------------
    warmup_time: float = 40.0
    measure_time: float = 160.0
    seed: int = 20_260_705

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Reject physically meaningless parameterisations.

        Raises :class:`ValueError` on non-positive MIPS ratings, negative
        communication delay and the remaining sanity bounds (mirroring
        ``RunSettings``'s fail-fast validation).  Called from
        ``__post_init__`` so no invalid instance can exist, but callable
        directly on configurations rebuilt via ``dataclasses.replace``
        pipelines or deserialisation.
        """
        if self.central_mips <= 0 or self.local_mips <= 0:
            raise ValueError(
                f"MIPS ratings must be positive (central "
                f"{self.central_mips}, local {self.local_mips})")
        if self.comm_delay < 0:
            raise ValueError(
                f"negative communications delay {self.comm_delay}")
        for name in ("instr_per_db_call", "instr_txn_overhead",
                     "instr_commit", "instr_update_apply",
                     "instr_auth_master", "instr_auth_central"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.io_initial < 0 or self.io_per_db_call < 0:
            raise ValueError("negative I/O time")
        if self.class_b_mode not in ("central", "remote-call"):
            raise ValueError(
                f"class_b_mode must be 'central' or 'remote-call', got "
                f"{self.class_b_mode!r}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(
                f"unknown commit protocol {self.protocol!r}; known "
                f"protocols: {', '.join(PROTOCOLS)}")
        if self.epoch_interval <= 0:
            raise ValueError(
                f"epoch_interval must be positive, got "
                f"{self.epoch_interval}")
        if self.warmup_time < 0 or self.measure_time <= 0:
            raise ValueError("invalid measurement window")

    # -- derived quantities used by both simulator and analytic model -------

    @property
    def n_sites(self) -> int:
        return self.workload.n_sites

    @property
    def locks_per_txn(self) -> int:
        return self.workload.locks_per_txn

    @property
    def instr_per_txn(self) -> int:
        """Total first-run instructions excluding commit processing."""
        return (self.instr_txn_overhead +
                self.locks_per_txn * self.instr_per_db_call)

    def cpu_seconds_local(self, instructions: float) -> float:
        return instructions / (self.local_mips * MILLION)

    def cpu_seconds_central(self, instructions: float) -> float:
        return instructions / (self.central_mips * MILLION)

    @property
    def local_service_time(self) -> float:
        """First-run CPU demand of one transaction at a local site."""
        return self.cpu_seconds_local(self.instr_per_txn + self.instr_commit)

    @property
    def central_service_time(self) -> float:
        """First-run CPU demand of one transaction at the central site."""
        return self.cpu_seconds_central(self.instr_per_txn +
                                        self.instr_commit +
                                        self.instr_auth_central)

    @property
    def total_io_time(self) -> float:
        """First-run I/O wait (set-up plus one I/O per database call)."""
        return self.io_initial + self.locks_per_txn * self.io_per_db_call

    @property
    def collision_constant(self) -> float:
        """The paper's C = N_l / lockspace (Section 4.1)."""
        return self.locks_per_txn / self.workload.lockspace

    @property
    def run_until(self) -> float:
        return self.warmup_time + self.measure_time

    # -- convenience -----------------------------------------------------------

    def with_rate(self, arrival_rate_per_site: float) -> "SystemConfig":
        """Copy with a different per-site arrival rate."""
        return replace(self, workload=replace(
            self.workload, arrival_rate_per_site=arrival_rate_per_site))

    def with_total_rate(self, total_rate: float) -> "SystemConfig":
        """Copy with a total (all-sites) arrival rate."""
        return self.with_rate(total_rate / self.workload.n_sites)

    def with_options(self, **changes: Any) -> "SystemConfig":
        """Copy with arbitrary field overrides."""
        return replace(self, **changes)

    def describe(self) -> str:
        """One-line summary used by the experiment reports."""
        return (f"{self.n_sites} sites x {self.local_mips} MIPS + central "
                f"{self.central_mips} MIPS, delay {self.comm_delay}s, "
                f"lambda {self.workload.arrival_rate_per_site:.3g}/site "
                f"({self.workload.total_arrival_rate:.3g} total), "
                f"p_local {self.workload.p_local}")


#: The paper's base configuration (Section 4.1).
PAPER_BASE = SystemConfig()


def paper_config(total_rate: float = 10.0, *, comm_delay: float = 0.2,
                 seed: int | None = None, **overrides: Any) -> SystemConfig:
    """The paper's configuration at a given *total* transaction rate.

    ``total_rate`` is the system-wide arrival rate in transactions per
    second (the x-axis of every figure); it is split evenly over the 10
    sites.  ``comm_delay`` selects the 0.2 s base case or the 0.5 s
    sensitivity case; further keyword overrides are applied verbatim.
    """
    if not math.isfinite(total_rate) or total_rate <= 0:
        raise ValueError(f"total_rate must be positive, got {total_rate}")
    config = PAPER_BASE.with_total_rate(total_rate)
    config = config.with_options(comm_delay=comm_delay)
    if seed is not None:
        overrides["seed"] = seed
    if overrides:
        config = config.with_options(**overrides)
    return config
