"""Analytical response-time model of the hybrid system (Section 3.1).

The model estimates, for a given shipping probability ``p_ship`` and
arrival rate, the steady-state response time of local and central
(shipped class A plus class B) transactions, together with the
collision, abort and negative-acknowledgement probabilities that drive
them.  It is the basis of both the optimal static load-sharing strategy
and the analytic dynamic strategies of Section 3.2.

Structure, following the paper:

* lock collision probabilities grow linearly with (a) transaction rate
  per database, (b) locks per transaction and (c) mean lock holding time
  -- Little's law: the expected number of held locks a request can hit is
  ``rate * N_l * beta``, divided by the database's lock space (the
  simulation section's constant ``C = N_l / lockspace``);
* same-site collisions (local-local at a distributed site,
  central-central at the complex) become **lock waits**, expanding the
  locked phase of the response time;
* cross-site collisions (a local and a central transaction logically
  holding the same entity at their respective replicas) become **aborts**:
  the local transaction is aborted if it is still running when the
  central transaction's authentication reaches the master (probability
  from the residual-time distributions of :mod:`repro.analysis.residual`),
  and the central transaction is invalidated by the asynchronous update
  otherwise;
* authentication can also draw a **negative acknowledgement** when the
  entities carry in-flight coherence updates, forcing re-execution;
* CPU times are expanded by ``1/(1-rho)`` with utilisations that include
  re-run work, authentication handling at the masters and asynchronous
  update application at the central site.

The mutually recursive equations are solved by damped fixed-point
iteration (:mod:`repro.analysis.fixedpoint`).  Response-time *formulas*
are factored out so the dynamic strategies can re-evaluate them from
observed state (queue lengths, lock counts) instead of long-run rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis.fixedpoint import solve_fixed_point
from ..analysis.mm1 import clamp_utilization, mm1_expansion
from ..analysis.residual import (
    mean_holding_time,
    probability_local_outlives,
    triangular_residual_mean,
)
from ..hybrid.config import SystemConfig

__all__ = ["ContentionState", "ModelEstimates", "AnalyticModel"]

#: Probabilities are clamped to this ceiling so overload inputs still
#: produce finite (if huge) response-time estimates that can be ranked.
MAX_PROBABILITY = 0.95

#: Cap on the locked-phase duration (seconds).  Beyond the lock-thrashing
#: point the fixed-point map genuinely diverges (the real system is
#: unstable there); capping keeps estimates finite and rankable while the
#: ``converged`` flag reports saturation.
MAX_LOCKED_PHASE = 1000.0


def _clamp_probability(p: float) -> float:
    return min(max(p, 0.0), MAX_PROBABILITY)


@dataclass(slots=True)
class ContentionState:
    """Utilisations and per-lock-request contention probabilities.

    This is the interface between the two halves of the model: the static
    half *derives* these from arrival rates via fixed-point iteration,
    the dynamic strategies *estimate* them from instantaneous
    observations; both then evaluate the same response-time formulas.
    """

    rho_local: float
    rho_central: float
    p_wait_local: float       # local request hits a local-held lock
    p_wait_central: float     # central request hits a central-held lock
    p_wait_auth: float        # local request hits an auth-phase lock
    p_abort_local: float      # per local run
    p_abort_local_rerun: float
    p_abort_central: float    # per central run (invalidation + NAK)
    p_abort_central_rerun: float
    t_local: float            # locked-phase duration, first local run
    t_central: float          # locked-phase duration, first central run
    #: Local-site utilisation used for the authentication window.  The
    #: dynamic estimators set this to the *uncorrected* utilisation so
    #: that the incoming transaction's own routing correction does not
    #: leak into the cross-site terms of every other transaction's
    #: estimate; ``None`` (static model) falls back to ``rho_local``.
    rho_auth: float | None = None

    @property
    def rho_for_auth(self) -> float:
        return self.rho_local if self.rho_auth is None else self.rho_auth


@dataclass(frozen=True)
class ModelEstimates:
    """Full output of one analytic evaluation."""

    p_ship: float
    rate_per_site: float
    response_local: float
    response_central: float
    response_average: float
    contention: ContentionState
    converged: bool
    iterations: int

    @property
    def total_rate(self) -> float:
        return self.rate_per_site  # set by caller; see AnalyticModel


class AnalyticModel:
    """Analytic model of one configured hybrid system."""

    def __init__(self, config: SystemConfig):
        self.config = config
        workload = config.workload
        self.n_sites = workload.n_sites
        self.n_l = workload.locks_per_txn
        self.p_local = workload.p_local
        #: Per-database lock space (a local site's slice).
        self.l_db = workload.lockspace / workload.n_sites

        # Deterministic CPU demands (seconds) at each site type.
        self.cpu_overhead_l = config.cpu_seconds_local(
            config.instr_txn_overhead)
        self.cpu_calls_l = config.cpu_seconds_local(
            self.n_l * config.instr_per_db_call)
        self.cpu_commit_l = config.cpu_seconds_local(config.instr_commit)
        self.cpu_auth_master = config.cpu_seconds_local(
            config.instr_auth_master)

        self.cpu_overhead_c = config.cpu_seconds_central(
            config.instr_txn_overhead)
        self.cpu_calls_c = config.cpu_seconds_central(
            self.n_l * config.instr_per_db_call)
        self.cpu_commit_c = config.cpu_seconds_central(config.instr_commit)
        self.cpu_auth_c = config.cpu_seconds_central(
            config.instr_auth_central)
        self.cpu_update_apply = config.cpu_seconds_central(
            config.instr_update_apply)

        self.io_first = config.total_io_time
        self.delay = config.comm_delay

        #: Expected distinct master sites contacted by a class B
        #: transaction's authentication (N_l uniform references over N
        #: databases).
        n, k = self.n_sites, self.n_l
        self.class_b_masters = n * (1.0 - (1.0 - 1.0 / n) ** k)

    # ------------------------------------------------------------------
    # Response-time formulas (shared between static and dynamic halves)
    # ------------------------------------------------------------------

    def auth_window(self, rho_local: float) -> float:
        """Time the authentication phase holds locks at a master site.

        Round trip to the master plus the (queue-expanded) authentication
        check on the master's CPU.
        """
        return (2.0 * self.delay +
                self.cpu_auth_master * mm1_expansion(rho_local))

    def local_locked_phase(self, state: ContentionState,
                           first_run: bool) -> float:
        """Duration of a local run's locked phase (first lock to commit)."""
        expansion = mm1_expansion(state.rho_local)
        cpu = (self.cpu_calls_l + self.cpu_commit_l) * expansion
        io = self.n_l * self.config.io_per_db_call if first_run else 0.0
        wait_ll = (self.n_l * state.p_wait_local *
                   triangular_residual_mean(state.t_local))
        wait_auth = (self.n_l * state.p_wait_auth *
                     self.auth_window(state.rho_for_auth) / 2.0)
        return cpu + io + wait_ll + wait_auth

    def central_locked_phase(self, state: ContentionState,
                             first_run: bool) -> float:
        """Duration of a central run's locked phase, including the
        authentication window (locks are held until commit)."""
        expansion = mm1_expansion(state.rho_central)
        cpu = (self.cpu_calls_c + self.cpu_commit_c +
               self.cpu_auth_c) * expansion
        io = self.n_l * self.config.io_per_db_call if first_run else 0.0
        wait_cc = (self.n_l * state.p_wait_central *
                   triangular_residual_mean(state.t_central))
        return cpu + io + wait_cc + self.auth_window(state.rho_for_auth)

    def response_local(self, state: ContentionState) -> float:
        """Mean response time of a class A transaction retained locally."""
        expansion = mm1_expansion(state.rho_local)
        first = (self.config.io_initial +
                 self.cpu_overhead_l * expansion +
                 self.local_locked_phase(state, first_run=True))
        rerun = (self.cpu_overhead_l * expansion +
                 self.local_locked_phase(state, first_run=False))
        expected_reruns = (state.p_abort_local /
                           max(1.0 - state.p_abort_local_rerun, 1e-9))
        return first + expected_reruns * rerun

    def response_central(self, state: ContentionState) -> float:
        """Mean response time of a shipped class A / class B transaction.

        Includes the input shipment and the output response message (one
        communications delay each way) on top of the central execution.
        """
        expansion = mm1_expansion(state.rho_central)
        first = (self.config.io_initial +
                 self.cpu_overhead_c * expansion +
                 self.central_locked_phase(state, first_run=True))
        rerun = (self.cpu_overhead_c * expansion +
                 self.central_locked_phase(state, first_run=False))
        expected_reruns = (state.p_abort_central /
                           max(1.0 - state.p_abort_central_rerun, 1e-9))
        return 2.0 * self.delay + first + expected_reruns * rerun

    def response_average(self, state: ContentionState,
                         p_ship: float) -> float:
        """Mean over all transactions (class A local/shipped plus B)."""
        weight_local = self.p_local * (1.0 - p_ship)
        weight_central = self.p_local * p_ship + (1.0 - self.p_local)
        return (weight_local * self.response_local(state) +
                weight_central * self.response_central(state))

    # ------------------------------------------------------------------
    # Static (rate-driven) fixed point
    # ------------------------------------------------------------------

    def evaluate(self, p_ship: float,
                 rate_per_site: float) -> ModelEstimates:
        """Solve the model for shipping probability ``p_ship``."""
        if not 0.0 <= p_ship <= 1.0:
            raise ValueError(f"p_ship out of range: {p_ship}")
        if rate_per_site <= 0:
            raise ValueError("rate_per_site must be positive")

        initial = {
            "rho_l": 0.1, "rho_c": 0.1,
            "t_l": self.cpu_calls_l + self.n_l * self.config.io_per_db_call,
            "t_c": self.cpu_calls_c + self.n_l * self.config.io_per_db_call
            + 2 * self.delay,
            "p_al": 0.0, "p_alr": 0.0, "p_ac": 0.0, "p_acr": 0.0,
        }
        result = solve_fixed_point(
            lambda state: self._step(state, p_ship, rate_per_site),
            initial, damping=0.4, tolerance=1e-7, max_iterations=400)
        state = self._contention_from(result.state, p_ship, rate_per_site)
        return ModelEstimates(
            p_ship=p_ship,
            rate_per_site=rate_per_site,
            response_local=self.response_local(state),
            response_central=self.response_central(state),
            response_average=self.response_average(state, p_ship),
            contention=state,
            converged=result.converged,
            iterations=result.iterations,
        )

    # -- rate helpers --------------------------------------------------------

    def _rates(self, p_ship: float, rate: float) -> dict[str, float]:
        """New-transaction rates implied by the routing mix."""
        local_new = rate * self.p_local * (1.0 - p_ship)
        # Central arrivals per database: shipped class A land in their
        # home database; class B spread uniformly, so each database sees
        # the same density (Section 3.1).
        central_new_db = rate * ((1.0 - self.p_local) +
                                 self.p_local * p_ship)
        return {"local_new": local_new, "central_new_db": central_new_db}

    def _step(self, state: dict[str, float], p_ship: float,
              rate: float) -> dict[str, float]:
        """One fixed-point sweep of the Section 3.1 equations."""
        rates = self._rates(p_ship, rate)
        lam_l = rates["local_new"]
        lam_c = rates["central_new_db"]

        p_al = _clamp_probability(state["p_al"])
        p_alr = _clamp_probability(state["p_alr"])
        p_ac = _clamp_probability(state["p_ac"])
        p_acr = _clamp_probability(state["p_acr"])

        # Total run rates (first runs plus re-runs), per database.
        reruns_l = p_al / max(1.0 - p_alr, 0.05)
        reruns_c = p_ac / max(1.0 - p_acr, 0.05)
        runs_l = lam_l * (1.0 + reruns_l)
        runs_c = lam_c * (1.0 + reruns_c)

        t_l = max(state["t_l"], 1e-6)
        t_c = max(state["t_c"], 1e-6)
        beta_l = mean_holding_time(t_l, self.n_l)
        beta_c = mean_holding_time(t_c, self.n_l)

        # -- utilisations ----------------------------------------------------
        cpu_txn_l = self.cpu_overhead_l + self.cpu_calls_l + \
            self.cpu_commit_l
        auth_rate_site = (rate * self.p_local * p_ship +
                          rate * (1.0 - self.p_local) *
                          self.class_b_masters) * (1.0 + reruns_c)
        rho_l = clamp_utilization(
            runs_l * cpu_txn_l + auth_rate_site * self.cpu_auth_master)

        cpu_txn_c = (self.cpu_overhead_c + self.cpu_calls_c +
                     self.cpu_commit_c + self.cpu_auth_c)
        update_rate = self.n_sites * lam_l  # one batch per local commit
        rho_c = clamp_utilization(
            self.n_sites * runs_c * cpu_txn_c +
            update_rate * self.cpu_update_apply)

        # -- contention probabilities (Little's law / C-constant form) --------
        locks_local_db = runs_l * self.n_l * beta_l
        locks_central_db = runs_c * self.n_l * beta_c
        p_wait_local = _clamp_probability(locks_local_db / self.l_db)
        p_wait_central = _clamp_probability(locks_central_db / self.l_db)
        auth_locks_db = (runs_c * self.n_l *
                         self.auth_window(rho_l))
        p_wait_auth = _clamp_probability(auth_locks_db / self.l_db)

        # -- cross-site collisions -> aborts -----------------------------------
        # Collision rate per database between logically concurrent local
        # and central holders (both request directions).
        coll_rate = (runs_l * self.n_l * locks_central_db / self.l_db +
                     runs_c * self.n_l * locks_local_db / self.l_db)
        w_local = probability_local_outlives(t_l, t_c, self.delay)
        new_p_al = _clamp_probability(
            w_local * coll_rate / max(runs_l, 1e-9))
        p_central_inv = (1.0 - w_local) * coll_rate / max(runs_c, 1e-9)

        # Negative acknowledgements: probability an authenticated entity
        # still has in-flight coherence updates.
        inflight = (lam_l * self.n_l *
                    (2.0 * self.delay + self.cpu_update_apply *
                     mm1_expansion(rho_c)))
        p_entity_busy = min(inflight / self.l_db, 1.0)
        p_nak = _clamp_probability(
            1.0 - (1.0 - p_entity_busy) ** self.n_l)
        new_p_ac = _clamp_probability(p_central_inv + p_nak)

        # Re-runs are shorter (no I/O), hence proportionally less exposed.
        shrink_l = self._rerun_shrink(t_l, first_io=True)
        shrink_c = self._rerun_shrink(t_c, first_io=True)
        new_p_alr = _clamp_probability(new_p_al * shrink_l)
        new_p_acr = _clamp_probability(new_p_ac * shrink_c)

        # -- locked-phase durations via the shared formulas ---------------------
        contention = ContentionState(
            rho_local=rho_l, rho_central=rho_c,
            p_wait_local=p_wait_local, p_wait_central=p_wait_central,
            p_wait_auth=p_wait_auth,
            p_abort_local=new_p_al, p_abort_local_rerun=new_p_alr,
            p_abort_central=new_p_ac, p_abort_central_rerun=new_p_acr,
            t_local=t_l, t_central=t_c)
        new_t_l = min(self.local_locked_phase(contention, first_run=True),
                      MAX_LOCKED_PHASE)
        new_t_c = min(self.central_locked_phase(contention, first_run=True),
                      MAX_LOCKED_PHASE)

        return {
            "rho_l": rho_l, "rho_c": rho_c,
            "t_l": new_t_l, "t_c": new_t_c,
            "p_al": new_p_al, "p_alr": new_p_alr,
            "p_ac": new_p_ac, "p_acr": new_p_acr,
        }

    def _rerun_shrink(self, locked_phase: float, first_io: bool) -> float:
        """Ratio of a re-run's lock exposure to the first run's."""
        io = self.n_l * self.config.io_per_db_call if first_io else 0.0
        if locked_phase <= 0:
            return 1.0
        return max(locked_phase - io, 1e-9) / locked_phase

    def _contention_from(self, state: dict[str, float], p_ship: float,
                         rate: float) -> ContentionState:
        """Freeze the converged fixed-point state into a ContentionState."""
        rates = self._rates(p_ship, rate)
        lam_l = rates["local_new"]
        lam_c = rates["central_new_db"]
        reruns_l = state["p_al"] / max(1.0 - state["p_alr"], 0.05)
        reruns_c = state["p_ac"] / max(1.0 - state["p_acr"], 0.05)
        runs_l = lam_l * (1.0 + reruns_l)
        runs_c = lam_c * (1.0 + reruns_c)
        t_l = max(state["t_l"], 1e-6)
        t_c = max(state["t_c"], 1e-6)
        beta_l = mean_holding_time(t_l, self.n_l)
        beta_c = mean_holding_time(t_c, self.n_l)
        return ContentionState(
            rho_local=clamp_utilization(state["rho_l"]),
            rho_central=clamp_utilization(state["rho_c"]),
            p_wait_local=_clamp_probability(
                runs_l * self.n_l * beta_l / self.l_db),
            p_wait_central=_clamp_probability(
                runs_c * self.n_l * beta_c / self.l_db),
            p_wait_auth=_clamp_probability(
                runs_c * self.n_l * self.auth_window(state["rho_l"]) /
                self.l_db),
            p_abort_local=_clamp_probability(state["p_al"]),
            p_abort_local_rerun=_clamp_probability(state["p_alr"]),
            p_abort_central=_clamp_probability(state["p_ac"]),
            p_abort_central_rerun=_clamp_probability(state["p_acr"]),
            t_local=t_l,
            t_central=t_c,
        )
