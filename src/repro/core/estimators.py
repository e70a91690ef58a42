"""State-based response-time estimation for the dynamic strategies.

Section 3.2.1 of the paper: each incoming class A transaction triggers a
*steady-state* evaluation of the same response-time formulas used by the
static model, but with utilisations and contention probabilities
estimated from simple observed quantities instead of long-run rates:

* utilisation from the CPU queue length ``rho = (q + a) / (q + 1 + a)``
  (scheme (a)), or from the number of transactions in the system
  ``rho = alpha * (n + a)`` (scheme (b)), where the correction terms
  ``a`` account for routing the incoming transaction itself;
* contention probabilities from the observed lock-table populations
  (``P = n_lock / lockspace``);
* abort probabilities from the cross-site collision estimate split by the
  residual-time comparison of Section 3.1.

The estimator performs two refinement passes over the locked-phase
durations (waits depend on holding times, which depend on waits); that is
the steady-state shortcut the paper adopts for practicality in place of a
transient analysis.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..analysis.mm1 import (
    utilization_from_population,
    utilization_from_queue_length,
)
from ..analysis.residual import probability_local_outlives
from ..hybrid.config import SystemConfig
from .model import AnalyticModel, ContentionState, _clamp_probability
from .router import RoutingObservation

__all__ = ["UtilizationSource", "StateEstimator"]


class UtilizationSource(enum.Enum):
    """Which observable feeds the utilisation estimate."""

    QUEUE_LENGTH = "queue-length"       # scheme (a), Section 3.2.1
    POPULATION = "number-in-system"     # scheme (b), Section 3.2.1


@dataclass(slots=True)
class CaseEstimates:
    """The four response-time estimates a routing decision needs.

    ``*_base`` is the response time under the *current* observed load --
    what the incoming transaction itself would experience at that site.
    ``*_plus`` adds the incoming transaction's utilisation contribution
    (the paper's correction terms ``a``/``alpha``) -- what the
    transactions *already running* at that site would experience after
    the routing decision sends the newcomer there.
    """

    local_base: float
    local_plus: float
    central_base: float
    central_plus: float
    rho_local_base: float
    rho_central_base: float


class StateEstimator:
    """Evaluates the analytic formulas from an instantaneous observation."""

    #: Refinement passes over the locked-phase durations.
    PASSES = 2

    def __init__(self, config: SystemConfig,
                 source: UtilizationSource = UtilizationSource.QUEUE_LENGTH):
        self.config = config
        self.source = source
        self.model = AnalyticModel(config)
        model = self.model
        # CPU service demand (S) and CPU-free residence (Z) per
        # transaction at each site -- the inputs of the utilisation-law
        # estimator for scheme (b).
        self.demand_local = (model.cpu_overhead_l + model.cpu_calls_l +
                             model.cpu_commit_l)
        self.think_local = model.io_first
        self.demand_central = (model.cpu_overhead_c + model.cpu_calls_c +
                               model.cpu_commit_c + model.cpu_auth_c)
        # A central transaction's residence includes the authentication
        # round trip, during which it occupies no CPU.
        self.think_central = model.io_first + 2.0 * config.comm_delay
        # Fraction of the zero-load residence spent at the CPU -- the
        # paper's ``alpha``, used as the queue-length correction term.
        self.alpha_local = self.demand_local / (self.demand_local +
                                                self.think_local)
        self.alpha_central = self.demand_central / (self.demand_central +
                                                    self.think_central)

    # -- utilisation estimation ------------------------------------------------

    def _utilizations(self, observation: RoutingObservation,
                      ship: bool) -> tuple[float, float]:
        """The paper's corrected utilisation estimates for one hypothesis.

        Routing the incoming transaction adds one job's worth of load to
        the chosen processor (correction term ``a = 1`` there, ``0`` at
        the other).
        """
        extra_local = 0.0 if ship else 1.0
        extra_central = 1.0 if ship else 0.0
        if self.source is UtilizationSource.QUEUE_LENGTH:
            # The incoming transaction contributes its *CPU-resident
            # fraction* to the queue-length correction (the paper's alpha
            # term): while it runs it occupies the CPU queue only between
            # its I/O, lock and communication waits.
            rho_l = utilization_from_queue_length(
                observation.local_queue_length,
                extra_jobs=extra_local * self.alpha_local)
            rho_c = utilization_from_queue_length(
                observation.central.queue_length,
                extra_jobs=extra_central * self.alpha_central)
        else:
            rho_l = utilization_from_population(
                observation.local_n_txns, self.demand_local,
                self.think_local, extra_jobs=extra_local)
            rho_c = utilization_from_population(
                observation.central.n_txns, self.demand_central,
                self.think_central, extra_jobs=extra_central)
        return rho_l, rho_c

    # -- contention estimation ----------------------------------------------

    def contention(self, observation: RoutingObservation,
                   ship: bool) -> ContentionState:
        """Build a :class:`ContentionState` from the observation."""
        model = self.model
        config = self.config
        rho_l, rho_c = self._utilizations(observation, ship)
        # Uncorrected local utilisation for the cross-site (authentication
        # window) terms: the incoming transaction's routing must not
        # perturb the estimate of every other transaction's auth delay.
        if self.source is UtilizationSource.QUEUE_LENGTH:
            rho_auth = utilization_from_queue_length(
                observation.local_queue_length)
        else:
            rho_auth = utilization_from_population(
                observation.local_n_txns, self.demand_local,
                self.think_local)

        # Lock-table populations -> per-request contention probabilities.
        # Local locks are confined to this site's database slice; central
        # locks are spread over the whole replicated space.
        p_wait_local = _clamp_probability(
            observation.local_locks_held / model.l_db)
        central_locks_db = (observation.central.locks_held /
                            config.workload.n_sites)
        p_wait_central = _clamp_probability(central_locks_db / model.l_db)

        # Initial (zero-wait) locked-phase durations, then refine.
        t_l = (model.cpu_calls_l + model.cpu_commit_l) / (1.0 - rho_l) + \
            model.n_l * config.io_per_db_call
        t_c = (model.cpu_calls_c + model.cpu_commit_c + model.cpu_auth_c) \
            / (1.0 - rho_c) + model.n_l * config.io_per_db_call + \
            model.auth_window(rho_auth)

        state = None
        for _ in range(self.PASSES):
            auth_fraction = min(model.auth_window(rho_auth) / max(t_c, 1e-9),
                                1.0)
            p_wait_auth = _clamp_probability(p_wait_central * auth_fraction)
            w_local = probability_local_outlives(t_l, t_c, config.comm_delay)
            p_abort_local = _clamp_probability(
                w_local * model.n_l * p_wait_central)
            p_abort_central = _clamp_probability(
                (1.0 - w_local) * model.n_l * p_wait_local)
            state = ContentionState(
                rho_local=rho_l, rho_central=rho_c,
                p_wait_local=p_wait_local,
                p_wait_central=p_wait_central,
                p_wait_auth=p_wait_auth,
                p_abort_local=p_abort_local,
                p_abort_local_rerun=p_abort_local,
                p_abort_central=p_abort_central,
                p_abort_central_rerun=p_abort_central,
                t_local=t_l, t_central=t_c,
                rho_auth=rho_auth)
            t_l = model.local_locked_phase(state, first_run=True)
            t_c = model.central_locked_phase(state, first_run=True)
        return state

    # -- response estimation ------------------------------------------------

    def estimate_cases(self, observation: RoutingObservation
                       ) -> CaseEstimates:
        """Base and corrected estimates for both processors.

        ``contention(ship=True)`` applies the correction at the central
        site only, so its local estimate is the local *base* and its
        central estimate the central *plus* -- and symmetrically for
        ``ship=False``.
        """
        retained = self.contention(observation, ship=False)
        shipped = self.contention(observation, ship=True)
        return CaseEstimates(
            local_base=self.model.response_local(shipped),
            local_plus=self.model.response_local(retained),
            central_base=self.model.response_central(retained),
            central_plus=self.model.response_central(shipped),
            rho_local_base=shipped.rho_local,
            rho_central_base=retained.rho_central,
        )
