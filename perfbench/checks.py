"""Output checks for every simulation the benchmark runs.

Two checks, both taken from outside the program by wrapping its public
hooks for the length of a run:

* **Fingerprint** -- ``completed``, aborts by cause, the mean response
  time to 12 places and ``engine_events``.  The fingerprints of every
  simulation at :data:`DEFAULT_SEED` are stored in
  ``fingerprints.json``; at any seed, every repetition must also
  reproduce the first one exactly.  A "speed-up" that changes the
  sample path therefore shows up as failed operations.
* **Transaction conservation** -- arrivals = commits + failed + shed +
  rejected + lost + in flight, which holds for any seed.  "In flight" is
  read from the program, not from the ledger: the ledger holds each open
  transaction only by a weak reference, so at the horizon a transaction
  is in flight only while the simulated system still holds it (in an
  active table, a queue, a message, a process).  One the program dropped
  without a terminal record is gone, and breaks the balance.  Each
  transaction may reach one terminal state once; one that committed
  without being recorded, or a terminal record for a transaction that
  never arrived (or already ended), fails as well.

A simulation that raises, or whose clock ends past its horizon, fails
as well.
"""

from __future__ import annotations

import gc
import json
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path

#: Seed whose fingerprints are stored in ``fingerprints.json``.
DEFAULT_SEED = 1

FINGERPRINT_FILE = Path(__file__).resolve().parent / "fingerprints.json"

#: Decimal places of the mean response time in a fingerprint.
RT_PLACES = 12

#: Terminal hooks of ``MetricsCollector`` and the ledger bucket each
#: feeds.  A shed at the central complex is not terminal: the home site
#: gets a reject and re-runs or fails the transaction itself.
TERMINAL_HOOKS = {
    "record_completion": "commits",
    "record_failure": "failed",
    "record_shed": "shed",
    "record_rejected_arrival": "rejected",
    "record_lost_in_crash": "lost",
}


def fingerprint(result) -> dict:
    """The stored summary of one :class:`SimulationResult`."""
    return {
        "strategy": result.strategy,
        "protocol": result.protocol,
        "total_rate": result.total_rate,
        "completed": result.completed,
        "aborts_deadlock": result.aborts_deadlock,
        "aborts_local_invalidated": result.aborts_local_invalidated,
        "aborts_central_invalidated": result.aborts_central_invalidated,
        "mean_response_time": round(result.mean_response_time, RT_PLACES),
        "engine_events": result.engine_events,
    }


@dataclass
class SimRecord:
    """What one simulation produced and what went wrong with it."""

    fingerprint: dict | None = None
    balance: dict = field(default_factory=dict)
    events: int = 0
    links_delivered: int = 0
    problems: list = field(default_factory=list)


class Ledger:
    """Follows every transaction of the simulation currently running."""

    def __init__(self) -> None:
        self.records: list[SimRecord] = []
        #: CPU seconds spent in the end-of-run check, which timed code
        #: subtracts.
        self.check_s = 0.0
        #: ``id(txn)`` -> (weak reference, txn_id) of open transactions.
        self._open: dict[int, tuple] = {}
        self._vanished: list[int] = []
        self._balance: dict[str, int] = {}
        self._problems: list[str] = []

    # -- hooks ---------------------------------------------------------------

    def _begin(self) -> None:
        self._open = {}
        self._balance = {"arrivals": 0, **{bucket: 0 for bucket
                                            in TERMINAL_HOOKS.values()}}
        self._problems = []
        self._vanished = []

    def _arrived(self, txn) -> None:
        self._balance["arrivals"] += 1
        stale = self._open.get(id(txn))
        if stale is not None:
            # Its id is free again, so that transaction no longer exists.
            self._vanished.append(stale[1])
        self._open[id(txn)] = (weakref.ref(txn), txn.txn_id)

    def _ended(self, bucket: str, txn) -> None:
        if self._open.pop(id(txn), None) is None:
            self._problems.append(
                f"{bucket}: transaction {txn.txn_id} was not in flight")
        self._balance[bucket] += 1

    def _finish(self, system, result) -> SimRecord:
        began = time.thread_time()
        # Free whatever the program dropped, cycles included, while the
        # system itself is still alive.
        gc.collect()
        held = []
        for ref, txn_id in self._open.values():
            txn = ref()
            if txn is None:
                self._vanished.append(txn_id)
            else:
                held.append(txn)
        record = SimRecord(problems=self._problems)
        balance = dict(self._balance, in_flight=len(held))
        record.balance = balance
        settled = sum(balance[bucket] for bucket in TERMINAL_HOOKS.values())
        if balance["arrivals"] != settled + balance["in_flight"]:
            record.problems.append(f"conservation broken: {balance}")
        if self._vanished:
            record.problems.append(
                f"{len(self._vanished)} transaction(s) left the program "
                f"without a terminal state, first "
                f"{sorted(self._vanished)[:5]}")
        unrecorded = sum(1 for txn in held
                         if getattr(txn, "completed_at", None) is not None)
        if unrecorded:
            record.problems.append(
                f"{unrecorded} committed transaction(s) never recorded")
        horizon = system.config.run_until
        if system.env.now > horizon + 1e-9:
            record.problems.append(
                f"clock {system.env.now} ran past horizon {horizon}")
        record.events = system.env.events_processed
        record.links_delivered = sum(
            link.messages_delivered for link in _links(system))
        if result is not None:
            record.fingerprint = fingerprint(result)
        self.records.append(record)
        self._open = {}
        self.check_s += time.thread_time() - began
        return record

    # -- installation ----------------------------------------------------------

    def targets(self):
        """``(owner, attribute, replacement)`` triples for
        :func:`spans.patched`."""
        from repro.db.workload import TransactionFactory
        from repro.hybrid.metrics import MetricsCollector
        from repro.hybrid.system import HybridSystem

        ledger = self
        make = TransactionFactory.__dict__["make_transaction"]

        def make_transaction(factory, *args, **kwargs):
            txn = make(factory, *args, **kwargs)
            ledger._arrived(txn)
            return txn

        yield TransactionFactory, "make_transaction", make_transaction

        for hook, bucket in TERMINAL_HOOKS.items():
            yield MetricsCollector, hook, _terminal(
                MetricsCollector.__dict__[hook], bucket, ledger)

        run = HybridSystem.__dict__["run"]

        def run_checked(system):
            ledger._begin()
            result = None
            try:
                result = run(system)
            except Exception as exc:
                ledger._problems.append(f"raised {exc!r}")
                ledger._finish(system, None)
                raise
            ledger._finish(system, result)
            return result

        yield HybridSystem, "run", run_checked


def _terminal(hook, bucket: str, ledger: Ledger):
    def terminal(collector, txn, *args, **kwargs):
        node = kwargs.get("node", args[0] if args else "")
        if bucket != "shed" or str(node).startswith("site"):
            ledger._ended(bucket, txn)
        return hook(collector, txn, *args, **kwargs)

    return terminal


def _links(system):
    """Every link of a wired system (site pairs, standby pairs, the
    primary/standby log pair)."""
    for site in system.sites:
        for link in (site.to_central, site.from_central,
                     site.to_standby, site.from_standby):
            if link is not None:
                yield link
    if system.standby is not None:
        yield from system.standby.log_links


def load_fingerprints(path: Path = FINGERPRINT_FILE) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())


def record_fingerprints(path: Path = FINGERPRINT_FILE) -> None:
    """Run every workload once at :data:`DEFAULT_SEED` and store the
    fingerprints of its simulations.  Only a change that is meant to
    alter sample paths may re-record them."""
    from spans import patched
    from workloads import WORKLOADS

    stored = {}
    for name, workload in WORKLOADS.items():
        ledger = Ledger()
        with patched(ledger.targets()):
            workload.unit(DEFAULT_SEED)
        failures = unit_failures(ledger.records, None, None)
        if failures or len(ledger.records) != workload.simulations:
            raise RuntimeError(f"{name}: {failures or 'simulations missing'}")
        stored[name] = [record.fingerprint for record in ledger.records]
    path.write_text(json.dumps(stored, indent=1) + "\n")



def unit_failures(records: list[SimRecord], expected: list | None,
                  reference: list | None) -> list[str]:
    """Problems of one repetition's simulations, one string each.

    ``expected`` is the stored fingerprint list (``None`` when the seed
    has none stored); ``reference`` is the first repetition's list at
    this seed (``None`` until one repetition has passed).  Returns one
    entry per failed simulation.
    """
    failures = []
    for index, record in enumerate(records):
        reasons = list(record.problems)
        for label, wanted in (("stored", expected), ("first", reference)):
            if wanted is not None and (index >= len(wanted) or
                                       wanted[index] != record.fingerprint):
                reasons.append(f"fingerprint differs from the {label} one")
        if reasons:
            failures.append(f"simulation {index}: " + "; ".join(reasons))
    return failures


if __name__ == "__main__":
    # python3 perfbench/checks.py, from the root of a source checkout.
    import sys

    sys.path.insert(0, str(Path.cwd() / "src"))
    record_fingerprints()
