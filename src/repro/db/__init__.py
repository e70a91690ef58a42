"""Database substrate: locks, deadlock detection, transactions, workload."""

from .deadlock import WaitsForGraph
from .replica import ReplicaStore, replica_divergence
from .locks import (
    AuthenticationStatus,
    DeadlockError,
    Lock,
    LockError,
    LockManager,
    LockMode,
    LockRequest,
)
from .transaction import (
    Placement,
    Reference,
    Transaction,
    TransactionClass,
    TransactionKind,
    TransactionState,
    new_transaction_ids,
)
from .workload import (
    ArrivalProcess,
    LockSpacePartition,
    TransactionFactory,
    WorkloadParams,
)

__all__ = [
    "WaitsForGraph",
    "ReplicaStore",
    "replica_divergence",
    "AuthenticationStatus",
    "DeadlockError",
    "Lock",
    "LockError",
    "LockManager",
    "LockMode",
    "LockRequest",
    "Placement",
    "Reference",
    "Transaction",
    "TransactionClass",
    "TransactionKind",
    "TransactionState",
    "new_transaction_ids",
    "ArrivalProcess",
    "LockSpacePartition",
    "TransactionFactory",
    "WorkloadParams",
]
