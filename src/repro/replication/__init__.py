"""Replicated serving tier: WAL shipping, fencing, promotion.

One process is the *leader*: it serves writes and appends to each
tenant's :class:`~repro.store.wal.DeltaLog` exactly as before.  Any
number of *followers* bootstrap from the leader's snapshots, tail the
fsync'd seq+crc log over ``GET /v1/<tenant>/log?cursor=``, apply shipped
records through the same ``apply_delta`` maintenance path, and answer
read-only traffic with replica-lag metrics and read-your-writes via the
table-state hash-chain token (``X-Repro-Min-State``).

Failover is epoch-fenced: a monotonic leader epoch (persisted per store
by :class:`EpochStore`) is stamped into every shipped batch, and a
follower refuses batches from any epoch below the highest it has seen —
a deposed leader's unreplicated tail can never be applied after a
promotion.  The black-box consistency checker that judges this tier
from its client-visible history (after Huang et al., arXiv 2301.07313)
lives with the tests, in ``tests/history_checker.py``.
"""

from repro.replication.epoch import EpochStore
from repro.replication.manager import FencedError, ReplicationManager
from repro.replication.ship import build_batch
from repro.replication.tailer import LogShipClient, ReplicaApplier, ReplicaTailer

__all__ = [
    "EpochStore",
    "FencedError",
    "LogShipClient",
    "ReplicaApplier",
    "ReplicaTailer",
    "ReplicationManager",
    "build_batch",
]
