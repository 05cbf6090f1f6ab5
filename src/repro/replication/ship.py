"""Build log-shipping batches on the serving side of replication.

``GET /v1/<tenant>/log?cursor=N`` answers with one :func:`build_batch`
document: the WAL records after ``N`` (bounded by ``max``), the leader's
current epoch, and enough log geometry (``first_live_seq``,
``cursor_valid``, ``last_seq``) for the follower to distinguish "caught
up" from "my cursor points into compacted history — resync from a
snapshot".

The ``repl.ship.{drop,dup,reorder}`` fault points model *network* damage
to the shipped view — records lost, redelivered, or reordered in flight.
They mutate only the outgoing batch, never the log, and they are
deterministic given the plan seed (no extra randomness: drop loses the
batch head so the gap detector must fire, dup redelivers the head at the
tail, reorder reverses the batch).  The follower-side applier must
absorb all three without ever applying out of order.
"""

from __future__ import annotations

from typing import Any

import repro.faults as _faults
from repro.store.wal import DurableSession
from repro.utils.exceptions import StoreError

#: default and hard ceiling on records per shipped batch
DEFAULT_BATCH_LIMIT = 256
MAX_BATCH_LIMIT = 4096


def build_batch(
    session: DurableSession,
    cursor: int,
    limit: int = DEFAULT_BATCH_LIMIT,
    epoch: int = 0,
    tenant: str | None = None,
) -> dict[str, Any]:
    """One shippable batch of WAL records after ``cursor``.

    ``cursor_valid: false`` means compaction already dropped records the
    cursor never saw; ``records`` is then empty and the follower must
    restore from the latest snapshot instead of replaying.
    """
    if not isinstance(session, DurableSession):
        raise StoreError(
            "log shipping requires a durable (write-ahead logged) session"
        )
    cursor = int(cursor)
    if cursor < 0:
        raise ValueError(f"cursor must be >= 0, got {cursor}")
    limit = max(1, min(int(limit), MAX_BATCH_LIMIT))
    log = session.log
    valid = log.cursor_valid(cursor)
    # the log's own verified records, shipped as written
    records = log.records(after=cursor)[:limit] if valid else []
    if records:
        if _faults.fires("repl.ship.drop"):
            # lose the head in flight: the follower must detect the gap
            # and re-poll rather than apply a hole into its log
            records = records[1:]
        if len(records) > 1 and _faults.fires("repl.ship.dup"):
            records = records + records[:1]
        if len(records) > 1 and _faults.fires("repl.ship.reorder"):
            records = list(reversed(records))
    return {
        "tenant": tenant if tenant is not None else session.tenant,
        "epoch": int(epoch),
        "cursor": cursor,
        "cursor_valid": valid,
        "first_live_seq": int(log.first_live_seq),
        "last_seq": int(log.last_seq),
        "records": records,
        "state_token": session.state_token,
        "table_version": int(session.table_version),
    }
