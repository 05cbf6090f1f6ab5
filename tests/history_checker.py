"""Black-box consistency checking of replicated histories.

Huang et al. (arXiv 2301.07313) check snapshot isolation from the
outside: record the client-visible reads and writes of a black-box
store, then decide whether *some* admissible serialization explains
everything observed — no access to internals required.  This module is
that recipe specialised to the replicated explainer tier, where the
whole table behaves as **one totally ordered register**: every write
(a ``/v1/update`` delta) is assigned a WAL sequence number and bumps the
table version by exactly one, and every read observes one
``(table_version, state_token)`` pair.  General SI checking therefore
reduces to five total, cheap checks:

1. **No forks** — the ``version -> state_token`` mapping observed across
   all replicas is single-valued.  Two tokens for one version means two
   histories diverged and both got served.
2. **Writes serialize** — acknowledged writes, ordered by their WAL
   sequence numbers, carry unique seqs and strictly increasing versions:
   the log order *is* a serialization of the writes.
3. **Monotonic reads** — per (client, replica), observed versions never
   go backwards in program order.
4. **Read-your-writes** — a read pinned to ``min_state`` (a token the
   client saw earlier) observes a version at least as new as the state
   that produced the token.
5. **No lost or phantom acked writes** — every replica's converged final
   state agrees (token, version, engine digest), covers every
   acknowledged write, and no read observed a version that no
   acknowledged write (or the initial state) produced.

``check_history`` runs all five and, when they pass, returns the
explicit admissible serialization (the acked writes in WAL order with
every read assigned to the write whose post-state it observed).

:class:`HistoryRecorder` is the matching thread-safe collector the
benchmark's clients write into while the fault matrix runs.

Like the checking it follows, this module judges the system from the
outside, so it lives with the tests: ``tests/test_replication_checker.py``
imports it as ``history_checker`` and ``benchmarks/bench_replication.py``
as ``tests.history_checker``.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping


class HistoryRecorder:
    """Thread-safe collector of client-visible read/write events.

    Events are plain dicts stamped with a process-wide arrival index
    ``t`` (wall clocks across threads are not trustworthy order; the
    checker only relies on ``t`` for *per-client* program order, which
    the recording client observes directly).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._events: list[dict] = []

    def _record(self, event: dict) -> dict:
        with self._lock:
            event["t"] = len(self._events)
            self._events.append(event)
        return event

    def record_write(
        self,
        client: str,
        replica: str,
        ok: bool,
        seq: int | None = None,
        version: int | None = None,
        token: str | None = None,
        request_id: str | None = None,
    ) -> dict:
        """One write attempt: acked (``ok``) writes must carry seq/version."""
        return self._record(
            {
                "op": "write",
                "client": str(client),
                "replica": str(replica),
                "ok": bool(ok),
                "seq": None if seq is None else int(seq),
                "version": None if version is None else int(version),
                "token": token,
                "request_id": request_id,
            }
        )

    def record_read(
        self,
        client: str,
        replica: str,
        ok: bool,
        version: int | None = None,
        token: str | None = None,
        min_state: str | None = None,
    ) -> dict:
        """One read attempt; ``min_state`` is the pinned token, if any."""
        return self._record(
            {
                "op": "read",
                "client": str(client),
                "replica": str(replica),
                "ok": bool(ok),
                "version": None if version is None else int(version),
                "token": token,
                "min_state": min_state,
            }
        )

    def events(self) -> list[dict]:
        """Snapshot of everything recorded, in arrival order."""
        with self._lock:
            return [dict(e) for e in self._events]


def check_history(
    events: Iterable[Mapping[str, Any]],
    finals: Mapping[str, Mapping[str, Any]] | None = None,
    initial: Mapping[str, Any] | None = None,
) -> dict:
    """Verify an admissible serialization exists for a recorded history.

    Parameters
    ----------
    events:
        Event dicts as produced by :class:`HistoryRecorder`.
    finals:
        Per-replica converged state:
        ``{replica: {"state_token", "table_version", "last_seq",
        "digest"?, "n_rows"?}}``.  Optional; enables the convergence and
        acked-write-loss checks.
    initial:
        The pre-history state ``{"version": V, "token": T}`` every
        client started from.  Reads observing it are admissible without
        a matching write.

    Returns ``{"ok", "violations", "serialization", "stats"}``;
    ``serialization`` is the acked writes in WAL order (present whether
    or not the history passed, for debugging).
    """
    events = [dict(e) for e in events]
    finals = {name: dict(state) for name, state in (finals or {}).items()}
    violations: list[str] = []

    # -- 1. version -> token is single-valued (fork detection) -------------
    token_of: dict[int, str] = {}
    observations: list[tuple[int, str, str]] = []
    if initial and initial.get("version") is not None and initial.get("token"):
        observations.append(
            (int(initial["version"]), str(initial["token"]), "initial state")
        )
    for event in events:
        if event.get("ok") and event.get("version") is not None and event.get("token"):
            observations.append(
                (
                    int(event["version"]),
                    str(event["token"]),
                    f"{event['op']} by {event.get('client')} on "
                    f"{event.get('replica')}",
                )
            )
    for name, state in finals.items():
        if state.get("table_version") is not None and state.get("state_token"):
            observations.append(
                (
                    int(state["table_version"]),
                    str(state["state_token"]),
                    f"final state of replica {name}",
                )
            )
    for version, token, source in observations:
        known = token_of.get(version)
        if known is None:
            token_of[version] = token
        elif known != token:
            violations.append(
                f"fork: version {version} observed with two state tokens "
                f"({known} vs {token}, latter from {source})"
            )

    # -- 2. acked writes serialize by WAL sequence -------------------------
    acked = [e for e in events if e["op"] == "write" and e.get("ok")]
    missing = [e for e in acked if e.get("seq") is None or e.get("version") is None]
    for event in missing:
        violations.append(
            f"acked write by {event.get('client')} carries no seq/version; "
            "the history is not checkable"
        )
    acked = sorted(
        (e for e in acked if e not in missing), key=lambda e: int(e["seq"])
    )
    seen_seqs: set[int] = set()
    previous = None
    for event in acked:
        seq, version = int(event["seq"]), int(event["version"])
        if seq in seen_seqs:
            violations.append(
                f"two acknowledged writes share WAL seq {seq}: the leader "
                "double-assigned a sequence number"
            )
        seen_seqs.add(seq)
        if previous is not None and version <= int(previous["version"]):
            violations.append(
                f"write at seq {seq} has version {version} <= version "
                f"{previous['version']} of earlier seq {previous['seq']}: "
                "log order and version order disagree"
            )
        previous = event

    # -- 3. monotonic reads per (client, replica) --------------------------
    last_version: dict[tuple[str, str], int] = {}
    for event in sorted(events, key=lambda e: e.get("t", 0)):
        if event["op"] != "read" or not event.get("ok"):
            continue
        if event.get("version") is None:
            continue
        key = (str(event.get("client")), str(event.get("replica")))
        version = int(event["version"])
        floor = last_version.get(key)
        if floor is not None and version < floor:
            violations.append(
                f"non-monotonic reads: client {key[0]} on replica {key[1]} "
                f"observed version {version} after version {floor}"
            )
        last_version[key] = max(floor or 0, version)

    # -- 4. read-your-writes for pinned reads ------------------------------
    version_of_token = {token: version for version, token in token_of.items()}
    unpinnable = 0
    for event in events:
        if event["op"] != "read" or not event.get("ok"):
            continue
        pinned = event.get("min_state")
        if not pinned or event.get("version") is None:
            continue
        floor = version_of_token.get(str(pinned))
        if floor is None:
            unpinnable += 1  # token never observed with a version: untestable
            continue
        if int(event["version"]) < floor:
            violations.append(
                f"stale pinned read: client {event.get('client')} pinned "
                f"min_state {pinned} (version {floor}) but replica "
                f"{event.get('replica')} served version {event['version']}"
            )

    # -- 5. convergence and zero acked-write loss --------------------------
    max_acked_seq = max((int(e["seq"]) for e in acked), default=0)
    max_acked_version = max((int(e["version"]) for e in acked), default=None)
    if finals:
        reference_name = sorted(finals)[0]
        reference = finals[reference_name]
        for name in sorted(finals)[1:]:
            state = finals[name]
            for field in ("state_token", "table_version", "digest", "n_rows"):
                if field in reference and field in state and (
                    reference[field] != state[field]
                ):
                    violations.append(
                        f"diverged finals: replica {name} has {field}="
                        f"{state[field]!r} but {reference_name} has "
                        f"{reference[field]!r}"
                    )
        for name, state in sorted(finals.items()):
            if state.get("last_seq") is not None and (
                int(state["last_seq"]) < max_acked_seq
            ):
                violations.append(
                    f"lost acked write: replica {name} converged at seq "
                    f"{state['last_seq']} < acked seq {max_acked_seq}"
                )
            if (
                max_acked_version is not None
                and state.get("table_version") is not None
                and int(state["table_version"]) < max_acked_version
            ):
                violations.append(
                    f"lost acked write: replica {name} converged at version "
                    f"{state['table_version']} < acked version "
                    f"{max_acked_version}"
                )

    # -- the serialization itself ------------------------------------------
    admissible_versions = {int(e["version"]) for e in acked}
    if initial and initial.get("version") is not None:
        admissible_versions.add(int(initial["version"]))
    reads_at: dict[int, int] = {}
    for event in events:
        if event["op"] != "read" or not event.get("ok"):
            continue
        if event.get("version") is None:
            continue
        version = int(event["version"])
        if version not in admissible_versions:
            violations.append(
                f"phantom read: replica {event.get('replica')} served "
                f"version {version}, which no acknowledged write (or the "
                "initial state) produced"
            )
            continue
        reads_at[version] = reads_at.get(version, 0) + 1
    serialization = [
        {
            "seq": int(e["seq"]),
            "version": int(e["version"]),
            "client": e.get("client"),
            "reads_observing": reads_at.get(int(e["version"]), 0),
        }
        for e in acked
    ]

    return {
        "ok": not violations,
        "violations": violations,
        "serialization": serialization,
        "stats": {
            "events": len(events),
            "acked_writes": len(acked),
            "reads": sum(1 for e in events if e["op"] == "read"),
            "ok_reads": sum(
                1 for e in events if e["op"] == "read" and e.get("ok")
            ),
            "replicas": sorted(
                {str(e.get("replica")) for e in events} | set(finals)
            ),
            "unpinnable_reads": unpinnable,
            "max_acked_seq": max_acked_seq,
        },
    }
