"""Data-update requests: the wire form of a row delta.

A deployed explainer answers standing queries over data that keeps
changing — new applicants arrive, withdrawn ones leave.  Databases
handle this by maintaining materialized state under updates instead of
recomputing it (Berkholz et al., PAPERS.md); here the materialized state
is the engine's contingency tensors plus the session's result cache.

:class:`TableDelta` is the wire-level update: decoded rows to insert and
row indices to delete.  A session applies it along one path, in one turn
of its lane: ``Table.encode_rows`` encodes the inserted labels once and
the delete indices are checked against the live table (a durable session
logs the delta only after both pass); ``Lewis.apply_delta`` then has the
black box predict only the inserted rows, and the engine folds the
encoded delta into every cached count tensor in place (O(|delta|) per
tensor) and builds the post-delta table in one pass.  The session's
state token advances over the delta's codes, so exactly the dependent
result-cache entries invalidate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence


@dataclass(frozen=True)
class TableDelta:
    """One batch of row insertions/deletions against a session's table.

    ``insert`` holds decoded ``{attribute: label}`` rows covering the
    session's full attribute schema; ``delete`` holds row indices into
    the *current* table (repeats and order do not matter).  Deletions
    are applied first, then insertions are appended (so indices never
    refer to inserted rows).
    """

    insert: tuple[Mapping[str, Any], ...] = field(default_factory=tuple)
    delete: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "insert", tuple(dict(r) for r in self.insert))
        object.__setattr__(self, "delete", tuple(int(i) for i in self.delete))

    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return not self.insert and not self.delete

    @classmethod
    def from_json(cls, payload: Mapping[str, Any]) -> "TableDelta":
        """Parse ``{"insert": [...], "delete": [...]}`` with validation."""
        if not isinstance(payload, Mapping):
            raise ValueError("update payload must be a JSON object")
        unknown = set(payload) - {"insert", "delete"}
        if unknown:
            raise ValueError(f"unknown update fields: {sorted(unknown)}")
        insert = payload.get("insert", [])
        delete = payload.get("delete", [])
        if not isinstance(insert, Sequence) or isinstance(insert, (str, bytes)):
            raise ValueError('"insert" must be a list of row objects')
        for row in insert:
            if not isinstance(row, Mapping):
                raise ValueError('"insert" entries must be {attribute: value} objects')
        if not isinstance(delete, Sequence) or isinstance(delete, (str, bytes)):
            raise ValueError('"delete" must be a list of row indices')
        for idx in delete:
            if isinstance(idx, bool) or not isinstance(idx, int):
                raise ValueError('"delete" entries must be integer row indices')
        return cls(insert=tuple(insert), delete=tuple(delete))
