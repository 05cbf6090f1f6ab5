"""Vectorized contingency-table query engine for batched frequency queries.

Every LEWIS quantity (Propositions 4.1–4.2) reduces to conditional
frequencies over the black box's input-output table.  Instead of one
full-table boolean-mask scan per query, the engine answers from *cached
grouped count tensors*: for a set of columns it packs the per-row codes
into a single integer key, runs one ``np.bincount``, and reshapes the
result into a dense contingency tensor with one axis per column.  Any
conditional probability over those columns then becomes O(1) tensor
indexing, and a batch of N related queries (same column signature,
different codes) is answered with one vectorized fancy-indexing pass.

Batched query API
-----------------

``probabilities(events, givens)``
    N conditional probabilities ``Pr(event_i | given_i)`` per vectorized
    pass, grouped internally by column signature (overlap handling,
    Laplace smoothing, :class:`EstimationError` on unsupported
    conditions — or a ``default`` fill value); ``probability`` is its
    one-query case.

``group_weights(names, given)``
    The joint distribution of the ``names`` columns restricted to the
    rows matching ``given`` — the mixing weights of a backdoor
    adjustment sum — as a ``(combos, weights)`` array pair over the
    observed support.

``adjusted_probabilities(event, treatments, adjustment, ...)``
    N backdoor-adjustment sums ``sum_c Pr(event | c, t_i, k) Pr(c | w_i,
    k)`` evaluated in one pass per (treatment, weight) column signature:
    the inner conditionals for *all* (query, adjustment-cell) pairs come
    from two count lookups and the mixture is a single broadcast
    multiply-sum.

``cells(names)``
    The non-empty cells of a column set with their row counts, in
    lexicographic code order — the sufficient statistics the local and
    recourse regressions are fitted from (one row per cell, not per
    table row).

Tensors are LRU-cached per column set under a byte budget.  Every count
is read by one method, ``_counts_nd``, with two cases: when the queried
columns are disjoint and their joint fits ``max_cells`` it indexes the
cached dense tensor; otherwise (a joint over the budget, or a column
pinned twice) it counts the table rows that match every pin, giving the
same array.  Only the trailing grid of unpinned columns must fit the
budget; a larger one raises :class:`ValueError`.  ``cells`` never builds
a tensor: a wide keep-set's joint domain can dwarf the table, so it
reads the cells from one packed-key ``np.unique`` over the rows.

Incremental maintenance
-----------------------

``apply_delta(inserted_rows, deleted_rows)`` takes one input form: the
inserted rows as a full-schema :class:`Table` in the engine's domains
(the caller encodes labels once, with ``Table.encode_rows``) and the
deleted rows as indices.  It folds the delta into every cached count
tensor *in place* — one ``np.add.at`` of the delta's signed cell codes
per tensor, O(|delta|) per column set instead of an O(n) rebuild —
builds the post-delta table in one pass, and bumps :attr:`version`.
The version token is what the serving layer's result cache keys on, so
an update invalidates exactly the entries that depend on the superseded
data.

The tensors are only a cache of the table.  Nothing persists them: an
engine over a restored table counts each tensor on first use, as a fresh
one does (a restored session resumes :attr:`version` from its snapshot
manifest, see :mod:`repro.store.snapshot`).
"""

from __future__ import annotations

import hashlib
import time
from typing import Mapping, Sequence

import numpy as np

from repro.data.table import Table, pack_codes, unique_rows
from repro.obs import metrics as _obs
from repro.utils.exceptions import EstimationError
from repro.utils.lru import ByteBudgetLRU

_TENSOR_BUILDS = _obs.get_registry().counter(
    "repro_engine_tensor_builds_total",
    "Count tensors materialised on tensor-cache misses.",
)
_TENSOR_BUILD_SECONDS = _obs.get_registry().histogram(
    "repro_engine_tensor_build_seconds",
    "Wall time of one bincount count-tensor build.",
)
_DELTAS_APPLIED = _obs.get_registry().counter(
    "repro_engine_deltas_applied_total",
    "Non-empty row deltas folded into the cached tensors.",
)


class _CapacityError(Exception):
    """Internal: a dense tensor would exceed the cell budget."""


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= int(v)
    return out


def _code_matrix(
    conditions: Sequence[Mapping[str, int]], cols: Sequence[str]
) -> np.ndarray:
    """``(len(conditions), len(cols))`` int64 codes of ``cols`` per condition."""
    return np.array(
        [[c[k] for k in cols] for c in conditions], dtype=np.int64
    ).reshape(len(conditions), len(cols))


class ContingencyEngine:
    """Cached grouped-count tensors with batched probability queries.

    Parameters
    ----------
    table:
        The data table queried against.
    alpha:
        Laplace smoothing mass added to every cell of an event's joint
        domain; ``0`` (the default) gives the raw frequencies the
        paper's estimators use.
    max_cells:
        Densest joint domain (product of cardinalities) materialised as
        one tensor; larger column sets are counted from the matching rows.
    cache_size:
        Number of count tensors kept in the LRU cache.
    max_bytes:
        Approximate byte budget for the tensor cache; least-recently-used
        tensors are evicted beyond it. ``None`` disables the byte bound.
    """

    def __init__(
        self,
        table: Table,
        alpha: float = 0.0,
        max_cells: int = 1 << 22,
        cache_size: int = 256,
        max_bytes: int | None = 128 << 20,
    ):
        if alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {alpha}")
        self._table = table
        self._alpha = float(alpha)
        self._n = len(table)
        self._max_cells = int(max_cells)
        self._version = 0
        self._cards: dict[str, int] = {}
        self._tensors: ByteBudgetLRU = ByteBudgetLRU(
            max_bytes=max_bytes, max_entries=int(cache_size)
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def table(self) -> Table:
        """The underlying data table."""
        return self._table

    @property
    def n_rows(self) -> int:
        """Number of rows backing the counts."""
        return self._n

    @property
    def alpha(self) -> float:
        """Laplace smoothing mass."""
        return self._alpha

    @property
    def version(self) -> int:
        """Monotone data-version token, bumped by every non-empty delta."""
        return self._version

    def cache_stats(self) -> "_obs.CacheStats":
        """Tensor-cache counters as the unified :class:`CacheStats` schema."""
        return self._tensors.stats_struct("tensor")

    def state_digest(self) -> str:
        """Canonical content digest of the engine's counted state.

        Hashes the row total, the data-version counter, the smoothing
        mass, and every column's *marginal count tensor* bytes — a
        deterministic function of the bound table's content, independent
        of which joint tensors happen to sit in the LRU cache (replicas
        serve different request mixes, so cache *contents* are not
        comparable; the counts they derive from are).  Two replicas that
        replayed the same history agree on this digest bit for bit; the
        replication consistency checker uses it as the convergence
        fingerprint.
        """
        h = hashlib.sha256()
        h.update(f"{self._n}:{self._version}:{self._alpha}".encode("utf-8"))
        for name in sorted(self._table.names):
            marginal = self._counts_nd({}, free_names=[name])
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(marginal).tobytes())
        return h.hexdigest()[:32]

    def _card(self, name: str) -> int:
        card = self._cards.get(name)
        if card is None:
            card = self._table.column(name).cardinality
            self._cards[name] = card
        return card

    # -- count tensors -----------------------------------------------------

    def tensor(self, names: Sequence[str]) -> np.ndarray:
        """Dense count tensor over ``names`` (must be sorted and unique).

        Axis ``i`` indexes the codes of ``names[i]``; the entry at
        ``(c_0, ..., c_k)`` is the number of rows with that joint code
        assignment.  Built once per column set via one packed-key
        ``np.bincount`` pass and LRU-cached.  A miss whose joint domain
        exceeds ``max_cells`` raises the internal ``_CapacityError``,
        which only :meth:`_counts_nd` catches.
        """
        key = tuple(names)
        cached = self._tensors.get(key)
        if cached is not None:
            return cached
        shape = tuple(self._card(n) for n in key)
        cells = _prod(shape) if key else 1
        if cells > self._max_cells:
            raise _CapacityError(f"joint domain of {key!r} has {cells} cells")
        build_started = time.perf_counter()
        if not key:
            tensor = np.full((), self._n, dtype=np.int64)
        else:
            tensor = np.bincount(
                pack_codes([self._table.codes(n) for n in key], shape, self._n),
                minlength=cells,
            ).reshape(shape)
        _TENSOR_BUILDS.inc()
        _TENSOR_BUILD_SECONDS.observe(time.perf_counter() - build_started)
        self._tensors.put(key, tensor, size=tensor.nbytes)
        return tensor

    def cells(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Non-empty cells of the joint domain of ``names`` and their counts.

        Returns ``(codes, counts)``: ``codes`` is a ``(g, len(names))``
        int64 code matrix with columns in ``names`` order (any order,
        non-empty, unique) and rows in lexicographic code order;
        ``counts[i] >= 1`` is the number of rows in cell ``i``.  One
        :func:`~repro.data.table.unique_rows` pass runs over the table's
        code rows, so the work is O(n log n) whatever the joint domain's
        size and no tensor is built or cached.
        """
        names = list(names)
        return unique_rows(
            [self._table.codes(n) for n in names], [self._card(n) for n in names]
        )

    # -- incremental maintenance -------------------------------------------

    def apply_delta(
        self,
        inserted_rows: Table | None = None,
        deleted_rows: Sequence[int] | np.ndarray | None = None,
    ) -> int:
        """Fold row insertions/deletions into the cached tensors in place.

        ``inserted_rows`` is a :class:`Table` over the full schema in this
        engine's domains (a delta can never extend a column's category
        set; its codes were range-checked when its columns were built).
        ``deleted_rows`` are row *indices* into the current table;
        deletions are applied first, then insertions are appended.

        The delta's rows become one signed code list per column (deleted
        rows -1, inserted rows +1), and every cached count tensor takes
        one unbuffered ``np.add.at`` scatter-add of those signs at those
        cells — O(|delta|) work per column set instead of an O(n)
        rebuild, with repeated cells adding up.  The post-delta table is
        then built in one pass, each column's kept codes followed by its
        inserted ones, and :attr:`version` is bumped.  Updated tensors
        are bit-identical to a fresh rebuild (integer counts, no
        rounding).  An empty delta is a no-op and leaves the version
        unchanged.  Returns the version.
        """
        names = self._table.names
        n_ins = len(inserted_rows) if inserted_rows is not None else 0
        if n_ins:
            if set(inserted_rows.names) != set(names):
                raise ValueError(
                    f"inserted rows must cover the full schema {names}; "
                    f"got {sorted(inserted_rows.names)}"
                )
            for name in names:
                if inserted_rows.domain(name) != self._table.domain(name):
                    raise ValueError(
                        f"inserted column {name!r} has a different domain; "
                        "deltas cannot change category sets"
                    )
        if deleted_rows is None:
            deleted = np.empty(0, dtype=np.intp)
        else:
            deleted = np.unique(np.asarray(deleted_rows, dtype=np.intp))
        if deleted.size and (deleted[0] < 0 or deleted[-1] >= self._n):
            raise IndexError(
                f"deleted row indices outside [0, {self._n}): {deleted}"
            )
        if not n_ins and not deleted.size:
            return self._version
        empty = deleted[:0]
        inserted = {
            name: inserted_rows.codes(name) if n_ins else empty for name in names
        }
        signed = {
            name: np.concatenate([self._table.codes(name)[deleted], inserted[name]])
            for name in names
        }
        signs = np.concatenate(
            [np.full(deleted.size, -1, dtype=np.int64), np.ones(n_ins, dtype=np.int64)]
        )
        for key in list(self._tensors):
            tensor = self._tensors.peek(key)
            if key:
                np.add.at(tensor, tuple(signed[name] for name in key), signs)
            else:
                tensor[...] = self._n - deleted.size + n_ins

        keep = np.ones(self._n, dtype=bool)
        keep[deleted] = False
        self._table = Table(
            col.replaced(np.concatenate([col.codes[keep], inserted[col.name]]))
            for col in self._table
        )
        self._n = len(self._table)
        self._version += 1
        _DELTAS_APPLIED.inc()
        return self._version

    def _counts_nd(
        self,
        fixed: Mapping[str, int],
        vary_names: Sequence[str] = (),
        vary_codes: np.ndarray | None = None,
        free_names: Sequence[str] = (),
    ) -> np.ndarray:
        """Counts with scalar, per-query, and marginal axes: the one count reader.

        ``fixed`` pins columns to one code for all queries; ``vary_names``
        columns take per-query codes from row ``i`` of ``vary_codes``;
        ``free_names`` columns stay as trailing marginal axes (in sorted
        name order).  Returns shape ``([m,] *free_shape)`` — the leading
        query axis is present iff ``vary_names`` is non-empty.

        When the three column sets are disjoint and their joint fits
        ``max_cells`` (or is cached), the answer indexes the cached dense
        tensor.  Otherwise it counts the table rows matching every pin
        (:meth:`_counts_rows`), so a column pinned twice counts only the
        rows that match both pins; the two cases give equal arrays.
        """
        fixed = dict(fixed)
        vary_names = list(vary_names)
        free_names = sorted(free_names)
        names = sorted(set(fixed) | set(vary_names) | set(free_names))
        tensor = None
        if len(names) == len(fixed) + len(vary_names) + len(free_names):
            try:
                tensor = self.tensor(names)
            except _CapacityError:
                pass
        if tensor is None:
            return self._counts_rows(fixed, vary_names, vary_codes, free_names)

        free_set = set(free_names)
        lead = [i for i, n in enumerate(names) if n not in free_set]
        trail = [i for i, n in enumerate(names) if n in free_set]
        view = tensor.transpose(lead + trail)
        free_shape = tuple(self._card(n) for n in free_names)

        out_shape = ((len(vary_codes),) if vary_names else ()) + free_shape
        # Out-of-domain fixed codes match no rows at all.
        for name, code in fixed.items():
            if not 0 <= int(code) < self._card(name):
                return np.zeros(out_shape, dtype=np.int64)

        index = []
        invalid = None
        for i in lead:
            name = names[i]
            if name in fixed:
                index.append(int(fixed[name]))
            else:
                codes = np.asarray(
                    vary_codes[:, vary_names.index(name)], dtype=np.intp
                )
                bad = (codes < 0) | (codes >= self._card(name))
                if bad.any():
                    invalid = bad if invalid is None else (invalid | bad)
                    codes = np.clip(codes, 0, self._card(name) - 1)
                index.append(codes)
        result = view[tuple(index)]
        if invalid is not None:
            result = result.copy()
            result[invalid] = 0
        return np.asarray(result)

    def _counts_rows(
        self,
        fixed: dict,
        vary_names: list[str],
        vary_codes: np.ndarray | None,
        free_names: list[str],
    ) -> np.ndarray:
        """The rows case of :meth:`_counts_nd`: count the matching rows.

        Masks the rows by the ``fixed`` pins, matches each remaining row's
        ``vary_names`` codes to the deduplicated per-query code rows, and
        bins the matches into the dense ``free_names`` grid.  Raises
        :class:`ValueError` when that grid exceeds ``max_cells``.
        """
        free_shape = tuple(self._card(n) for n in free_names)
        grid = _prod(free_shape)
        if grid > self._max_cells:
            raise ValueError(
                f"free grid of {free_names} has {grid} cells, over the "
                f"max_cells budget of {self._max_cells}"
            )
        mask = np.ones(self._n, dtype=bool)
        for name, code in fixed.items():
            mask &= self._table.codes(name) == int(code)
        rows = np.flatnonzero(mask)
        cell = pack_codes(
            [self._table.codes(n)[rows] for n in free_names], free_shape, len(rows)
        )
        if not vary_names:
            return np.bincount(cell, minlength=grid).reshape(free_shape)
        cards = [self._card(n) for n in vary_names]
        queries, _, query_of = unique_rows(
            np.asarray(vary_codes).T, cards, return_inverse=True
        )
        u = len(queries)
        # One dedup over the queries and the rows together gives every row
        # the group id of the query it matches, if any.
        groups, _, group_of = unique_rows(
            [
                np.concatenate([queries[:, j], self._table.codes(n)[rows]])
                for j, n in enumerate(vary_names)
            ],
            cards,
            return_inverse=True,
        )
        slot = np.full(len(groups), -1, dtype=np.int64)
        slot[group_of[:u]] = np.arange(u)
        hit = slot[group_of[u:]]
        matched = hit >= 0
        counts = np.bincount(
            hit[matched] * grid + cell[matched], minlength=u * grid
        ).reshape((u,) + free_shape)
        return counts[query_of]

    def count(self, conditions: Mapping[str, int]) -> int:
        """Number of rows matching code-level equality ``conditions``."""
        return int(self._counts_nd(conditions))

    # -- probabilities -----------------------------------------------------

    def probability(
        self,
        event: Mapping[str, int],
        given: Mapping[str, int] | None = None,
    ) -> float:
        """``Pr(event | given)``: the one-query case of :meth:`probabilities`.

        Conflicting event/condition codes yield 0, events implied by the
        condition yield 1, Laplace smoothing spreads ``alpha`` over the
        event's joint domain, and an unsupported condition raises
        :class:`EstimationError` when no smoothing is enabled.
        """
        return float(self.probabilities([event], [given or {}])[0])

    def probabilities(
        self,
        events: Sequence[Mapping[str, int]],
        givens: Sequence[Mapping[str, int]] | None = None,
        default: float | None = None,
    ) -> np.ndarray:
        """Batched ``Pr(event_i | given_i)`` — one vectorized pass per signature.

        Queries are grouped by their (event-columns, given-columns)
        signature; each group is answered with two count lookups.  When
        ``default`` is ``None`` an unsupported condition raises
        :class:`EstimationError`; otherwise the offending entries are
        filled with ``default``.
        """
        events = [dict(e) for e in events]
        if givens is None:
            givens = [{} for _ in events]
        else:
            givens = [dict(g) for g in givens]
        if len(events) != len(givens):
            raise ValueError("events and givens must have equal length")
        out = np.empty(len(events), dtype=float)
        buckets: dict[tuple, list[int]] = {}
        for i, (event, given) in enumerate(zip(events, givens)):
            conflict = any(
                event[k] != given[k] for k in set(event) & set(given)
            )
            if conflict:
                out[i] = 0.0
                continue
            event = {k: v for k, v in event.items() if k not in given}
            events[i] = event
            if not event:
                out[i] = 1.0
                continue
            sig = (tuple(sorted(event)), tuple(sorted(given)))
            buckets.setdefault(sig, []).append(i)
        for (ecols, gcols), idxs in buckets.items():
            out[idxs] = self._probabilities_group(
                ecols, gcols, [events[i] for i in idxs],
                [givens[i] for i in idxs], default,
            )
        return out

    def _probabilities_group(
        self,
        ecols: tuple[str, ...],
        gcols: tuple[str, ...],
        events: list[dict],
        givens: list[dict],
        default: float | None,
    ) -> np.ndarray:
        m = len(events)
        gm = _code_matrix(givens, gcols)
        em = _code_matrix(events, ecols)
        if gcols:
            denom = self._counts_nd({}, list(gcols), gm)
        else:
            denom = np.full(m, self._n, dtype=np.int64)
        joint_cols = list(gcols) + list(ecols)
        numer = self._counts_nd({}, joint_cols, np.concatenate([gm, em], axis=1))
        if self._alpha > 0:
            cells = _prod(self._card(c) for c in ecols)
            return (numer + self._alpha) / (denom + self._alpha * cells)
        supported = denom > 0
        if default is None and not supported.all():
            bad = int(np.argmin(supported))
            raise EstimationError(
                f"no rows satisfy conditioning event {givens[bad]!r}"
            )
        values = np.full(m, 0.0 if default is None else float(default))
        np.divide(numer, denom, out=values, where=supported)
        return values

    # -- grouped weights ---------------------------------------------------

    def group_weights(
        self,
        names: Sequence[str],
        given: Mapping[str, int] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Observed joint distribution of ``names`` among rows matching ``given``.

        Returns ``(combos, weights)``: ``combos`` is a ``(g, len(names))``
        code matrix in lexicographic order and ``weights`` the matching
        relative frequencies (summing to 1 over the observed support).
        Raises :class:`EstimationError` when no row matches ``given``.
        A column both named and pinned keeps only its pinned code.
        """
        names = list(names)
        given = dict(given or {})
        joint = self._counts_nd(given, free_names=names)
        total = int(joint.sum())
        if total == 0:
            raise EstimationError(f"no rows satisfy conditioning event {given!r}")
        # ``joint`` axes follow sorted(names); realign them to ``names``.
        ordered = sorted(names)
        joint = joint.transpose([ordered.index(n) for n in names])
        positive = joint > 0
        return np.argwhere(positive).astype(np.int64), joint[positive] / total

    # -- batched adjustment sums -------------------------------------------

    def adjusted_probabilities(
        self,
        event: Mapping[str, int],
        treatments: Sequence[Mapping[str, int]],
        adjustment: Sequence[str],
        weight_conditions: Sequence[Mapping[str, int]] | None = None,
        context: Mapping[str, int] | None = None,
    ) -> np.ndarray:
        """Batched backdoor sums ``sum_c Pr(event | c, t_i, k) Pr(c | w_i, k)``.

        Entry ``i`` uses ``treatments[i]`` and ``weight_conditions[i]``
        (``{}`` — the context alone, the plain backdoor formula of Eq. 4
        — when ``weight_conditions`` is omitted); ``event``,
        ``adjustment`` and ``context`` are shared.  Context columns leave
        the adjustment set, and context codes win over treatment and
        weight codes on shared columns.  Queries are grouped by their
        treatment and weight keys and each group is one vectorized pass:
        the adjustment cells become trailing count axes, so the inner
        conditionals of every (query, cell) pair come from two lookups
        and the mixture is a broadcast multiply-sum.  An adjustment cell
        without support for the inner conditional falls back to the
        unadjusted conditional ``Pr(event | t_i, k)``, which keeps the
        estimator total.  An adjustment set holding an event or treatment
        column raises :class:`ValueError`.
        """
        event = dict(event)
        treatments = [dict(t) for t in treatments]
        m = len(treatments)
        if weight_conditions is None:
            weight_conditions = [{} for _ in range(m)]
        else:
            weight_conditions = [dict(w) for w in weight_conditions]
        if len(weight_conditions) != m:
            raise ValueError("weight_conditions must match treatments in length")
        if m == 0:
            return np.zeros(0)
        context = dict(context or {})
        adjustment = [a for a in adjustment if a not in context]
        if not adjustment:
            return self.probabilities(
                [event] * m, [{**t, **context} for t in treatments]
            )
        # Grouping on the keys as given, unsorted, keeps the per-query work
        # to two tuple builds; a key set met in two orders makes two groups.
        groups: dict[tuple, list[int]] = {}
        for i, (t, w) in enumerate(zip(treatments, weight_conditions)):
            groups.setdefault((tuple(t), tuple(w)), []).append(i)
        pinned = set(adjustment) & set(event).union(*(tkeys for tkeys, _ in groups))
        if pinned:
            raise ValueError(
                f"adjustment set {adjustment} holds event or treatment "
                f"columns {sorted(pinned)}"
            )
        out = np.empty(m)
        for (tkeys, wkeys), idxs in groups.items():
            if len(idxs) < m:
                ts = [treatments[i] for i in idxs]
                ws = [weight_conditions[i] for i in idxs]
            else:  # one key set, as from every caller in the package
                ts, ws, idxs = treatments, weight_conditions, slice(None)
            out[idxs] = self._adjusted_group(
                event, ts, tuple(sorted(tkeys)), ws, tuple(sorted(wkeys)),
                adjustment, context,
            )
        return out

    def _adjusted_group(
        self,
        event: dict,
        treatments: list[dict],
        tcols: tuple[str, ...],
        weight_conditions: list[dict],
        wcols: tuple[str, ...],
        adjustment: list[str],
        context: dict,
    ) -> np.ndarray:
        free = sorted(set(adjustment))
        k_free = len(free)
        m = len(treatments)
        tvary = [c for c in tcols if c not in context]
        wvary = [c for c in wcols if c not in context]
        # The inner conditional reads the event as ``probability`` does:
        # event columns the context or the treatment pins leave the count,
        # and a query whose pins contradict the event scores 0.
        inner_event = {
            c: v for c, v in event.items() if c not in context and c not in tvary
        }
        conflict = np.full(
            m, any(context[c] != v for c, v in event.items() if c in context)
        )

        def lift(array: np.ndarray) -> np.ndarray:
            """Ensure a leading query axis (length 1 when shared)."""
            return array if array.ndim == k_free + 1 else array[None]

        wm = _code_matrix(weight_conditions, wvary) if wvary else None
        wjoint = lift(self._counts_nd(context, wvary, wm, free))
        wtot = wjoint.reshape(wjoint.shape[0], -1).sum(axis=1)
        if np.any(wtot == 0):
            bad = int(np.argmax(wtot == 0))
            merged = {**weight_conditions[bad], **context}
            raise EstimationError(
                f"no rows satisfy conditioning event {merged!r}"
            )
        weights = wjoint / wtot.reshape((-1,) + (1,) * k_free)

        tm = _code_matrix(treatments, tvary) if tvary else None
        for j, c in enumerate(tvary):
            if c in event:
                conflict |= tm[:, j] != event[c]
        denom = lift(self._counts_nd(context, tvary, tm, free))
        numer = lift(self._counts_nd({**context, **inner_event}, tvary, tm, free))

        if self._alpha > 0:
            cells = _prod(self._card(name) for name in inner_event)
            inner = (numer + self._alpha) / (denom + self._alpha * cells)
        else:
            supported = denom > 0
            if supported.all():
                inner = np.zeros(denom.shape)
            else:
                # Unsupported (c, t, k) cells fall back to the unadjusted
                # conditional so the mixture stays a probability.
                fallback = self.probabilities(
                    [event] * m,
                    [{**t, **context} for t in treatments],
                    default=0.0,
                )
                if denom.shape[0] == 1:
                    fallback = fallback[:1]
                inner = np.broadcast_to(
                    fallback.reshape((-1,) + (1,) * k_free), denom.shape
                ).copy()
            np.divide(numer, denom, out=inner, where=supported)

        mixed = weights * inner
        totals = mixed.reshape(mixed.shape[0], -1).sum(axis=1)
        if totals.shape[0] == 1 and m > 1:
            totals = np.broadcast_to(totals, (m,))
        totals = np.array(totals, dtype=float)
        totals[conflict] = 0.0
        return totals
