"""A minimal column-typed tabular container with discrete domains.

LEWIS operates on discrete, finite attribute domains (continuous values
are binned, Section 2 of the paper).  :class:`Column` therefore stores a
vector of small integer *codes* alongside an ordered tuple of *categories*
(the decoded labels).  :class:`Table` is an ordered collection of equal
length columns with the slicing/filtering/grouping operations the rest of
the library needs.  Both types are immutable-by-convention: operations
return new objects and never mutate in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.utils.exceptions import DomainError
from repro.utils.validation import check_same_length


@dataclass(frozen=True)
class Column:
    """A named vector of integer codes over an ordered categorical domain.

    Parameters
    ----------
    name:
        Attribute name.
    codes:
        Integer array; ``codes[i]`` indexes into ``categories``.
    categories:
        Ordered tuple of category labels. For ordinal attributes the tuple
        order *is* the attribute order used by LEWIS (``x > x'`` means the
        code of ``x`` is larger).
    ordered:
        Whether the category order carries meaning. When ``False``, LEWIS
        infers an ordering from the black-box output (Section 4.1).
    """

    name: str
    codes: np.ndarray
    categories: tuple
    ordered: bool = True

    def __post_init__(self) -> None:
        codes = np.asarray(self.codes, dtype=np.int64)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "categories", tuple(self.categories))
        if codes.ndim != 1:
            raise ValueError(f"column {self.name!r}: codes must be 1-D")
        if codes.size and (codes.min() < 0 or codes.max() >= len(self.categories)):
            raise DomainError(
                f"column {self.name!r}: codes outside [0, {len(self.categories)})"
            )

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_values(
        cls,
        name: str,
        values: Sequence[Any],
        categories: Sequence[Any] | None = None,
        ordered: bool = True,
    ) -> "Column":
        """Build a column from raw labels, inferring the domain if needed.

        When ``categories`` is omitted the domain is the sorted set of
        distinct values (numpy-sortable values only).
        """
        values = list(values)
        if categories is None:
            try:
                categories = sorted(set(values))
            except TypeError:
                categories = list(dict.fromkeys(values))
        index = {c: i for i, c in enumerate(categories)}
        try:
            codes = np.fromiter((index[v] for v in values), dtype=np.int64, count=len(values))
        except KeyError as exc:
            raise DomainError(
                f"column {name!r}: value {exc.args[0]!r} not in categories"
            ) from exc
        return cls(name, codes, tuple(categories), ordered)

    @classmethod
    def from_codes(
        cls,
        name: str,
        codes: np.ndarray,
        categories: Sequence[Any],
        ordered: bool = True,
    ) -> "Column":
        """Build a column directly from integer codes."""
        return cls(name, np.asarray(codes, dtype=np.int64), tuple(categories), ordered)

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def cardinality(self) -> int:
        """Number of categories in the domain."""
        return len(self.categories)

    def decode(self) -> list:
        """Return the column as a list of category labels."""
        return [self.categories[c] for c in self.codes]

    def code_of(self, value: Any) -> int:
        """Return the integer code of ``value``; raise if absent."""
        try:
            return self.categories.index(value)
        except ValueError as exc:
            raise DomainError(
                f"column {self.name!r}: {value!r} not in domain {self.categories!r}"
            ) from exc

    def lenient_code_of(self, value: Any) -> int:
        """:meth:`code_of`, also matching a label by its string form.

        For labels that crossed JSON or a command line in a query:
        ``"2"`` finds the category ``2``.  Rows entering the table stay
        strict, so a delta still rejects an unknown label.
        """
        try:
            return self.code_of(value)
        except DomainError:
            for code, category in enumerate(self.categories):
                if str(category) == str(value):
                    return code
            raise

    def value_counts(self) -> dict:
        """Return ``{category: count}`` including zero-count categories."""
        counts = np.bincount(self.codes, minlength=self.cardinality)
        return {cat: int(n) for cat, n in zip(self.categories, counts)}

    # -- transformations ---------------------------------------------------

    def take(self, indices: np.ndarray) -> "Column":
        """Return a new column with rows at ``indices``."""
        return Column(self.name, self.codes[indices], self.categories, self.ordered)

    def replaced(self, codes: np.ndarray) -> "Column":
        """Return a copy of this column with new codes, same domain."""
        return Column(self.name, codes, self.categories, self.ordered)

    def renamed(self, name: str) -> "Column":
        """Return a copy of this column under a new name."""
        return Column(name, self.codes, self.categories, self.ordered)

    def with_order(self, categories: Sequence[Any]) -> "Column":
        """Return a copy with the domain reordered to ``categories``.

        Codes are remapped so decoded values are unchanged. Used when LEWIS
        infers an attribute ordering from the black box (Section 4.1).
        """
        if set(categories) != set(self.categories):
            raise DomainError(
                f"column {self.name!r}: reorder must be a permutation of the domain"
            )
        new_index = {c: i for i, c in enumerate(categories)}
        remap = np.array([new_index[c] for c in self.categories], dtype=np.int64)
        return Column(self.name, remap[self.codes], tuple(categories), ordered=True)


def pack_codes(
    columns: Sequence[np.ndarray], cards: Sequence[int], length: int
) -> np.ndarray:
    """Mixed-radix int64 key of each of ``length`` rows of in-domain codes.

    Column ``j`` codes a domain of ``cards[j]`` values; keys sort the way
    the rows do, lexicographically.
    """
    keys = np.zeros(length, dtype=np.int64)
    for codes, card in zip(columns, cards):
        keys *= int(card)
        keys += codes
    return keys


def unique_rows(
    columns: np.ndarray | Sequence[np.ndarray],
    cards: Sequence[int],
    return_inverse: bool = False,
) -> tuple[np.ndarray, ...]:
    """Distinct rows of a set of code columns, in lexicographic order.

    ``columns`` holds one code vector per column, as a ``(k, n)`` array
    or ``k`` equal-length vectors; column ``j`` codes a domain of
    ``cards[j]`` values.  Returns ``(rows, counts)``: the ``(g, k)``
    int64 distinct rows and each one's multiplicity, followed, with
    ``return_inverse``, by the index into ``rows`` of each input row.
    When every code lies in its domain and the domain product fits an
    int64, the rows are deduplicated by their :func:`pack_codes` keys
    (far cheaper than a row-wise structured sort); otherwise by the
    row-wise ``np.unique(axis=0)``.  Both give the same rows in the same
    order.
    """
    columns = np.asarray(columns, dtype=np.int64)
    cards = [int(c) for c in cards]
    if (
        math.prod(cards) < 2**63
        and (columns.min(axis=1, initial=0) >= 0).all()
        and (columns.max(axis=1, initial=0) < np.asarray(cards)).all()
    ):
        found = np.unique(
            pack_codes(columns, cards, columns.shape[1]),
            return_inverse=return_inverse,
            return_counts=True,
        )
        rows = np.empty((len(found[0]), len(cards)), dtype=np.int64)
        keys = found[0]
        for j in range(len(cards) - 1, -1, -1):
            keys, rows[:, j] = np.divmod(keys, cards[j])
    else:
        found = np.unique(
            columns.T, axis=0, return_inverse=return_inverse, return_counts=True
        )
        rows = found[0]
    counts = found[-1].astype(np.int64)
    if return_inverse:
        return rows, counts, found[1].reshape(-1)
    return rows, counts


class Table:
    """An ordered collection of equal-length :class:`Column` objects."""

    def __init__(self, columns: Iterable[Column]):
        cols = list(columns)
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate column names: {names}")
        check_same_length(*cols)
        self._columns: dict[str, Column] = {c.name: c for c in cols}

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dict(
        cls,
        data: Mapping[str, Sequence[Any]],
        domains: Mapping[str, Sequence[Any]] | None = None,
        unordered: Iterable[str] = (),
    ) -> "Table":
        """Build a table from ``{name: values}`` with optional domains."""
        domains = domains or {}
        unordered = set(unordered)
        cols = [
            Column.from_values(
                name, values, domains.get(name), ordered=name not in unordered
            )
            for name, values in data.items()
        ]
        return cls(cols)

    @classmethod
    def from_codes(
        cls,
        codes: Mapping[str, np.ndarray],
        domains: Mapping[str, Sequence[Any]],
        unordered: Iterable[str] = (),
    ) -> "Table":
        """Build a table directly from code arrays and explicit domains."""
        unordered = set(unordered)
        cols = [
            Column.from_codes(name, arr, domains[name], ordered=name not in unordered)
            for name, arr in codes.items()
        ]
        return cls(cols)

    # -- accessors ----------------------------------------------------------

    def __len__(self) -> int:
        if not self._columns:
            return 0
        return len(next(iter(self._columns.values())))

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns.values())

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    @property
    def names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def n_rows(self) -> int:
        """Number of rows."""
        return len(self)

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    def column(self, name: str) -> Column:
        """Return the column called ``name``."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise KeyError(
                f"no column {name!r}; available: {self.names}"
            ) from exc

    def codes(self, name: str) -> np.ndarray:
        """Return the integer codes of column ``name``."""
        return self.column(name).codes

    def domain(self, name: str) -> tuple:
        """Return the ordered category tuple of column ``name``."""
        return self.column(name).categories

    def row(self, index: int) -> dict:
        """Return row ``index`` decoded as ``{column: label}``."""
        return {
            name: col.categories[col.codes[index]]
            for name, col in self._columns.items()
        }

    def row_codes(self, index: int) -> dict:
        """Return row ``index`` as ``{column: code}``."""
        return {name: int(col.codes[index]) for name, col in self._columns.items()}

    # -- matrix views --------------------------------------------------------

    def codes_matrix(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Stack the code vectors of ``names`` into an ``(n, d)`` matrix."""
        names = list(names) if names is not None else self.names
        if not names:
            return np.empty((len(self), 0), dtype=np.int64)
        return np.column_stack([self.codes(n) for n in names])

    # -- filtering / reshaping ------------------------------------------------

    def take(self, indices: np.ndarray) -> "Table":
        """Return a new table with rows at ``indices``.

        ``indices`` are integer row positions (repeats allowed) or a
        boolean row mask; an empty list gives an empty table with the
        same columns and domains.
        """
        indices = np.asarray(indices)
        if not indices.size and indices.dtype.kind == "f":
            indices = indices.astype(np.intp)  # np.asarray([]) is float64
        return Table(col.take(indices) for col in self)

    def mask(self, **conditions: Any) -> np.ndarray:
        """Return a boolean row mask for ``column=label`` equality conditions."""
        out = np.ones(len(self), dtype=bool)
        for name, value in conditions.items():
            col = self.column(name)
            out &= col.codes == col.code_of(value)
        return out

    def filter(self, **conditions: Any) -> "Table":
        """Return the sub-table of rows matching all equality conditions."""
        return self.take(np.nonzero(self.mask(**conditions))[0])

    def select(self, names: Sequence[str]) -> "Table":
        """Return a table restricted to ``names`` (in the given order)."""
        return Table(self.column(n) for n in names)

    def drop(self, names: Iterable[str]) -> "Table":
        """Return a table without the columns in ``names``."""
        dropped = set(names)
        return Table(col for col in self if col.name not in dropped)

    def with_column(self, column: Column) -> "Table":
        """Return a table with ``column`` appended or replaced by name."""
        if self._columns:
            check_same_length(self, column)
        cols = dict(self._columns)
        cols[column.name] = column
        return Table(cols.values())

    # -- delta hooks (incremental serving) -----------------------------------

    def encode_rows(self, rows: Sequence[Mapping[str, Any]]) -> "Table":
        """Encode label-level ``rows`` as a table with this schema and domains.

        Every row must assign every column; values outside a column's
        domain raise :class:`DomainError`.  Labels match by equality, so
        ``2``, ``2.0`` and ``np.int64(2)`` encode to the same code.  This
        is the one row encoder in front of ``Lewis.apply_delta``.
        """
        rows = list(rows)
        columns = []
        for name, col in self._columns.items():
            codes = np.empty(len(rows), dtype=np.int64)
            for i, row in enumerate(rows):
                if name not in row:
                    raise DomainError(
                        f"row {i} is missing column {name!r}; "
                        f"rows must cover the full schema {self.names}"
                    )
                codes[i] = col.code_of(row[name])
            columns.append(col.replaced(codes))
        return Table(columns)

    def schema_fingerprint(self) -> str:
        """Stable hex digest of the schema (names, domains, orderedness).

        Row *contents* are deliberately excluded — the serving layer pairs
        this with the engine's data-version token, so (fingerprint,
        version) identifies a table state without hashing the data.
        """
        import hashlib

        h = hashlib.sha1()
        for col in self:
            h.update(
                repr((col.name, col.categories, col.ordered)).encode("utf-8")
            )
        return h.hexdigest()

    def sample(self, n: int, rng: np.random.Generator, replace: bool = False) -> "Table":
        """Return ``n`` uniformly sampled rows."""
        indices = rng.choice(len(self), size=n, replace=replace)
        return self.take(indices)

    def to_rows(self) -> list[dict]:
        """Materialise the table as a list of decoded row dicts."""
        return [self.row(i) for i in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        schema = ", ".join(
            f"{c.name}[{c.cardinality}]" for c in self
        )
        return f"Table({len(self)} rows: {schema})"
