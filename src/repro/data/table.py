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

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

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


def bin_numeric(
    name: str,
    values: np.ndarray,
    bins: int = 5,
    edges: Sequence[float] | None = None,
    labels: Sequence[Any] | None = None,
) -> Column:
    """Discretise a continuous vector into an ordinal :class:`Column`.

    ``edges`` are interior cut points; when omitted, quantile cuts are
    used. Labels default to readable interval strings.
    """
    values = np.asarray(values, dtype=float)
    if edges is None:
        qs = np.linspace(0, 1, bins + 1)[1:-1]
        edges = np.unique(np.quantile(values, qs))
    edges = np.asarray(edges, dtype=float)
    codes = np.searchsorted(edges, values, side="right")
    if labels is None:
        bounds = [-np.inf, *edges.tolist(), np.inf]
        labels = [
            f"[{lo:g}, {hi:g})" for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return Column(name, codes, tuple(labels), ordered=True)


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
        """Return a new table with rows at ``indices``."""
        indices = np.asarray(indices)
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

    def encode_rows(
        self, rows: Sequence[Mapping[str, Any]]
    ) -> dict[str, np.ndarray]:
        """Translate label-level ``rows`` into full-schema code arrays.

        Every row must assign every column; values outside a column's
        domain raise :class:`DomainError`. This is the validation step in
        front of :meth:`append_rows` and the engine's ``apply_delta``.
        """
        rows = list(rows)
        out: dict[str, np.ndarray] = {}
        for name, col in self._columns.items():
            codes = np.empty(len(rows), dtype=np.int64)
            for i, row in enumerate(rows):
                if name not in row:
                    raise DomainError(
                        f"row {i} is missing column {name!r}; "
                        f"rows must cover the full schema {self.names}"
                    )
                codes[i] = col.code_of(row[name])
            out[name] = codes
        return out

    def append_rows(self, rows: Sequence[Mapping[str, Any]]) -> "Table":
        """Return a table with decoded ``rows`` appended (same domains)."""
        encoded = self.encode_rows(rows)
        return Table(
            col.replaced(np.concatenate([col.codes, encoded[name]]))
            for name, col in self._columns.items()
        )

    def delete_rows(self, indices: Sequence[int] | np.ndarray) -> "Table":
        """Return a table without the rows at ``indices``."""
        indices = np.unique(np.asarray(indices, dtype=np.intp))
        if indices.size and (indices[0] < 0 or indices[-1] >= len(self)):
            raise IndexError(f"row indices outside [0, {len(self)}): {indices}")
        keep = np.ones(len(self), dtype=bool)
        keep[indices] = False
        return self.take(np.nonzero(keep)[0])

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

    def concat_rows(self, other: "Table") -> "Table":
        """Stack another table with identical schema below this one."""
        if self.names != other.names:
            raise ValueError("schemas differ; cannot concatenate rows")
        merged = []
        for name in self.names:
            a, b = self.column(name), other.column(name)
            if a.categories != b.categories:
                raise DomainError(f"column {name!r}: domains differ")
            merged.append(a.replaced(np.concatenate([a.codes, b.codes])))
        return Table(merged)

    def sample(self, n: int, rng: np.random.Generator, replace: bool = False) -> "Table":
        """Return ``n`` uniformly sampled rows."""
        indices = rng.choice(len(self), size=n, replace=replace)
        return self.take(indices)

    def map_column(self, name: str, func: Callable[[Any], Any]) -> "Table":
        """Return a table with ``func`` applied to each label of ``name``.

        The resulting column's domain is the image of the original domain
        in first-seen order.
        """
        col = self.column(name)
        mapped_domain = [func(c) for c in col.categories]
        new_categories = list(dict.fromkeys(mapped_domain))
        remap = np.array(
            [new_categories.index(m) for m in mapped_domain], dtype=np.int64
        )
        return self.with_column(
            Column(name, remap[col.codes], tuple(new_categories), col.ordered)
        )

    # -- aggregation ----------------------------------------------------------

    def group_sizes(self, names: Sequence[str]) -> dict[tuple, int]:
        """Return ``{(labels...): row count}`` over the given columns."""
        matrix = self.codes_matrix(names)
        cols = [self.column(n) for n in names]
        sizes: dict[tuple, int] = {}
        uniques, counts = np.unique(matrix, axis=0, return_counts=True)
        for combo, count in zip(uniques, counts):
            key = tuple(col.categories[c] for col, c in zip(cols, combo))
            sizes[key] = int(count)
        return sizes

    def to_rows(self) -> list[dict]:
        """Materialise the table as a list of decoded row dicts."""
        return [self.row(i) for i in range(len(self))]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        schema = ", ".join(
            f"{c.name}[{c.cardinality}]" for c in self
        )
        return f"Table({len(self)} rows: {schema})"
