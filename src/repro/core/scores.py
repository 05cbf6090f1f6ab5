"""Point estimation of the LEWIS explanation scores (Proposition 4.2).

Given the black box's input-output table, a causal diagram, and the
monotonicity assumption, the three scores of Definition 3.1 reduce to
observational quantities:

    NEC_x(k)   = [ sum_c Pr(o'|c,x',k) Pr(c|x,k)  - Pr(o'|x,k) ] / Pr(o|x,k)
    SUF_x(k)   = [ sum_c Pr(o|c,x,k)  Pr(c|x',k)  - Pr(o|x',k) ] / Pr(o'|x',k)
    NESUF_x(k) = sum_c ( Pr(o|x,k,c) - Pr(o|x',c,k) ) Pr(c|k)

where ``C ∪ K`` satisfies the backdoor criterion relative to ``X`` and
the algorithm inputs.  When no diagram is supplied LEWIS falls back to
the no-confounding estimators of Section 6 (``C = ∅``).

Two estimation backends are provided:

* ``frequency`` — empirical frequencies and backdoor-adjustment sums
  read from the :class:`~repro.estimation.engine.ContingencyEngine`'s
  count tensors, many contrasts per vectorized pass; used for global and
  contextual scores where conditioning events have support.
* ``regression`` — a per-attribute logistic model of
  ``Pr(o | X, nondesc(X))``; used for local scores where the context is
  an individual's full non-descendant assignment (Section 5.2's
  "regressing over test data predictions").  It is fitted from the
  engine's non-empty (feature cell, outcome) counts
  (:meth:`ScoreEstimator.outcome_cells`), so it is a function of the
  counts alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.causal.graph import CausalDiagram
from repro.causal.identification import BackdoorAdjustment
from repro.data.table import Column, Table, unique_rows
from repro.estimation.engine import ContingencyEngine
from repro.estimation.outcome_model import OutcomeProbabilityModel
from repro.utils.lru import ByteBudgetLRU

SCORE_KINDS = ("necessity", "sufficiency", "necessity_sufficiency")

#: default bound on cached per-feature-tuple local regression models; a
#: long-lived tenant probing many attribute subsets refits cold tuples
#: instead of growing without limit.
DEFAULT_MAX_LOCAL_MODELS = 64


@dataclass(frozen=True)
class LocalScoreArrays:
    """Cohort-wide local scores of one attribute vs each alternative value.

    For row ``i`` with current code ``c = current[i]`` and any code
    ``v != c``, entry ``[i, v]`` of each score array holds the local
    score of the ordered contrast ``(max(v, c), min(v, c))`` in the
    row's non-descendant context (entries at ``v == c`` are 0).
    ``probabilities[i, v]`` is the regression backend's
    ``Pr(o | attribute = v, K = k_i)`` — the probe values every score
    derives from.
    """

    attribute: str
    current: np.ndarray
    probabilities: np.ndarray
    necessity: np.ndarray
    sufficiency: np.ndarray
    necessity_sufficiency: np.ndarray

    @property
    def cardinality(self) -> int:
        """Domain size of the attribute."""
        return self.probabilities.shape[1]


@dataclass(frozen=True)
class ScoreTriple:
    """The three explanation scores for one (attribute(s), x, x', k)."""

    necessity: float
    sufficiency: float
    necessity_sufficiency: float

    def as_dict(self) -> dict[str, float]:
        """Return the scores keyed by their full names."""
        return {
            "necessity": self.necessity,
            "sufficiency": self.sufficiency,
            "necessity_sufficiency": self.necessity_sufficiency,
        }


class ScoreEstimator:
    """Estimates NEC / SUF / NESUF from a black box's input-output table.

    Parameters
    ----------
    table:
        Feature columns of the population being explained.
    positive:
        Boolean vector — the black box made the positive decision ``o``.
    diagram:
        Optional causal diagram over the feature attributes. Without it
        the no-confounding estimators are used.
    outcome_name:
        Name for the internal binary outcome column (must not clash with
        a feature name).
    """

    def __init__(
        self,
        table: Table,
        positive: np.ndarray,
        diagram: CausalDiagram | None = None,
        outcome_name: str = "__outcome__",
        max_local_models: int | None = DEFAULT_MAX_LOCAL_MODELS,
    ):
        positive = np.asarray(positive, dtype=bool)
        if len(positive) != len(table):
            raise ValueError("positive vector length must match the table")
        if outcome_name in table:
            raise ValueError(f"{outcome_name!r} clashes with a feature column")
        self._features = table
        self._outcome = outcome_name
        outcome_col = Column.from_codes(
            outcome_name, positive.astype(np.int64), (False, True)
        )
        self._table = table.with_column(outcome_col)
        self._engine = ContingencyEngine(self._table)
        self._diagram = diagram
        self._adjuster: BackdoorAdjustment | None = None
        if diagram is not None:
            inputs = [n for n in table.names if n in diagram]
            extended = diagram.with_outcome(outcome_name, inputs)
            self._adjuster = BackdoorAdjustment(extended, outcome_name)
        self._positive = positive
        # Per-feature-tuple regression models, LRU-bounded so long-lived
        # tenants probing many attribute subsets don't grow unboundedly;
        # stats() mirrors the engine tensor cache's shape.
        self._local_models: ByteBudgetLRU = ByteBudgetLRU(
            max_bytes=None, max_entries=max_local_models
        )

    # -- shared plumbing ---------------------------------------------------

    @property
    def table(self) -> Table:
        """Features plus the binary outcome column."""
        return self._table

    @property
    def engine(self) -> ContingencyEngine:
        """The vectorized contingency engine backing all frequency queries."""
        return self._engine

    @property
    def diagram(self) -> CausalDiagram | None:
        """The background causal diagram, if any."""
        return self._diagram

    def apply_delta(
        self,
        inserted_features: Table | None = None,
        inserted_positive: np.ndarray | None = None,
        deleted_rows: Sequence[int] | np.ndarray | None = None,
    ) -> int:
        """Fold a row delta into the estimator's table and engine state.

        ``inserted_features`` is a feature-schema :class:`Table` slice and
        ``inserted_positive`` the black box's positive-decision vector for
        those rows (the caller runs the model; this layer never predicts).
        ``deleted_rows`` are indices into the current population.
        Deletions apply first, then insertions append.  The contingency
        engine is maintained incrementally, and the feature table and
        positive vector are re-read from its post-delta table (they are
        what ``Lewis.data`` and ``Lewis.positive`` return); the
        per-attribute local regression models are dropped and refit on
        next use from the post-delta table's cells.  Returns the new data
        version.
        """
        n_ins = len(inserted_features) if inserted_features is not None else 0
        if n_ins:
            if inserted_positive is None or len(inserted_positive) != n_ins:
                raise ValueError(
                    "inserted_positive must align with inserted_features"
                )
            outcome = Column.from_codes(
                self._outcome,
                np.asarray(inserted_positive, dtype=bool).astype(np.int64),
                (False, True),
            )
            inserted_full = inserted_features.with_column(outcome)
        else:
            inserted_full = None
        version = self._engine.apply_delta(inserted_full, deleted_rows)
        self._table = self._engine.table
        self._features = self._table.drop([self._outcome])
        self._positive = self._table.codes(self._outcome).astype(bool)
        self._local_models.clear()
        return version

    def positive_rate(self, conditions: Mapping[str, int] | None = None) -> float:
        """``Pr(o | conditions)`` over the population (0 without support)."""
        return float(
            self._engine.probabilities(
                [{self._outcome: 1}], [dict(conditions or {})], default=0.0
            )[0]
        )

    def _adjustment_for(
        self, treatment: Sequence[str], context: Sequence[str]
    ) -> list[str]:
        """Adjustment set C for Prop 4.2, empty under no-confounding."""
        if self._adjuster is None:
            return []
        known = [t for t in treatment if t in self._adjuster.diagram.nodes]
        if len(known) != len(treatment):
            return []
        found = self._adjuster.adjustment_set(
            known, [c for c in context if c in self._adjuster.diagram.nodes]
        )
        return found or []

    # -- frequency-backend scores (global / contextual) ------------------------

    def necessity(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
    ) -> float:
        """``NEC^{x'}_x(k)`` point estimate, Eq. (19).

        ``treatment`` holds the factual codes ``x`` and ``baseline`` the
        counterfactual codes ``x'`` (same keys).  Like the other
        single-contrast methods, this is the ``N = 1`` case of
        :meth:`score_arrays`.
        """
        return self._score("necessity", treatment, baseline, context)

    def sufficiency(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
    ) -> float:
        """``SUF^{x'}_x(k)`` point estimate, Eq. (20)."""
        return self._score("sufficiency", treatment, baseline, context)

    def necessity_sufficiency(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
    ) -> float:
        """``NESUF^{x'}_x(k)`` point estimate, Eq. (21)."""
        return self._score("necessity_sufficiency", treatment, baseline, context)

    def scores(
        self,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None = None,
    ) -> ScoreTriple:
        """All three scores for one contrast in one call."""
        return self.scores_batch([(treatment, baseline)], context)[0]

    def _score(
        self,
        kind: str,
        treatment: Mapping[str, int],
        baseline: Mapping[str, int],
        context: Mapping[str, int] | None,
    ) -> float:
        arrays = self.score_arrays([(treatment, baseline)], context, kinds=(kind,))
        return float(arrays[kind][0])

    # -- batched frequency-backend scores ---------------------------------------

    def score_arrays(
        self,
        contrasts: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
        context: Mapping[str, int] | None = None,
        kinds: Sequence[str] = SCORE_KINDS,
    ) -> dict[str, np.ndarray]:
        """Batched scores as ``{kind: array}`` over many contrasts.

        ``contrasts`` is a sequence of ``(treatment, baseline)`` code
        mappings sharing one ``context``.  Contrasts are grouped by their
        treatment attribute set (one backdoor lookup per group) and each
        group's probabilities — plain conditionals and adjustment sums —
        are evaluated in single vectorized engine passes, so N contrasts
        cost a handful of tensor lookups.
        ``kinds`` restricts which of the three scores are computed; the
        result arrays align with the input order.
        """
        kinds = tuple(kinds)
        for kind in kinds:
            if kind not in SCORE_KINDS:
                raise ValueError(
                    f"unknown score kind {kind!r}; options: {SCORE_KINDS}"
                )
        context = dict(context or {})
        pairs = [(dict(t), dict(b)) for t, b in contrasts]
        for treatment, baseline in pairs:
            self._check_pair(treatment, baseline)
        out = {kind: np.zeros(len(pairs)) for kind in kinds}
        if not pairs:
            return out
        engine = self.engine
        event_pos = {self._outcome: 1}
        event_neg = {self._outcome: 0}
        groups: dict[tuple[str, ...], list[int]] = {}
        for i, (treatment, _baseline) in enumerate(pairs):
            groups.setdefault(tuple(sorted(treatment)), []).append(i)
        for signature, indices in groups.items():
            adjustment = self._adjustment_for(list(signature), list(context))
            treatments = [pairs[i][0] for i in indices]
            baselines = [pairs[i][1] for i in indices]
            givens_t = [{**t, **context} for t in treatments]
            givens_b = [{**b, **context} for b in baselines]
            rows = np.asarray(indices)
            if "necessity" in kinds:
                denom = engine.probabilities(
                    [event_pos] * len(rows), givens_t, default=0.0
                )
                plain = engine.probabilities(
                    [event_neg] * len(rows), givens_t, default=0.0
                )
                live = denom > 0
                if live.any():
                    keep = np.nonzero(live)[0]
                    mixed = engine.adjusted_probabilities(
                        event_neg,
                        [baselines[j] for j in keep],
                        adjustment,
                        weight_conditions=[treatments[j] for j in keep],
                        context=context,
                    )
                    out["necessity"][rows[keep]] = np.clip(
                        (mixed - plain[keep]) / denom[keep], 0.0, 1.0
                    )
            if "sufficiency" in kinds:
                denom = engine.probabilities(
                    [event_neg] * len(rows), givens_b, default=0.0
                )
                plain = engine.probabilities(
                    [event_pos] * len(rows), givens_b, default=0.0
                )
                live = denom > 0
                if live.any():
                    keep = np.nonzero(live)[0]
                    mixed = engine.adjusted_probabilities(
                        event_pos,
                        [treatments[j] for j in keep],
                        adjustment,
                        weight_conditions=[baselines[j] for j in keep],
                        context=context,
                    )
                    out["sufficiency"][rows[keep]] = np.clip(
                        (mixed - plain[keep]) / denom[keep], 0.0, 1.0
                    )
            if "necessity_sufficiency" in kinds:
                high = engine.adjusted_probabilities(
                    event_pos, treatments, adjustment, context=context
                )
                low = engine.adjusted_probabilities(
                    event_pos, baselines, adjustment, context=context
                )
                out["necessity_sufficiency"][rows] = np.clip(
                    high - low, 0.0, 1.0
                )
        return out

    def scores_batch(
        self,
        contrasts: Sequence[tuple[Mapping[str, int], Mapping[str, int]]],
        context: Mapping[str, int] | None = None,
    ) -> list[ScoreTriple]:
        """All three scores for many ``(treatment, baseline)`` contrasts at once.

        Computed in a handful of vectorized passes over the engine's
        count tensors.  Each contrast's triple is independent of the rest
        of the batch: it equals ``self.scores(t, b, context)`` bit for bit.
        """
        arrays = self.score_arrays(contrasts, context)
        return [
            ScoreTriple(
                necessity=float(arrays["necessity"][i]),
                sufficiency=float(arrays["sufficiency"][i]),
                necessity_sufficiency=float(arrays["necessity_sufficiency"][i]),
            )
            for i in range(len(arrays["necessity"]))
        ]

    @staticmethod
    def _check_pair(treatment: Mapping[str, int], baseline: Mapping[str, int]) -> None:
        if set(treatment) != set(baseline):
            raise ValueError(
                "treatment and baseline must assign the same attributes"
            )
        if not treatment:
            raise ValueError("empty treatment")
        if all(treatment[k] == baseline[k] for k in treatment):
            raise ValueError("treatment and baseline are identical")

    # -- regression backend (local scores) ---------------------------------------

    def outcome_cells(
        self, features: Sequence[str]
    ) -> tuple[Table, np.ndarray, np.ndarray]:
        """The non-empty cells over ``features`` with their decision counts.

        Returns ``(cells, totals, positives)``: one row of ``cells`` per
        feature-code combination that occurs in the population
        (lexicographic code order, the feature columns' domains), the
        number of rows in it, and how many of those got the positive
        decision.  These counts are all a one-hot logistic regression of
        the decision reads, so the local and recourse models fit from
        them; they come from the engine's cells over ``features`` plus
        the outcome column.
        """
        features = list(features)
        codes, counts = self._engine.cells(features + [self._outcome])
        k = len(features)
        # The outcome is the last, fastest-varying column: a feature cell's
        # (o', o) entries are adjacent.
        first = np.ones(len(codes), dtype=bool)
        first[1:] = (codes[1:, :k] != codes[:-1, :k]).any(axis=1)
        starts = np.flatnonzero(first)
        cells = Table(
            self._features.column(name).replaced(codes[starts, j])
            for j, name in enumerate(features)
        )
        return (
            cells,
            np.add.reduceat(counts, starts),
            np.add.reduceat(counts * codes[:, k], starts),
        )

    def _local_model(self, features: tuple[str, ...]) -> OutcomeProbabilityModel:
        model = self._local_models.get(features)
        if model is None:
            from repro.obs import metrics as _obs

            fit_started = time.perf_counter()
            model = OutcomeProbabilityModel(list(features))
            model.fit(*self.outcome_cells(features))
            _obs.get_registry().histogram(
                "repro_local_model_fit_seconds",
                "Wall time to fit one per-feature-tuple regression model.",
            ).observe(time.perf_counter() - fit_started)
            self._local_models.put(features, model, size=1)
        return model

    def local_model_cache_stats(self):
        """Local-model cache counters as the unified ``CacheStats`` schema.

        Operators size ``max_local_models`` from its observed hit rate.
        """
        return self._local_models.stats_struct("local_model")

    # -- batched regression backend (cohort local scores) -------------------------

    def _local_keep_names(self, attribute: str) -> list[str]:
        """Sorted non-descendant attribute names of ``attribute``.

        With a diagram, descendants of the attribute respond to the
        intervention and are excluded from the context; without one, all
        other attributes are used (the no-confounding reading).  It
        depends only on the diagram, so the cohort path computes it once
        per attribute instead of once per row.
        """
        names = set(self._features.names)
        if self._diagram is not None and attribute in self._diagram:
            keep = self._diagram.non_descendants(attribute) & names
        else:
            keep = names - {attribute}
        return sorted(keep)

    def _probe_probabilities(
        self,
        model: OutcomeProbabilityModel,
        context_matrix: np.ndarray,
        context_cards: Sequence[int],
        card: int,
    ) -> np.ndarray:
        """``Pr(o | X = v, K = k_i)`` for every row and value, deduplicated.

        ``context_matrix`` holds each row's context codes in the model's
        feature order (sans the attribute itself).  Contexts are
        deduplicated with :func:`~repro.data.table.unique_rows` before
        probing — categorical cohorts collide heavily.  Returns an
        ``(n, card)`` probability matrix.
        """
        unique_contexts, _, inverse = unique_rows(
            context_matrix.T, context_cards, return_inverse=True
        )
        u, width = unique_contexts.shape
        probes = np.empty((u * card, 1 + width), dtype=np.int64)
        probes[:, 0] = np.tile(np.arange(card, dtype=np.int64), u)
        probes[:, 1:] = np.repeat(unique_contexts, card, axis=0)
        answers = model.probability_codes_batch(probes).reshape(u, card)
        return answers[inverse]

    def local_score_arrays(
        self,
        cohort: Table,
        attributes: Sequence[str] | None = None,
    ) -> dict[str, LocalScoreArrays]:
        """Cohort-scale local scores: one matrix pass per attribute group.

        ``cohort`` holds the individuals to explain, one row each, in
        this estimator's domains (e.g. ``Lewis.data.take(indices)``); a
        cohort without a column the scores read raises ``KeyError``.
        For each attribute the context is its non-descendant features,
        the per-attribute regression is fitted once (cached), and every
        ``(value, context)`` probe is assembled into one integer matrix,
        *deduplicated* (categorical contexts collide heavily across a
        cohort), and answered in a single
        :meth:`OutcomeProbabilityModel.probability_codes_batch` pass.
        NEC / SUF / NESUF against each row's current value are then pure
        array arithmetic under no-confounding (Section 6): conditioning
        on all non-descendants of the attribute includes all of its
        observed parents, so those formulas are causally valid here.
        """
        names = (
            list(attributes)
            if attributes is not None
            else list(self._features.names)
        )
        out: dict[str, LocalScoreArrays] = {}
        n = len(cohort)
        for attribute in names:
            card = self._features.column(attribute).cardinality
            current = cohort.codes(attribute)
            context_names = self._local_keep_names(attribute)
            model = self._local_model((attribute, *context_names))
            context_matrix = cohort.codes_matrix(context_names)
            context_cards = [
                self._features.column(nm).cardinality for nm in context_names
            ]
            probabilities = self._probe_probabilities(
                model, context_matrix, context_cards, card
            )
            values = np.arange(card, dtype=np.int64)
            p_cur = probabilities[np.arange(n), current][:, None]
            raising = values[None, :] > current[:, None]
            p_hi = np.where(raising, probabilities, p_cur)
            p_lo = np.where(raising, p_cur, probabilities)
            with np.errstate(divide="ignore", invalid="ignore"):
                necessity = np.where(
                    p_hi > 0,
                    (1.0 - p_lo - (1.0 - p_hi)) / np.where(p_hi > 0, p_hi, 1.0),
                    0.0,
                )
                sufficiency = np.where(
                    p_lo < 1,
                    (p_hi - p_lo) / np.where(p_lo < 1, 1.0 - p_lo, 1.0),
                    0.0,
                )
            same = values[None, :] == current[:, None]
            necessity = np.where(same, 0.0, np.clip(necessity, 0.0, 1.0))
            sufficiency = np.where(same, 0.0, np.clip(sufficiency, 0.0, 1.0))
            nesuf = np.where(same, 0.0, np.clip(p_hi - p_lo, 0.0, 1.0))
            out[attribute] = LocalScoreArrays(
                attribute=attribute,
                current=current,
                probabilities=probabilities,
                necessity=necessity,
                sufficiency=sufficiency,
                necessity_sufficiency=nesuf,
            )
        return out
