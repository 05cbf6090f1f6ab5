"""The LEWIS facade: one object, all explanation types.

``Lewis`` wires together the black box, its input-output table, the
background causal diagram, value-order inference, score estimation,
bounds, explanations and recourse behind the API a downstream user works
with:

>>> lew = Lewis(model, data=test_table, feature_names=features, graph=g)
>>> lew.explain_global().ranking("sufficiency")
>>> lew.explain_context({"sex": "Male"})
>>> lew.explain_local(index=7)
>>> lew.recourse(index=7, actionable=["savings", "credit_amount"], alpha=0.9)
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.causal.graph import CausalDiagram
from repro.core.bounds import BoundsEstimator, ScoreBounds
from repro.core.explanations import (
    GlobalExplanation,
    LocalExplanation,
    build_global_explanation,
    build_local_explanation,
    build_local_explanations_batch,
)
from repro.core.ordering import order_table_attributes
from repro.core.recourse import CostFn, Recourse, RecourseSolver, cohort_tally
from repro.core.scores import ScoreEstimator, ScoreTriple
from repro.data.table import Table
from repro.models.pipeline import TableModel
from repro.obs import tracing as _tracing
from repro.utils.lru import ByteBudgetLRU


class Lewis:
    """Post-hoc, model-agnostic explainer for a black-box decision algorithm.

    Parameters
    ----------
    model:
        Either a fitted :class:`~repro.models.pipeline.TableModel` or any
        callable mapping a feature :class:`Table` to an outcome vector.
    data:
        Population to explain over (typically held-out test rows). Only
        the feature columns are used; predictions are recomputed.
    feature_names:
        The algorithm's input attributes. Attributes present in ``data``
        but not listed here still receive scores (indirect influence,
        Remark 3.2) as long as they appear in the diagram or table.
    positive_outcome:
        The favourable decision. For classifiers this is a label of the
        model's outcome domain (default: the largest code). For
        regression black boxes pass ``threshold`` instead and outcomes
        ``>= threshold`` count as positive.
    graph:
        Background causal diagram over the attributes. ``None`` activates
        the no-confounding fallback of Section 6.
    infer_orderings:
        Re-order unordered attribute domains by probing the black box
        (Section 4.1) so "higher code = more favourable" holds everywhere.
    positive_vector:
        Restore hook (see :mod:`repro.store`): the precomputed
        positive-decision vector over ``data``. When given, the black box
        is *not* re-run over the population — a snapshot restore supplies
        the predictions it saved. Must align with ``data`` row for row.
    model_domains:
        Restore hook: the domain layout the black box was trained on,
        keyed by column name. Pass together with the already-reordered
        ``data`` and ``infer_orderings=False`` to rebuild an explainer
        whose favourability ordering was inferred in a previous process.
    """

    def __init__(
        self,
        model: TableModel | Callable[[Table], np.ndarray],
        data: Table,
        feature_names: Sequence[str] | None = None,
        positive_outcome: Any | None = None,
        threshold: float | None = None,
        graph: CausalDiagram | None = None,
        attributes: Sequence[str] | None = None,
        infer_orderings: bool = True,
        seed: int | None = 0,
        *,
        positive_vector: np.ndarray | None = None,
        model_domains: Mapping[str, Sequence[Any]] | None = None,
    ):
        self._model = model
        self.graph = graph
        self.threshold = threshold

        if isinstance(model, TableModel):
            self.feature_names = list(feature_names or model.feature_names)
        else:
            if feature_names is None:
                raise ValueError("feature_names is required for callable models")
            self.feature_names = list(feature_names)

        #: attributes receiving explanations: features plus any extra
        #: columns (e.g. sensitive attributes the algorithm never sees).
        self.attributes = list(attributes) if attributes is not None else [
            n for n in data.names if n in set(self.feature_names) | set(
                graph.nodes if graph is not None else []
            )
        ]
        self._positive_outcome = positive_outcome

        table = data.select(
            [n for n in data.names if n in set(self.attributes) | set(self.feature_names)]
        )
        #: the domain layout the black box was trained on; predictions are
        #: always issued in this space even after favourability reordering.
        if model_domains is not None:
            self._model_domains = {
                name: tuple(domain) for name, domain in model_domains.items()
            }
        else:
            self._model_domains = {name: table.domain(name) for name in table.names}
        if infer_orderings:
            table = order_table_attributes(
                self._raw_predict_positive, table, self.attributes, seed=seed
            )
        if positive_vector is not None:
            positive = np.asarray(positive_vector, dtype=bool)
            if len(positive) != len(table):
                raise ValueError(
                    f"positive_vector has {len(positive)} entries; "
                    f"data has {len(table)} rows"
                )
        else:
            positive = np.asarray(self.predict_positive(table), dtype=bool)
        self.estimator = ScoreEstimator(table, positive, diagram=graph)
        self.bounds_estimator = BoundsEstimator(self.estimator)
        #: cached solvers as ``key -> (table_version, solver)``; a version
        #: mismatch at lookup time drops the entry, so a solver fitted on
        #: pre-update rows can never serve stale logit coefficients even
        #: when the estimator was updated behind this facade's back.
        #: LRU-bounded because ``cost_fn`` keys on object identity — a
        #: caller passing per-request lambdas must not grow it unboundedly.
        self._recourse_solvers: ByteBudgetLRU = ByteBudgetLRU(
            max_bytes=None, max_entries=16
        )

    # -- black-box plumbing ---------------------------------------------------

    def _to_model_space(self, table: Table) -> Table:
        """Translate reordered domains back to the black box's layout.

        Favourability-ordering (Section 4.1) permutes category codes for
        score computation; the model, however, was trained on the
        original layout, so its inputs are always remapped back here.
        """
        out = table
        for name in table.names:
            original = self._model_domains.get(name)
            col = table.column(name)
            if original is not None and col.categories != original:
                out = out.with_column(col.with_order(original))
        return out

    def predict_positive(self, table: Table) -> np.ndarray:
        """Boolean positive-decision vector for ``table``.

        Accepts tables in either the original or the reordered domain
        layout; codes are translated to the model's layout before the
        black box is called.
        """
        with _tracing.span("blackbox_predict", tags={"rows": len(table)}):
            return self._raw_predict_positive(self._to_model_space(table))

    def _raw_predict_positive(self, table: Table) -> np.ndarray:
        """Positive-decision vector, assuming model-space codes."""
        features = table.select(self.feature_names)
        if isinstance(self._model, TableModel):
            if self._model.is_classifier:
                codes = self._model.predict_codes(features)
                return np.isin(codes, self._positive_codes())
            values = self._model.predict_value(features)
            threshold = self.threshold if self.threshold is not None else 0.5
            return values >= threshold
        outcome = np.asarray(self._model(features))
        if outcome.dtype == bool:
            return outcome
        if self.threshold is not None:
            return outcome >= self.threshold
        if self._positive_outcome is not None:
            if isinstance(self._positive_outcome, (set, frozenset, list, tuple)):
                favourable = set(self._positive_outcome)
                return np.fromiter(
                    (o in favourable for o in outcome), dtype=bool, count=len(outcome)
                )
            return outcome == self._positive_outcome
        return outcome.astype(float) >= 0.5

    def _positive_codes(self) -> np.ndarray:
        """Outcome codes counted as the favourable decision.

        The multi-class extension of Section 4.1: ``positive_outcome``
        may be a single label or a *set* of labels (the favourable
        partition ``O >= o``); scores are computed against that partition.
        """
        domain = self._model.outcome_domain_
        if self._positive_outcome is None:
            return np.array([len(domain) - 1])
        if isinstance(self._positive_outcome, (set, frozenset, list, tuple)):
            return np.array([domain.index(o) for o in self._positive_outcome])
        return np.array([domain.index(self._positive_outcome)])

    @property
    def data(self) -> Table:
        """The explained population: the estimator's current feature table."""
        return self.estimator._features

    @property
    def positive(self) -> np.ndarray:
        """Positive-decision vector over :attr:`data`."""
        return self.estimator._positive

    @property
    def positive_rate(self) -> float:
        """Population-level rate of positive decisions."""
        return float(self.positive.mean())

    # -- incremental data updates ------------------------------------------

    @property
    def table_version(self) -> int:
        """Data-version token, bumped by every non-empty :meth:`apply_delta`."""
        return self.estimator.engine.version

    def apply_delta(
        self,
        inserted_rows: Sequence[Mapping[str, Any]] | Table | None = None,
        deleted_rows: Sequence[int] | np.ndarray | None = None,
    ) -> int:
        """Update the explained population in place, without a rebuild.

        ``inserted_rows`` is a feature :class:`Table` in this explainer's
        domain layout (as :meth:`Table.encode_rows` on :attr:`data` makes
        it), or decoded ``{attribute: label}`` mappings, which are
        encoded that way; labels must come from the existing domains — a
        delta can never extend a category set.  ``deleted_rows`` are
        indices into :attr:`data`; deletions apply first, then insertions
        append.

        The black box is invoked only on the inserted rows; cached
        contingency tensors are maintained incrementally via
        :meth:`ContingencyEngine.apply_delta`; recourse solvers and local
        regression models (data-dependent) are dropped for lazy refit.
        Returns the new :attr:`table_version`.
        """
        if inserted_rows is not None and not isinstance(inserted_rows, Table):
            inserted_rows = self.data.encode_rows(inserted_rows)
        n_ins = len(inserted_rows) if inserted_rows is not None else 0
        version = self.estimator.apply_delta(
            inserted_rows if n_ins else None,
            self.predict_positive(inserted_rows) if n_ins else None,
            deleted_rows,
        )
        # Solvers embed data-dependent logit fits and must refit.
        self._recourse_solvers.clear()
        return version

    # -- raw score access ---------------------------------------------------------

    def _codes(self, labels: Mapping[str, Any] | None) -> dict[str, int]:
        """``{attribute: label}`` in :attr:`data`'s codes (``None`` reads as ``{}``)."""
        return {
            name: self.data.column(name).code_of(value)
            for name, value in (labels or {}).items()
        }

    def score(
        self,
        attribute: str,
        value: Any,
        baseline: Any,
        context: Mapping[str, Any] | None = None,
    ) -> ScoreTriple:
        """NEC/SUF/NESUF for one labelled contrast ``value`` vs ``baseline``."""
        return self.estimator.scores(
            self._codes({attribute: value}),
            self._codes({attribute: baseline}),
            self._codes(context),
        )

    def interventional_probability(
        self,
        do: Mapping[str, Any],
        context: Mapping[str, Any] | None = None,
        positive: bool = True,
    ) -> float:
        """``Pr(O = o | do(X <- x), k)`` — the do-operator of Section 2.

        Example 2.1's query "probability of loan approval had all
        applicants selected a 24-month repayment duration" becomes
        ``lewis.interventional_probability({"month": "12-24 months"})``.
        Identified via the backdoor criterion when a diagram is present,
        estimated as the plain conditional otherwise.
        """
        treatment = self._codes(do)
        context_codes = self._codes(context)
        estimator = self.estimator
        adjustment = estimator._adjustment_for(
            list(treatment), list(context_codes)
        )
        return float(
            estimator.engine.adjusted_probabilities(
                {estimator._outcome: 1 if positive else 0},
                [treatment],
                adjustment,
                context=context_codes,
            )[0]
        )

    def scores_batch(
        self,
        contrasts: Sequence[tuple[Mapping[str, Any], Mapping[str, Any]]],
        context: Mapping[str, Any] | None = None,
    ) -> list[ScoreTriple]:
        """Batched labelled scores for many ``(values, baselines)`` contrasts.

        Each contrast is a pair of ``{attribute: label}`` mappings (as
        accepted by :meth:`score_set`); all contrasts share one
        ``context``.  The whole batch is evaluated in a few vectorized
        passes over the contingency engine — the fast path behind
        :meth:`explain_global` — and results align with the input order.
        """
        encoded = [
            (self._codes(values), self._codes(baselines))
            for values, baselines in contrasts
        ]
        return self.estimator.scores_batch(encoded, self._codes(context))

    def score_set(
        self,
        values: Mapping[str, Any],
        baselines: Mapping[str, Any],
        context: Mapping[str, Any] | None = None,
    ) -> ScoreTriple:
        """Scores for a joint contrast over a *set* of attributes.

        Definition 3.1 is stated for attribute sets; this is the labelled
        convenience over :meth:`ScoreEstimator.scores` — e.g.
        ``score_set({"savings": ">1000 DM", "status": ">200 DM"},
        {"savings": "<100 DM", "status": "<0 DM"})``.
        """
        return self.estimator.scores(
            self._codes(values), self._codes(baselines), self._codes(context)
        )

    def score_bounds(
        self,
        attribute: str,
        value: Any,
        baseline: Any,
        context: Mapping[str, Any] | None = None,
    ) -> ScoreBounds:
        """Proposition 4.1 bounds for one labelled contrast."""
        return self.bounds_estimator.bounds(
            self._codes({attribute: value}),
            self._codes({attribute: baseline}),
            self._codes(context),
        )

    def score_intervals(
        self,
        attribute: str,
        value: Any,
        baseline: Any,
        context: Mapping[str, Any] | None = None,
        n_bootstrap: int = 50,
        level: float = 0.9,
        seed: int | None = 0,
    ) -> dict:
        """Bootstrap confidence intervals for one labelled contrast.

        Returns ``{score name: ScoreInterval}``; see
        :class:`repro.core.uncertainty.BootstrapScores`.
        """
        from repro.core.uncertainty import BootstrapScores

        boot = BootstrapScores(
            self.data,
            self.positive,
            diagram=self.graph,
            n_bootstrap=n_bootstrap,
            seed=seed,
        )
        return boot.intervals(
            self._codes({attribute: value}),
            self._codes({attribute: baseline}),
            self._codes(context),
            level=level,
        )

    # -- explanations -----------------------------------------------------------

    def explain_global(
        self,
        attributes: Sequence[str] | None = None,
        max_pairs_per_attribute: int | None = 8,
    ) -> GlobalExplanation:
        """Population-level explanation (context ``K = ∅``)."""
        return build_global_explanation(
            self.estimator,
            list(attributes or self.attributes),
            context=None,
            max_pairs_per_attribute=max_pairs_per_attribute,
        )

    def explain_context(
        self,
        context: Mapping[str, Any],
        attributes: Sequence[str] | None = None,
        max_pairs_per_attribute: int | None = 8,
    ) -> GlobalExplanation:
        """Sub-population explanation for a user-defined context ``k``."""
        if not context:
            raise ValueError("context must not be empty; use explain_global")
        return build_global_explanation(
            self.estimator,
            list(attributes or self.attributes),
            context=self._codes(context),
            context_labels=dict(context),
            max_pairs_per_attribute=max_pairs_per_attribute,
        )

    def explain_local(
        self,
        index: int | None = None,
        individual: Mapping[str, Any] | None = None,
        attributes: Sequence[str] | None = None,
    ) -> LocalExplanation:
        """Individual-level explanation (context ``K = V``).

        Pass either a row ``index`` into :attr:`data` or a decoded
        ``individual`` mapping that names exactly the columns of
        :attr:`data`; a missing or unknown name raises ``ValueError``.
        The explanation echoes the individual in :attr:`data`'s column
        order, so an ``individual`` and the ``index`` of a row holding
        the same values get the same answer.
        """
        if (index is None) == (individual is None):
            raise ValueError("pass exactly one of index / individual")
        if index is not None:
            single = self.data.take(np.array([int(index)]))
            outcome_positive = bool(self.positive[int(index)])
        else:
            missing = [name for name in self.data.names if name not in individual]
            unknown = [name for name in individual if name not in self.data]
            if missing or unknown:
                raise ValueError(
                    f"individual must name exactly the data's columns: "
                    f"missing {missing}, unknown {unknown}"
                )
            single = Table(
                col.replaced(np.array([col.code_of(individual[col.name])]))
                for col in self.data
            )
            outcome_positive = bool(self.predict_positive(single)[0])
        return build_local_explanation(
            self.estimator,
            single,
            outcome_positive,
            list(attributes or self.attributes),
        )

    def explain_local_batch(
        self,
        indices: Sequence[int],
        attributes: Sequence[str] | None = None,
    ) -> list[LocalExplanation]:
        """Local explanations for a cohort of rows in a few matrix passes.

        Equivalent to ``[self.explain_local(index=i) for i in indices]``
        but the whole cohort's regression probes are deduplicated and
        answered in one pass per attribute group (see
        :meth:`ScoreEstimator.local_score_arrays`).
        """
        indices = np.array([int(i) for i in indices], dtype=np.int64)
        return build_local_explanations_batch(
            self.estimator,
            self.data.take(indices),
            self.positive[indices],
            list(attributes or self.attributes),
        )

    # -- recourse ---------------------------------------------------------------

    def _recourse_solver(
        self, actionable: Sequence[str], cost_fn: CostFn | None
    ) -> RecourseSolver:
        """The cached solver for ``(actionable, cost_fn)`` at the current data version.

        Solvers embed a fitted :class:`~repro.estimation.logit.LogitModel`
        (and memoised IP solutions), all functions of the table contents;
        an entry built against a superseded :attr:`table_version` is
        discarded and refit so recourse after :meth:`apply_delta` always
        reflects the updated rows.  Every spelling of one actionable set
        shares the entry, whose solver keeps the set in :attr:`data`'s
        column order; the key keeps a repeated name, which the solver
        refuses.
        """
        key = (tuple(sorted(actionable)), cost_fn)
        version = self.table_version
        entry = self._recourse_solvers.get(key)
        if entry is None or entry[0] != version:
            solver = RecourseSolver(self.estimator, list(actionable), cost_fn)
            self._recourse_solvers.put(key, (version, solver), size=1)
            return solver
        return entry[1]

    def solver_stats(self) -> dict:
        """Aggregated :meth:`RecourseSolver.solution_memo_stats` over live solvers.

        The per-session solver gauges the metrics registry exports; zero
        counters when no solver has been instantiated yet.
        """
        totals: dict[str, float] = {"solvers": 0}
        for key in list(self._recourse_solvers):
            try:
                _version, solver = self._recourse_solvers[key]
            except KeyError:  # evicted mid-iteration
                continue
            totals["solvers"] += 1
            for name, value in solver.solution_memo_stats().items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def recourse(
        self,
        index: int,
        actionable: Sequence[str],
        alpha: float = 0.8,
        cost_fn: CostFn | None = None,
        mode: str = "exact",
    ) -> Recourse:
        """Minimal-cost recourse for the individual at ``index``.

        ``mode="anytime"`` trades exactness for latency: the answer is a
        greedy LP rounding carrying a certified ``optimality_gap``.
        """
        return self.recourse_batch(
            [index], actionable, alpha=alpha, cost_fn=cost_fn, mode=mode
        )[0]

    def recourse_batch(
        self,
        indices: Sequence[int],
        actionable: Sequence[str],
        alpha: float = 0.8,
        cost_fn: CostFn | None = None,
        on_infeasible: str = "raise",
        mode: str = "exact",
    ) -> list[Recourse | None]:
        """Minimal-cost recourse for a cohort of individuals.

        Routes the rows, as one table, through
        :meth:`RecourseSolver.solve_batch`: one logit pass for the base
        probabilities and one signature solve per *distinct* ``(current
        codes, context)`` signature.
        ``mode="anytime"`` returns greedy solutions with certified gaps.
        With ``on_infeasible="none"`` infeasible rows yield ``None``
        instead of aborting the batch; otherwise the raised
        :class:`RecourseInfeasibleError` names the first infeasible row
        by its index into :attr:`data`.
        """
        solver = self._recourse_solver(actionable, cost_fn)
        indices = [int(i) for i in indices]
        return solver.solve_batch(
            self.data.take(indices),
            alpha=alpha,
            on_infeasible=on_infeasible,
            mode=mode,
            row_ids=indices,
        )

    def recourse_audit(
        self,
        actionable: Sequence[str],
        alpha: float = 0.8,
        indices: Sequence[int] | None = None,
        cost_fn: CostFn | None = None,
        mode: str = "exact",
    ) -> dict:
        """Cohort recourse audit: who can reach a positive decision, and how.

        Runs :meth:`recourse_batch` over ``indices`` (default: every
        individual with the negative decision) and aggregates the
        answers — feasibility counts, cost statistics over feasible
        recourses, and how often each actionable attribute appears in a
        recommended intervention.  ``mode`` passes through to the
        solver.  The summary depends only on the model, the table state
        and the arguments — the solver's cumulative counters, which also
        reflect earlier requests, are read from :meth:`solver_stats`.
        The JSON-friendly summary backs the ``/v1/recourse/batch``
        service endpoint and the CLI cohort mode.
        """
        chosen = [
            int(i) for i in (self.negative_indices() if indices is None else indices)
        ]
        recourses = self.recourse_batch(
            chosen, actionable, alpha=alpha, cost_fn=cost_fn,
            on_infeasible="none", mode=mode,
        )
        return {
            "n": len(chosen),
            "indices": chosen,
            "alpha": float(alpha),
            "mode": mode,
            **cohort_tally(recourses),
            "recourses": recourses,
        }

    def negative_indices(self) -> np.ndarray:
        """Row indices of individuals with the negative decision."""
        return np.nonzero(~self.positive)[0]

    def positive_indices(self) -> np.ndarray:
        """Row indices of individuals with the positive decision."""
        return np.nonzero(self.positive)[0]
