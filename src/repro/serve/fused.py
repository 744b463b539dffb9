"""The fused compile→encode→predict serving hot path.

The ordinary miss path re-does per-request work that is invariant
across most production traffic: every micro-batch walks each query's
AST (compile), encodes per query, and — for gradient boosting — loops
python-level over every tree (predict).  :class:`FusedEstimatePath`
removes all three taxes for estimators that support it:

1. **prepare** — each statement is keyed by its *shape*
   (:func:`repro.featurize.batch.query_shape`: boolean structure with
   numeric literals masked) and resolves a
   :class:`~repro.featurize.batch.CompiledPlan` from the shape-keyed
   :class:`~repro.serve.cache.PlanCache`, one probe per request
   (:meth:`FusedEstimatePath.prepare_many`); only a never-seen shape
   pays an AST compile.  This is also where a statement is validated,
   so the serving layer prepares in the request thread and only
   validated :class:`PreparedStatement` items reach the execute stage.
   Preparing does no numpy work: a prepared statement carries its
   literals as given plus an index array into them.
2. **encode** — the whole batch, however many distinct shapes it
   mixes, is stamped out in one plan-stitching pass
   (:meth:`~repro.featurize.base.Featurizer.encode_with_plans`:
   concatenate the plans' predicate columns, gather every literal of
   the batch into place with one ``np.fromiter`` and one fancy index)
   and encoded in a single vectorized call.  No per-shape encode, no
   per-query anything — stitching is what lets plan caching win on
   shape-diverse traffic, where one encode call per shape group would
   cost more than the compile pass it saves.
3. **predict** — the matrix goes through the estimator's
   ``estimate_features`` in a single call, which for gradient boosting
   runs the packed :class:`~repro.models.compiled_forest.CompiledForest`
   (level-synchronous traversal, no per-tree loop).

Encode and predict emit spans (``serve.fused.encode`` /
``.predict``), and the whole path is bitwise-identical to
``estimator.estimate_batch`` on the same queries — the equivalence
suite and ``repro bench serve`` both assert it.

A statement reaches the execute stage (:meth:`estimate_planned`) by
one of two legs.  The **bound leg** prepares a parsed query: its
literals are the walk-order vector of ``query_shape`` and its index
the plan's ``perm``.  The **SQL-direct planned leg** skips the AST: a
statement template the parse cache has already seen is shape-compiled
once into a :class:`PlannedStatement` (shape key + an index from the
plan's compile slots straight into the fingerprint literals), and each
instance carries its fingerprint literal tuple untouched
(:meth:`prepare_planned`).  The planned leg is available only for
featurizers whose encode stage ignores ``batch.exprs``
(:attr:`~repro.featurize.base.Featurizer.encode_uses_exprs` is
``False``), because it has no per-query expressions to give it.

The path is *conditional*: :meth:`FusedEstimatePath.try_build` returns
``None`` (bypass, legacy path) for estimators whose featurizer is not a
single-table :class:`~repro.featurize.base.Featurizer` — join
compositions, the global model, and MSCN keep their existing
``estimate_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.estimators.base import CardinalityEstimator
from repro.featurize.base import Featurizer
from repro.featurize.batch import CompiledPlan, query_shape
from repro.serve.cache import PlanCache
from repro.sql.ast import BoolExpr, Query

__all__ = ["FusedEstimatePath", "PlannedStatement", "PreparedStatement"]


@dataclass(frozen=True)
class PlannedStatement:
    """Shape-compiled form of a cached statement template.

    Produced once per statement by
    :meth:`FusedEstimatePath.plan_statement` and held in the serve
    layer's parse cache next to the re-bindable AST template.  An
    instance of the statement then rides the SQL-direct leg: its
    fingerprint literals go straight into the stitched encode, gathered
    through :attr:`perm`, without a bound AST ever existing.
    """

    #: The statement's shape key — equal to every instance's key, since
    #: :func:`~repro.featurize.batch.query_shape` masks literal values.
    shape_key: tuple
    #: Gather index: compile slot of the shape's plan -> fingerprint
    #: (textual) literal index of the statement.
    perm: np.ndarray
    #: The template's validated WHERE expression; recompiles the plan
    #: if the plan cache has meanwhile evicted the shape.
    expr: BoolExpr | None


class PreparedStatement(NamedTuple):
    """One validated statement instance, ready for the execute stage."""

    #: The statement's resolved shape plan.
    plan: CompiledPlan
    #: The instance's literals as given: the fingerprint tuple on the
    #: planned leg, the walk-order vector on the bound leg.
    literals: Sequence[float]
    #: Compile slot of ``plan`` -> position in :attr:`literals`.
    index: np.ndarray
    #: The bound WHERE expression (``None`` on the planned leg, whose
    #: encode ignores it).
    expr: BoolExpr | None


class FusedEstimatePath:
    """Shape-plan-cached batch estimation for a compiled estimator.

    Build via :meth:`try_build`.  :meth:`estimate_batch` stands in for
    ``estimator.estimate_batch``; the serving layer instead prepares
    each request's statements itself (:meth:`prepare_many`) and hands
    the prepared batch to :meth:`estimate_planned`.  Thread safety
    matches the underlying pieces: the plan cache is locked, encode and
    predict are pure, so concurrent calls are safe.
    """

    def __init__(self, estimator: CardinalityEstimator,
                 featurizer: Featurizer, plan_cache: PlanCache) -> None:
        self._estimator = estimator
        self._featurizer = featurizer
        self._plan_cache = plan_cache

    @classmethod
    def try_build(cls, estimator: CardinalityEstimator,
                  plan_cache: PlanCache) -> "FusedEstimatePath | None":
        """Build the fused path for ``estimator``, or ``None`` to bypass.

        Requirements: the estimator exposes a single-table
        :class:`~repro.featurize.base.Featurizer` (shape plans are
        defined on its compile stage) plus the fused entry points
        ``estimate_features`` and ``compile``.  When eligible, the
        estimator's model is compiled eagerly here so the first request
        doesn't pay the packing cost.
        """
        featurizer = getattr(estimator, "featurizer", None)
        if not isinstance(featurizer, Featurizer):
            return None
        if not (hasattr(estimator, "estimate_features")
                and hasattr(estimator, "compile")):
            return None
        estimator.compile()
        return cls(estimator, featurizer, plan_cache)

    @property
    def plan_cache(self) -> PlanCache:
        """The shape-keyed plan cache this path consults."""
        return self._plan_cache

    @property
    def supports_planned_statements(self) -> bool:
        """Whether the SQL-direct leg can run at all.

        The planned leg has no bound ASTs to offer the encode stage,
        so it requires a featurizer whose encode never reads
        ``batch.exprs``.
        """
        return not self._featurizer.encode_uses_exprs

    def plan_statement(self, template: Query,
                       plan: CompiledPlan) -> PlannedStatement | None:
        """Shape-compile a parsed statement template, or ``None``.

        ``plan`` is the plan an instance of the template was prepared
        with (:meth:`prepare_many`), so the template has passed
        validation already.  ``None`` marks a featurizer whose encode
        stage needs the bound expressions: instances then take the
        bound leg.
        """
        if not self.supports_planned_statements:
            return None
        expr = self._featurizer.extract_expr(template)
        # The template's literal slots hold their own textual indices
        # (make_template), so the masked key equals every instance's
        # key and the walk-order literal vector *is* the walk ->
        # fingerprint permutation; the plan's perm composes it with
        # compile order.
        key, sentinel = query_shape(expr)
        return PlannedStatement(shape_key=key,
                                perm=sentinel.astype(np.int64)[plan.perm],
                                expr=expr)

    def prepare_many(self, items: Sequence) -> list[PreparedStatement]:
        """Validate a request's statements and resolve their plans.

        Each item is a bound :class:`~repro.sql.ast.Query` (the bound
        leg) or a ``(PlannedStatement, fingerprint literals)`` pair (the
        planned leg).  Every bound query is extracted before any plan
        compiles, as ``compile_batch`` does, and the plan cache is
        probed once for the whole request.  Raises the per-query
        validation errors ``estimate_batch`` raises for the same
        queries (wrong table, unknown attribute, unsupported query
        class); planned items never raise, since their template passed
        validation when it was planned.
        """
        keys: list[tuple] = []
        exprs: list[BoolExpr | None] = []
        literals: list = []
        for item in items:
            if isinstance(item, Query):
                expr = self._featurizer.extract_expr(item)
                key, walk = query_shape(expr)
            else:
                planned, walk = item
                key, expr = planned.shape_key, planned.expr
            keys.append(key)
            exprs.append(expr)
            literals.append(walk)
        plans = self._plans(keys, exprs)
        return [PreparedStatement(plan, row, plan.perm, expr)
                if isinstance(item, Query)
                else self.prepare_planned(item[0], row, plan)
                for item, plan, row, expr in zip(items, plans, literals,
                                                  exprs)]

    def prepare_planned(self, statement: PlannedStatement,
                        literals: Sequence[float],
                        plan: CompiledPlan) -> PreparedStatement:
        """One instance of a planned statement (the planned leg).

        ``literals`` are the instance's fingerprint literals in textual
        order, kept as given: the execute stage gathers them into
        compile order through the statement's :attr:`~PlannedStatement.perm`.
        """
        return PreparedStatement(plan, literals, statement.perm, None)

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimate a batch of bound queries through the fused pipeline.

        Results are bitwise-identical to
        ``estimator.estimate_batch(queries)``, and so are the errors.
        """
        return self.estimate_planned(self.prepare_many(queries))

    def estimate_planned(self, statements: Sequence[PreparedStatement]
                         ) -> np.ndarray:
        """The execute stage: stitch-encode and predict prepared statements.

        Statements from both legs mix freely in one batch; the result
        is bitwise-identical to :meth:`estimate_batch` on the
        equivalent bound queries — same plans, same stitched encode,
        same predict.
        """
        k = len(statements)
        if k == 0:
            return np.empty(0, dtype=np.float64)
        plans, literals, indices, exprs = zip(*statements)
        with obs.span("serve.fused.encode", n_queries=k):
            matrix = self._featurizer.encode_with_plans(
                plans, literals, exprs, indices)
        with obs.span("serve.fused.predict", n_queries=k,
                      metric="serve.fused.predict.seconds"):
            return self._estimator.estimate_features(matrix)

    def _plans(self, keys: list[tuple],
               exprs: list[BoolExpr | None]) -> list[CompiledPlan]:
        """Each statement's plan, from one plan-cache probe.

        A shape the cache lacks compiles from its first statement's
        expression (raising the featurizer's compile-time errors); the
        shape's later statements reuse that plan and count as hits,
        as they would have had each statement probed in turn.  Plans
        compiled before an error are still stored.
        """
        plans = self._plan_cache.lookup_many(keys, repeats_hit=True)
        compiled: dict[tuple, CompiledPlan] = {}
        try:
            for position, plan in enumerate(plans):
                if plan is None:
                    key = keys[position]
                    plan = compiled.get(key)
                    if plan is None:
                        plan = self._featurizer.compile_plan(exprs[position])
                        compiled[key] = plan
                    plans[position] = plan
        finally:
            if compiled:
                self._plan_cache.store_many(compiled.items())
        return plans
