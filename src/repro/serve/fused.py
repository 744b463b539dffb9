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
   :class:`~repro.serve.cache.PlanCache`; only a never-seen shape pays
   an AST compile.  This is also where a statement is validated, so
   the serving layer prepares in the request thread and only
   validated :class:`PreparedStatement` items reach the execute stage.
2. **encode** — the whole batch, however many distinct shapes it
   mixes, is stamped out in one plan-stitching pass
   (:meth:`~repro.featurize.base.Featurizer.encode_with_plans`:
   concatenate the plans' predicate columns, gather the literal
   vectors into place) and encoded in a single vectorized call.  No
   per-shape encode, no per-query anything — stitching is what lets
   plan caching win on shape-diverse traffic, where one encode call
   per shape group would cost more than the compile pass it saves.
3. **predict** — the matrix goes through the estimator's
   ``estimate_features`` in a single call, which for gradient boosting
   runs the packed :class:`~repro.models.compiled_forest.CompiledForest`
   (level-synchronous traversal, no per-tree loop).

Encode and predict emit spans (``serve.fused.encode`` /
``.predict``), and the whole path is bitwise-identical to
``estimator.estimate_batch`` on the same queries — the equivalence
suite and ``repro bench serve`` both assert it.

A statement reaches the execute stage (:meth:`estimate_planned`) by
one of two legs.  The **bound leg** prepares a parsed query
(:meth:`prepare`).  The **SQL-direct planned leg** skips the AST: a
statement template the parse cache has already seen is shape-compiled
once into a :class:`PlannedStatement` (shape key + walk-order literal
permutation), and each instance's fingerprint literals are gathered
straight into its literal vector (:meth:`prepare_planned`).  The
planned leg is available only for featurizers whose encode stage
ignores ``batch.exprs``
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
    fingerprint literals, gathered through :attr:`perm`, go straight
    into the stitched encode without a bound AST ever existing.
    """

    #: The statement's shape key — equal to every instance's key, since
    #: :func:`~repro.featurize.batch.query_shape` masks literal values.
    shape_key: tuple
    #: Gather permutation: walk-order literal slot -> fingerprint
    #: (textual) literal index of the statement.
    perm: np.ndarray
    #: The template's validated WHERE expression; recompiles the plan
    #: if the plan cache has meanwhile evicted the shape.
    expr: BoolExpr | None


class PreparedStatement(NamedTuple):
    """One validated statement instance, ready for the execute stage."""

    #: The statement's resolved shape plan.
    plan: CompiledPlan
    #: Walk-order literal vector (``plan.n_literals`` values).
    literals: np.ndarray
    #: The bound WHERE expression (``None`` on the planned leg, whose
    #: encode ignores it).
    expr: BoolExpr | None


class FusedEstimatePath:
    """Shape-plan-cached batch estimation for a compiled estimator.

    Build via :meth:`try_build`.  :meth:`estimate_batch` stands in for
    ``estimator.estimate_batch``; the serving layer instead prepares
    each statement itself and hands the prepared batch to
    :meth:`estimate_planned`.  Thread safety matches the underlying
    pieces: the plan cache is locked, encode and predict are pure, so
    concurrent calls are safe.
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

    def plan_statement(self, template: Query) -> PlannedStatement | None:
        """Shape-compile a parsed statement template, or ``None``.

        ``None`` marks the statement as outside the planned class: the
        featurizer rejects it (wrong table, unknown attribute, a query
        class the QFT cannot represent) or its encode stage needs the
        bound expressions.  Instances of such statements simply take
        the bound leg, where the same validation raises per request.
        Eligible statements also warm the plan cache here, so their
        first instance already hits.
        """
        if not self.supports_planned_statements:
            return None
        try:
            expr = self._featurizer.extract_expr(template)
            # The template's literal slots hold their own textual
            # indices (make_template), so the masked key equals every
            # instance's key and the walk-order literal vector *is*
            # the walk -> fingerprint permutation.
            key, sentinel = query_shape(expr)
            self._plan(key, expr)
        except (ValueError, TypeError, KeyError):
            return None
        return PlannedStatement(shape_key=key,
                                perm=sentinel.astype(np.int64), expr=expr)

    def prepare(self, query: Query) -> PreparedStatement:
        """Validate a bound query and resolve its plan (the bound leg).

        Raises the per-query validation errors ``estimate_batch``
        raises for the same query (wrong table, unknown attribute,
        unsupported query class).
        """
        return self._prepare_expr(self._featurizer.extract_expr(query))

    def prepare_planned(self, statement: PlannedStatement,
                        literals: Sequence[float]) -> PreparedStatement:
        """Prepare an instance of a planned statement (the planned leg).

        ``literals`` are the instance's fingerprint literals in textual
        order; they are gathered to walk order through the statement's
        permutation.  Never raises: the template passed validation when
        it was planned.
        """
        row = np.asarray(literals, dtype=np.float64)[statement.perm]
        return PreparedStatement(self._plan(statement.shape_key,
                                            statement.expr), row, None)

    def estimate_batch(self, queries: Sequence[Query]) -> np.ndarray:
        """Estimate a batch of bound queries through the fused pipeline.

        Results are bitwise-identical to
        ``estimator.estimate_batch(queries)``, and so are the errors:
        every query is extracted before any plan compiles, as
        ``compile_batch`` does.
        """
        exprs = [self._featurizer.extract_expr(q) for q in queries]
        return self.estimate_planned([self._prepare_expr(e) for e in exprs])

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
        with obs.span("serve.fused.encode", n_queries=k):
            matrix = self._featurizer.encode_with_plans(
                [s.plan for s in statements],
                [s.literals for s in statements],
                [s.expr for s in statements])
        with obs.span("serve.fused.predict", n_queries=k,
                      metric="serve.fused.predict.seconds"):
            return self._estimator.estimate_features(matrix)

    def _prepare_expr(self, expr: BoolExpr | None) -> PreparedStatement:
        key, literals = query_shape(expr)
        return PreparedStatement(self._plan(key, expr), literals, expr)

    def _plan(self, key: tuple, expr: BoolExpr | None) -> CompiledPlan:
        """The cached plan of shape ``key``, compiled from ``expr`` on a
        miss (which raises the featurizer's compile-time errors)."""
        plan = self._plan_cache.lookup(key)
        if plan is None:
            plan = self._featurizer.compile_plan(expr)
            self._plan_cache.store(key, plan)
        return plan
