"""CompiledForest: the packed forest must be an exact stand-in.

``CompiledForest.predict`` re-implements the legacy per-tree loop
(``base + lr·t₀(x) + lr·t₁(x) + …``) with a level-synchronous batch
traversal over contiguous node tensors.  Its contract is bitwise
equality with the loop — same accumulation order, same floats — plus
the structural invariants the packing relies on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.compiled_forest import CompiledForest
from repro.models.gradient_boosting import GradientBoostingRegressor


def fitted_model(n_rows=400, n_features=6, n_estimators=12, seed=7,
                 **kwargs):
    rng = np.random.default_rng(seed)
    X = rng.random((n_rows, n_features))
    y = X @ rng.random(n_features) + 0.1 * rng.standard_normal(n_rows)
    model = GradientBoostingRegressor(n_estimators=n_estimators,
                                      random_state=seed, **kwargs)
    return model.fit(X, y), X


def legacy_predict(model, X):
    prediction = np.full(X.shape[0], model._base)
    for tree in model.trees:  # repro: ignore[RPR109] — the reference loop
        prediction += model.learning_rate * tree.predict(X)
    return prediction


class TestBitwiseEquivalence:
    def test_compiled_matches_legacy_loop_exactly(self):
        model, X = fitted_model()
        forest = model.compile()
        assert isinstance(forest, CompiledForest)
        np.testing.assert_array_equal(forest.predict(X),
                                      legacy_predict(model, X))

    def test_model_predict_delegates_when_compiled(self):
        model, X = fitted_model(seed=11)
        before = model.predict(X)
        model.compile()
        np.testing.assert_array_equal(model.predict(X), before)

    def test_single_row_and_empty_batch(self):
        model, X = fitted_model(seed=5)
        forest = model.compile()
        np.testing.assert_array_equal(forest.predict(X[:1]),
                                      legacy_predict(model, X[:1]))
        assert forest.predict(X[:0]).shape == (0,)

    def test_depth_one_stumps(self):
        model, X = fitted_model(seed=3, max_depth=1, n_estimators=5)
        forest = model.compile()
        assert forest.max_depth <= 1
        np.testing.assert_array_equal(forest.predict(X),
                                      legacy_predict(model, X))

    def test_out_of_range_features_follow_legacy_branches(self):
        model, X = fitted_model(seed=13)
        forest = model.compile()
        extremes = np.vstack([X.min(axis=0) - 10.0, X.max(axis=0) + 10.0])
        np.testing.assert_array_equal(forest.predict(extremes),
                                      legacy_predict(model, extremes))


def per_tree_sum(forest, X):
    """The sequential per-tree accumulation ``predict`` replaced."""
    values = forest.leaf_values(X)
    prediction = np.full(values.shape[1], forest.base)
    for t in range(values.shape[0]):
        prediction += forest.learning_rate * values[t]
    return prediction


class TestAccumulateSum:
    """``predict``'s one ``np.add.accumulate`` over ``[base; lr·values]``
    against the per-tree vector loop it replaced."""

    @pytest.mark.parametrize("n_rows", [1, 8, 64])
    def test_matches_per_tree_loop_bitwise(self, n_rows):
        model, X = fitted_model(n_estimators=30, seed=13,
                                learning_rate=0.1)
        forest = model.compile()
        rows = X[:n_rows]
        np.testing.assert_array_equal(forest.predict(rows),
                                      per_tree_sum(forest, rows))
        np.testing.assert_array_equal(forest.predict(rows),
                                      legacy_predict(model, rows))

    def test_one_tree_forest(self):
        model, X = fitted_model(n_estimators=1, seed=17)
        forest = model.compile()
        assert forest.n_trees == 1
        np.testing.assert_array_equal(forest.predict(X[:64]),
                                      per_tree_sum(forest, X[:64]))
        np.testing.assert_array_equal(forest.predict(X[:1]),
                                      legacy_predict(model, X[:1]))


class TestStructure:
    def test_shapes_and_counters(self):
        model, _ = fitted_model()
        forest = model.compile()
        assert forest.n_trees == len(model.trees)
        assert forest.max_nodes == max(t.node_count for t in model.trees)
        assert forest.base == model._base
        assert forest.learning_rate == model.learning_rate
        assert forest.memory_bytes() > 0

    def test_compile_is_idempotent(self):
        model, _ = fitted_model(seed=2)
        assert model.compile() is model.compile()

    def test_refit_invalidates_compiled_forest(self):
        model, X = fitted_model(seed=4)
        first = model.compile()
        rng = np.random.default_rng(8)
        model.fit(X, rng.random(X.shape[0]))
        assert model.compiled is None
        assert model.compile() is not first

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError, match="empty forest"):
            CompiledForest([], base=0.0, learning_rate=0.1)

    def test_rejects_non_matrix_input(self):
        model, X = fitted_model(seed=6)
        forest = model.compile()
        with pytest.raises(ValueError, match="2-d"):
            forest.predict(X[0])
