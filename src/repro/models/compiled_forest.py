"""Compiled forest inference: the whole GB ensemble as node tensors.

The legacy predict path walks every :class:`~repro.models.tree.RegressionTree`
separately — a python loop over trees, each tree a python stack of
index-array splits.  For serving-sized batches (1–64 queries) the python
dispatch dominates: ~``n_trees × nodes_per_tree`` tiny numpy calls per
request.

:class:`CompiledForest` packs all fitted trees into contiguous
``(n_trees, max_nodes)`` tensors (feature index, raw threshold, child
indices, leaf value) and predicts with **level-synchronous traversal**:
every (tree, row) pair advances one level per step, so a whole batch
crosses the entire forest in ``max_depth`` iterations of a handful of
numpy gathers — no per-tree python loop, no recursion, no index stacks.

The traversal exploits three packing invariants to stay at ~7 numpy
kernels per level with no masking:

* ``grow_tree`` allocates children consecutively, so ``right ==
  left + 1`` and the branch is pure arithmetic: ``next = left +
  (x[feature] >= threshold)``.
* Leaves are rewritten as *self-loops* with ``threshold = +inf``
  (and feature 0), so finished cursors keep re-landing on their leaf
  without an ``active`` mask — inputs are finite per ``check_matrix``,
  and ``finite >= +inf`` is always ``False``.
* Node ids are pre-offset to *global* flat positions (``tree ×
  max_nodes + node``), so every per-level lookup is one fancy gather
  from a 1-d array.

The contract is *bitwise identity* with the legacy path: for finite
inputs ``x >= t`` is exactly ``not (x < t)``, so the traversal reaches
the same leaves the flat trees reach, and :meth:`predict` accumulates
``base + lr·v₀ + lr·v₁ + …`` in the same tree order with the same
float associativity (one sequential ``np.add.accumulate``).
``tests/models/test_compiled_forest.py`` gates this, and ``repro bench
predict`` measures the speedup.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.models.tree import RegressionTree

__all__ = ["CompiledForest"]


class CompiledForest:
    """All trees of a fitted gradient-boosting ensemble, packed flat.

    Parameters
    ----------
    trees:
        The fitted :class:`RegressionTree` weak learners, in boosting
        order (the order the legacy predict loop accumulates them in).
    base:
        The ensemble's constant term (training-target mean).
    learning_rate:
        Per-tree shrinkage applied during accumulation.
    """

    def __init__(self, trees: Sequence[RegressionTree], base: float,
                 learning_rate: float) -> None:
        if not trees:
            raise ValueError("cannot compile an empty forest")
        self._base = float(base)
        self._learning_rate = float(learning_rate)
        n_trees = len(trees)
        max_nodes = max(tree.node_count for tree in trees)
        # Padded slots are self-leaves (feature -1, value 0); the
        # traversal never reaches them because every tree's reachable
        # nodes sit in its own prefix.
        self._feature = np.full((n_trees, max_nodes), -1, dtype=np.int64)
        self._threshold = np.zeros((n_trees, max_nodes), dtype=np.float64)
        self._left = np.zeros((n_trees, max_nodes), dtype=np.int64)
        self._right = np.zeros((n_trees, max_nodes), dtype=np.int64)
        self._value = np.zeros((n_trees, max_nodes), dtype=np.float64)
        for t, tree in enumerate(trees):
            n = tree.node_count
            self._feature[t, :n] = tree.feature
            self._threshold[t, :n] = tree.threshold
            self._left[t, :n] = tree.left
            self._right[t, :n] = tree.right
            self._value[t, :n] = tree.value
        self._max_depth = self._measure_depth()
        # Derived flat traversal tensors (module docstring): global node
        # ids, leaf self-loops with +inf thresholds, and the consecutive-
        # children invariant that turns branching into ``left + bool``.
        inner = self._feature >= 0
        if not np.array_equal(self._right[inner], self._left[inner] + 1):
            raise ValueError(
                "forest violates the consecutive-children invariant "
                "(right != left + 1); only grow_tree forests are packable")
        offsets = (np.arange(n_trees, dtype=np.int64) * max_nodes)[:, None]
        node_ids = np.arange(max_nodes, dtype=np.int64)[None, :]
        self._roots = offsets[:, 0].copy()
        self._flat_feature = np.where(inner, self._feature, 0).ravel()
        self._flat_threshold = np.where(
            inner, self._threshold, np.inf).ravel()
        self._flat_left = (
            np.where(inner, self._left, node_ids) + offsets).ravel()
        self._flat_value = self._value.ravel()

    @property
    def n_trees(self) -> int:
        """Number of packed trees."""
        return self._feature.shape[0]

    @property
    def max_nodes(self) -> int:
        """Node-tensor width (the largest tree's node count)."""
        return self._feature.shape[1]

    @property
    def max_depth(self) -> int:
        """Deepest inner-node level across all trees (leaf-only = 0)."""
        return self._max_depth

    @property
    def base(self) -> float:
        """The ensemble's constant term."""
        return self._base

    @property
    def learning_rate(self) -> float:
        """Per-tree shrinkage factor."""
        return self._learning_rate

    def _measure_depth(self) -> int:
        """Longest root-to-leaf path, measured level-synchronously."""
        frontier = np.zeros(self.n_trees, dtype=np.int64)
        tree_ids = np.arange(self.n_trees)
        depth = 0
        # Every level visits each (tree, frontier-node) pair once; a
        # flat tree array cannot cycle, so max_nodes bounds the walk.
        for _ in range(self.max_nodes):
            inner = self._feature[tree_ids, frontier] >= 0
            if not inner.any():
                break
            depth += 1
            # Follow both children of every inner node.
            lefts = self._left[tree_ids[inner], frontier[inner]]
            rights = self._right[tree_ids[inner], frontier[inner]]
            tree_ids = np.concatenate([tree_ids[inner], tree_ids[inner]])
            frontier = np.concatenate([lefts, rights])
        return depth

    def leaf_values(self, features: np.ndarray) -> np.ndarray:
        """Per-tree leaf values, shape ``(n_trees, n_rows)``.

        This is the level-synchronous core: all (tree, row) cursors
        advance one split per iteration until every cursor rests on a
        leaf (exactly :attr:`max_depth` iterations; leaf cursors idle on
        their self-loop).  Inputs must be finite — the GB predict path
        guarantees this via ``check_matrix`` — because the leaf
        self-loop relies on ``finite >= +inf`` being ``False``.
        """
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"feature matrix must be 2-d, got {X.shape}")
        n_rows = X.shape[0]
        flat_x = np.ascontiguousarray(X).ravel()
        row_offsets = (np.arange(n_rows, dtype=np.int64) *
                       X.shape[1])[None, :]
        node = np.broadcast_to(self._roots[:, None],
                               (self.n_trees, n_rows))
        for _ in range(self._max_depth):
            go_right = (flat_x[row_offsets + self._flat_feature[node]]
                        >= self._flat_threshold[node])
            node = self._flat_left[node] + go_right
        return self._flat_value[node]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict a batch, bitwise-identical to the legacy tree loop.

        ``base + lr·v₀ + lr·v₁ + …`` must associate exactly like the
        legacy path, so the trees are summed with ``np.add.accumulate``
        down the rows of ``[base; lr·values]``: an accumulate is a
        strictly sequential running sum (never pairwise), in tree order,
        and it replaces ``n_trees`` python-level vector adds with one
        call.
        """
        values = self.leaf_values(features)
        terms = np.empty((values.shape[0] + 1, values.shape[1]))
        terms[0] = self._base
        np.multiply(values, self._learning_rate, out=terms[1:])
        return np.add.accumulate(terms, axis=0)[-1]

    def memory_bytes(self) -> int:
        """Footprint of the packed node tensors (incl. traversal flats)."""
        return sum(arr.nbytes for arr in (
            self._feature, self._threshold, self._left, self._right,
            self._value, self._flat_feature, self._flat_threshold,
            self._flat_left, self._flat_value, self._roots,
        ))

    def __repr__(self) -> str:
        return (f"CompiledForest(n_trees={self.n_trees}, "
                f"max_nodes={self.max_nodes}, max_depth={self._max_depth})")
