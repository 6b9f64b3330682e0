"""Shared fixtures and stub models for the test suite."""

from __future__ import annotations

import rashpdp  # noqa: F401  # before numpy, so OpenBLAS starts with the package's one thread

import numpy as np
import pytest

from rashpdp.data import Dataset
from rashpdp.learners import TrainedModel
from rashpdp.learners.knn import _QUERY_CHUNK


class ConstantPredictor:
    """Predicts one fixed value for every row."""

    def __init__(self, value: float):
        self.value = float(value)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.full(np.asarray(X).shape[0], self.value)


class LinearPredictor:
    """Predicts coef . row + intercept."""

    def __init__(self, coef, intercept: float = 0.0):
        self.coef = np.asarray(coef, dtype=np.float64)
        self.intercept = float(intercept)

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.coef + self.intercept


def stub_model(model_id: int, score: float, predictor=None) -> TrainedModel:
    return TrainedModel(
        id=model_id,
        family="DecisionTree",
        hyperparameters={},
        predictor=predictor if predictor is not None else ConstantPredictor(0.0),
        score=float(score),
    )


def stub_pool(scores) -> list[TrainedModel]:
    return [stub_model(i, s) for i, s in enumerate(scores)]


@pytest.fixture
def tiny_dataset() -> Dataset:
    rng = np.random.default_rng(7)
    X = rng.uniform(-1.0, 1.0, size=(40, 3))
    y = 1.5 * X[:, 0] - 0.5 * X[:, 1] + 0.1 * rng.normal(size=40)
    return Dataset(
        name="tiny",
        features=X,
        feature_names=("a", "b", "c"),
        target=y,
        target_name="y",
    )


def fit_per_node(tree, X, y, rng=None):
    """The grower `RegressionTree.fit` replaced, kept as its oracle: it sorts
    each candidate feature anew at every node. Sets the tree's node arrays."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape
    if tree.max_features is not None and rng is None:
        raise ValueError("feature subsampling requires an rng")

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n, dtype=np.intp), 0)]
    while stack:
        node, rows, depth = stack.pop()
        ys = y[rows]
        value[node] = float(ys.mean())
        if depth >= tree.max_depth or rows.size < 2 * tree.min_samples_leaf:
            continue
        node_sse = float(np.sum((ys - ys.mean()) ** 2))
        if node_sse <= 0.0:
            continue

        if tree.max_features is not None and tree.max_features < p:
            candidates = np.sort(rng.choice(p, size=tree.max_features, replace=False))
        else:
            candidates = np.arange(p)

        best_sse = node_sse
        best_feat = -1
        best_thr = 0.0
        for f in candidates:
            xs = X[rows, f]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            if xs_sorted[0] == xs_sorted[-1]:
                continue
            ys_sorted = ys[order]
            cum = np.cumsum(ys_sorted)
            cumsq = np.cumsum(ys_sorted * ys_sorted)
            n_left = np.arange(1, rows.size)
            n_right = rows.size - n_left
            valid = (xs_sorted[1:] > xs_sorted[:-1])
            valid &= n_left >= tree.min_samples_leaf
            valid &= n_right >= tree.min_samples_leaf
            if not valid.any():
                continue
            sse_left = cumsq[:-1] - cum[:-1] ** 2 / n_left
            sse_right = (cumsq[-1] - cumsq[:-1]) - (cum[-1] - cum[:-1]) ** 2 / n_right
            child_sse = sse_left + sse_right
            child_sse[~valid] = np.inf
            k = int(np.argmin(child_sse))
            if child_sse[k] < best_sse:
                best_sse = float(child_sse[k])
                best_feat = int(f)
                best_thr = float((xs_sorted[k] + xs_sorted[k + 1]) / 2.0)
        if best_feat < 0:
            continue

        go_left = X[rows, best_feat] <= best_thr
        left_rows = rows[go_left]
        right_rows = rows[~go_left]
        if left_rows.size == 0 or right_rows.size == 0:
            continue
        feature[node] = best_feat
        threshold[node] = best_thr
        lid = new_node()
        rid = new_node()
        left[node] = lid
        right[node] = rid
        stack.append((rid, right_rows, depth + 1))
        stack.append((lid, left_rows, depth + 1))

    tree.feature = np.asarray(feature, dtype=np.intp)
    tree.threshold = np.asarray(threshold, dtype=np.float64)
    tree.left = np.asarray(left, dtype=np.intp)
    tree.right = np.asarray(right, dtype=np.intp)
    tree.value = np.asarray(value, dtype=np.float64)
    return tree


def knn_predict_reference(model, X):
    """The `KNearestNeighborsRegression.predict_many` that one weighted mean
    replaced, kept as its oracle: uniform weights take `mean`, and
    inverse-distance queries with and without a zero distance are averaged
    apart."""
    X = np.asarray(X, dtype=np.float64)
    k = min(model.n_neighbors, model.train_z_.shape[0])
    out = np.empty(X.shape[0], dtype=np.float64)
    train_sq = np.sum(model.train_z_ * model.train_z_, axis=1)
    for start in range(0, X.shape[0], _QUERY_CHUNK):
        zq = (X[start:start + _QUERY_CHUNK] - model.center_) / model.scale_
        d2 = np.maximum(
            zq @ model.train_z_.T * -2.0 + train_sq + np.sum(zq * zq, axis=1)[:, None],
            0.0,
        )
        if k < d2.shape[1]:
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        else:
            nearest = np.broadcast_to(np.arange(d2.shape[1]), (d2.shape[0], d2.shape[1]))
        rows = np.arange(d2.shape[0])[:, None]
        nd2 = d2[rows, nearest]
        ny = model.train_y_[nearest]
        if model.weights == "uniform":
            out[start:start + zq.shape[0]] = ny.mean(axis=1)
        else:
            zero = nd2 <= 0.0
            has_zero = zero.any(axis=1)
            w = np.zeros_like(nd2)
            np.divide(1.0, np.sqrt(nd2), out=w, where=~zero)
            pred = np.empty(zq.shape[0])
            nz = ~has_zero
            pred[nz] = (w[nz] * ny[nz]).sum(axis=1) / w[nz].sum(axis=1)
            if has_zero.any():
                zcount = zero[has_zero].sum(axis=1)
                pred[has_zero] = (ny[has_zero] * zero[has_zero]).sum(axis=1) / zcount
            out[start:start + zq.shape[0]] = pred
    return out
