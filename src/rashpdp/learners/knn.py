"""k-nearest-neighbors regression on internally standardized features."""

from __future__ import annotations

import numpy as np

from .linear import check_scaling, standardization

_QUERY_CHUNK = 2048
# Neighbours are selected in blocks of this many rows of a chunk's distances,
# so the selection's temporaries are a slice of the product's size. On 4096
# queries against 750 training rows the call's tracemalloc peak was 1.05,
# 1.08, 1.15, 1.27, 1.53 and 2.04 products for blocks of 64 to 2048 rows, and
# blocks of 256 and 512 predicted 4500 queries fastest (median of 30, 2 cores).
_SELECT_ROWS = 256


class KNearestNeighborsRegression:
    """Neighbor averaging with uniform or inverse-distance weights.

    Features are standardized with training statistics before distance
    computation. A prediction is sum(w * y) / sum(w) over the query's
    min(n_neighbors, training rows) nearest rows, with w = 1 (uniform) or
    1/distance; a query whose computed distance to some neighbours is exactly
    0 weighs just those, by 1. Squared distances come from the expansion
    |q|^2 - 2 q.t + |t|^2, clipped at 0, with one BLAS product per chunk of
    _QUERY_CHUNK queries whose rounding depends on the chunk's shape. It need
    not cancel to exactly 0, so a query equal to a training row can be
    weighted 1/distance among its neighbours, not taken alone. The product is
    written into one buffer per call and finished in place, and neighbours are
    selected in blocks of _SELECT_ROWS of its rows: a row's selection and mean
    read that row alone, so the bytes are those of one selection per chunk.
    """

    FITTED = dict(center_=np.float64, scale_=np.float64, train_z_=np.float64, train_y_=np.float64)

    def __init__(self, n_neighbors: int = 5, weights: str = "uniform"):
        if n_neighbors < 1:
            raise ValueError(f"n_neighbors must be >= 1, got {n_neighbors}")
        if weights not in ("uniform", "inverse_distance"):
            raise ValueError(f"unknown weights mode '{weights}'")
        self.n_neighbors = int(n_neighbors)
        self.weights = str(weights)
        self.center_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None
        self.train_z_: np.ndarray | None = None
        self.train_y_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KNearestNeighborsRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.center_, self.scale_ = standardization(X)
        self.train_z_ = (X - self.center_) / self.scale_
        self.train_y_ = y.copy()
        return self

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        if self.train_z_ is None:
            raise ValueError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        k = min(self.n_neighbors, self.train_z_.shape[0])
        out = np.empty(X.shape[0], dtype=np.float64)
        train_sq = np.sum(self.train_z_ * self.train_z_, axis=1)
        d2 = np.empty((min(X.shape[0], _QUERY_CHUNK), self.train_z_.shape[0]))
        for start in range(0, X.shape[0], _QUERY_CHUNK):
            zq = (X[start:start + _QUERY_CHUNK] - self.center_) / self.scale_
            chunk = d2[:len(zq)]
            np.matmul(zq, self.train_z_.T, out=chunk)
            chunk *= -2.0
            chunk += train_sq
            chunk += np.sum(zq * zq, axis=1)[:, None]
            np.maximum(chunk, 0.0, out=chunk)
            for row in range(0, len(zq), _SELECT_ROWS):
                block = chunk[row:row + _SELECT_ROWS]
                at = start + row
                out[at:at + len(block)] = self._weighted_mean(block, k)
        return out

    def _weighted_mean(self, d2: np.ndarray, k: int) -> np.ndarray:
        """Each row's prediction from its squared distances to the training rows."""
        if k < d2.shape[1]:  # with every row a neighbour, argpartition would reorder the sum
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            d2 = np.take_along_axis(d2, nearest, axis=1)
        else:
            nearest = np.arange(d2.shape[1])
        w = np.ones_like(d2)
        if self.weights == "inverse_distance":
            zero = d2 <= 0.0
            np.divide(1.0, np.sqrt(d2), out=w, where=~zero)
            exact = zero.any(axis=1)
            w[exact] = zero[exact]
        return (w * self.train_y_[nearest]).sum(axis=1) / w.sum(axis=1)

    def validate(self) -> None:
        if self.train_z_.ndim != 2:
            raise ValueError(f"KNearestNeighborsRegression field 'train_z': shape "
                             f"{self.train_z_.shape}, expected a matrix")
        rows, width = self.train_z_.shape
        if self.train_y_.shape != (rows,):
            raise ValueError(f"KNearestNeighborsRegression field 'train_y': shape "
                             f"{self.train_y_.shape}, expected ({rows},) to match 'train_z'")
        check_scaling(self, width, "train_z")
