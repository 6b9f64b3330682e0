"""Ridge regression on internally standardized features."""

from __future__ import annotations

import numpy as np


class RidgeRegression:
    """Least squares with an L2 penalty on standardized coefficients.

    The intercept is unpenalized; constant columns get zero weight. With
    alpha near zero this reduces to ordinary least squares.
    """

    FITTED = dict(coef_=np.float64, intercept_=float, center_=np.float64, scale_=np.float64)

    def __init__(self, alpha: float = 1.0):
        if alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {alpha}")
        self.alpha = float(alpha)
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self.center_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegression":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.center_, self.scale_ = standardization(X)
        Z = (X - self.center_) / self.scale_
        y_mean = y.mean()
        gram = Z.T @ Z + self.alpha * np.eye(X.shape[1])
        self.coef_ = np.linalg.solve(gram, Z.T @ (y - y_mean))
        self.intercept_ = float(y_mean)
        return self

    def predict_many(self, X: np.ndarray) -> np.ndarray:
        if self.coef_ is None:
            raise ValueError("model is not fitted")
        Z = (np.asarray(X, dtype=np.float64) - self.center_) / self.scale_
        return Z @ self.coef_ + self.intercept_

    def validate(self) -> None:
        if self.coef_.ndim != 1:
            raise ValueError(f"RidgeRegression field 'coef': shape {self.coef_.shape}, "
                             f"expected a vector")
        check_scaling(self, self.coef_.size, "coef")


def standardization(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means and standard deviations of `X`, a zero deviation set to 1."""
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    return X.mean(axis=0), scale


def check_scaling(model, width: int, source: str) -> None:
    """Reject a restored model whose `center_` or `scale_` does not have the
    `width` of its field `source`, or whose scale has a zero."""
    for field in ("center", "scale"):
        shape = getattr(model, field + "_").shape
        if shape != (width,):
            raise ValueError(f"{type(model).__name__} field '{field}': shape {shape}, "
                             f"expected ({width},) to match '{source}'")
    if not model.scale_.all():
        raise ValueError(f"{type(model).__name__} field 'scale': zero at index "
                         f"{int(np.flatnonzero(model.scale_ == 0)[0])}")
