"""Regression model zoo with randomized hyperparameter search."""

from .archive import load_pool, save_pool
from .boosting import GradientBoostingRegression
from .forest import RandomForestRegression
from .knn import KNearestNeighborsRegression
from .linear import RidgeRegression
from .pool import (
    FAMILIES,
    SearchBudget,
    TrainedModel,
    rmse,
    train_pool,
)
from .tree import RegressionTree

__all__ = [
    "FAMILIES",
    "GradientBoostingRegression",
    "KNearestNeighborsRegression",
    "RandomForestRegression",
    "RegressionTree",
    "RidgeRegression",
    "SearchBudget",
    "TrainedModel",
    "load_pool",
    "rmse",
    "save_pool",
    "train_pool",
]
