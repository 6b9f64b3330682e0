"""Regression model zoo with randomized hyperparameter search."""

from .archive import load_pool, save_pool
from .boosting import GradientBoostingRegression
from .forest import RandomForestRegression
from .knn import KNearestNeighborsRegression
from .linear import RidgeRegression
from .pool import (
    DECISION_TREE,
    FAMILIES,
    GRADIENT_BOOSTING,
    K_NEAREST_NEIGHBORS,
    LINEAR_RIDGE,
    RANDOM_FOREST,
    SearchBudget,
    TrainedModel,
    rmse,
    train_pool,
)
from .tree import RegressionTree

__all__ = [
    "DECISION_TREE",
    "FAMILIES",
    "GRADIENT_BOOSTING",
    "GradientBoostingRegression",
    "K_NEAREST_NEIGHBORS",
    "KNearestNeighborsRegression",
    "LINEAR_RIDGE",
    "RANDOM_FOREST",
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
