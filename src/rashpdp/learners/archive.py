"""Versioned JSON archive for trained model pools (--save-pool/--load-pool)."""

from __future__ import annotations

import json
import os

from .pool import REGISTRY, TrainedModel

ARCHIVE_FORMAT = "rashpdp-pool"
ARCHIVE_VERSION = 1

_MODEL_KEYS = ("id", "family", "hyperparameters", "score", "state")


def save_pool(pool: list[TrainedModel], path: str | os.PathLike[str]) -> None:
    """Serialize a pool to a self-describing JSON archive."""
    payload = {
        "format": ARCHIVE_FORMAT,
        "version": ARCHIVE_VERSION,
        "models": [
            {
                "id": m.id,
                "family": m.family,
                "hyperparameters": m.hyperparameters,
                "score": m.score,
                "state": m.predictor.get_state(),
            }
            for m in pool
        ],
    }
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_pool(path: str | os.PathLike[str]) -> list[TrainedModel]:
    """Restore a pool saved by save_pool; predictions match the original."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != ARCHIVE_FORMAT:
        raise ValueError(f"{path} is not a model-pool archive")
    if payload.get("version") != ARCHIVE_VERSION:
        raise ValueError(
            f"unsupported pool archive version {payload.get('version')!r} "
            f"(expected {ARCHIVE_VERSION})"
        )
    if "models" not in payload:
        raise ValueError(f"pool archive {path} is missing key 'models'")
    pool = []
    for index, entry in enumerate(payload["models"]):
        for key in _MODEL_KEYS:
            if key not in entry:
                raise ValueError(f"pool archive {path}: model {index} is missing key '{key}'")
        family = entry["family"]
        if family not in REGISTRY:
            raise ValueError(f"unknown model family '{family}' in archive {path}")
        pool.append(
            TrainedModel(
                id=int(entry["id"]),
                family=family,
                hyperparameters=dict(entry["hyperparameters"]),
                predictor=REGISTRY[family].model_class.from_state(entry["state"]),
                score=float(entry["score"]),
            )
        )
    return pool
