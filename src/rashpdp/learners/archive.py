"""Versioned JSON archive for trained model pools (--save-pool/--load-pool).

A model's state holds its constructor arguments and the attributes in its class's
`FITTED` table, named without the trailing '_'. A `FITTED` kind is `float`, a
numpy dtype (an array), or a model class (a list of nested models)."""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from typing import Any

import numpy as np

from ..data import Dataset, Split
from .pool import REGISTRY, TrainedModel, holdout_rmse

ARCHIVE_FORMAT = "rashpdp-pool"
ARCHIVE_VERSION = 1


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, ...], tuple[tuple[str, str, Any], ...]]:
    """Constructor parameters and (attribute, key, kind) per `FITTED` entry, once per class."""
    return (tuple(inspect.signature(cls).parameters),
            tuple((attr, attr.rstrip("_"), kind) for attr, kind in cls.FITTED.items()))


def get_state(model: Any) -> dict[str, Any]:
    """The JSON-ready state of a fitted model."""
    params, fitted = _fields(type(model))
    state = {name: getattr(model, name) for name in params}
    for attr, key, kind in fitted:
        value = getattr(model, attr)
        state[key] = (float(value) if kind is float
                      else value.tolist() if issubclass(kind, np.number)
                      else [get_state(part) for part in value])
    return state


def from_state(cls: type, state: Any) -> Any:
    """Rebuild a fitted `cls` from `get_state` output. A missing or mistyped
    field raises ValueError naming it; load_pool then runs the model's
    `validate` for the checks that span fields."""
    params, fitted = _fields(cls)
    if not isinstance(state, dict):
        raise ValueError(f"{cls.__name__} state must be an object, got {type(state).__name__}")
    field = ", ".join(params)  # what an error is about: the constructor, then each field
    try:
        model = cls(**{name: state[name] for name in params})
        for attr, field, kind in fitted:
            setattr(model, attr, _decode(state[field], kind))
    except KeyError as exc:
        raise ValueError(f"{cls.__name__} state is missing field {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{cls.__name__} field '{field}': {exc}") from None
    return model


def _decode(value: Any, kind: Any) -> Any:
    if kind is float:
        value = float(value)
    elif not isinstance(value, list):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    elif not issubclass(kind, np.number):
        return [from_state(kind, part) for part in value]
    elif kind is np.intp and not set(map(type, value)) <= {int}:  # no 1.5, "2" or true
        bad = next(v for v in value if type(v) is not int)
        raise ValueError(f"expected integers, got {bad!r}")
    else:
        value = np.asarray(value, dtype=kind)
    if kind is not np.intp and not np.isfinite(value).all():  # a null float reads as NaN
        raise ValueError("expected finite numbers")
    return value


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
                "state": get_state(m.predictor),
            }
            for m in pool
        ],
    }
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        _write_json(fh, payload)


def _write_json(fh: Any, value: Any) -> None:
    """Write the bytes of `json.dump(value, fh, sort_keys=True)`. Objects and
    lists of objects are framed here and every other value is encoded in one
    call of the C encoder: `json.dump` runs the pure-Python encoder (about 3x
    slower on a forest's archive), and one `json.dumps` string of the whole
    archive holds several times its size in memory at once."""
    if isinstance(value, dict):
        opener, closer = "{", "}"
        items = [(json.dumps(key) + ": ", value[key]) for key in sorted(value)]
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        opener, closer = "[", "]"
        items = [("", item) for item in value]
    else:
        fh.write(json.dumps(value, sort_keys=True))
        return
    fh.write(opener)
    for i, (prefix, item) in enumerate(items):
        fh.write((", " if i else "") + prefix)
        _write_json(fh, item)
    fh.write(closer)


def load_pool(path: str | os.PathLike[str]) -> list[TrainedModel]:
    """Restore a pool saved by save_pool; predictions match the original. A
    malformed model, or one whose id an earlier model has, raises ValueError
    naming the path, its index and the field."""
    with open(os.fspath(path), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != ARCHIVE_FORMAT:
        raise ValueError(f"{path} is not a model-pool archive")
    if payload.get("version") != ARCHIVE_VERSION:
        raise ValueError(
            f"unsupported pool archive version {payload.get('version')!r} "
            f"(expected {ARCHIVE_VERSION})"
        )
    if "models" not in payload:
        raise ValueError(f"pool archive {path} is missing key 'models'")
    if not isinstance(payload["models"], list):
        raise ValueError(f"pool archive {path}: 'models' must be a list")
    pool = []
    for index, entry in enumerate(payload["models"]):
        try:
            if not isinstance(entry, dict):
                raise ValueError(f"entry must be an object, got {type(entry).__name__}")
            family = entry["family"]
            if not isinstance(family, str) or family not in REGISTRY:
                raise ValueError(f"unknown model family {family!r}")
            model_id, score, hyperparameters = _entry_keys(entry)
            if model_id in (m.id for m in pool):
                raise ValueError(f"key 'id' repeats an earlier model's id {model_id}")
            predictor = from_state(REGISTRY[family].model_class, entry["state"])
            predictor.validate()
            pool.append(TrainedModel(id=model_id, family=family, predictor=predictor,
                                     hyperparameters=hyperparameters, score=score))
        except KeyError as exc:
            raise ValueError(f"pool archive {path}: model {index}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"pool archive {path}: model {index}: {exc}") from None
    return pool


def check_scores(pool: list[TrainedModel], ds: Dataset, sp: Split,
                 path: str | os.PathLike[str]) -> None:
    """Require every loaded model to score exactly its stored `score` on this
    split, so that an archive trained on other data, another split seed or
    another test fraction fails instead of giving a wrong Rashomon set. JSON
    floats round-trip exactly, so a matching archive always passes."""
    for model in pool:
        try:
            score = holdout_rmse(model.predictor, ds, sp)
        except (IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"pool archive {path}: model {model.id}: "
                             f"cannot predict this data's test rows: {exc}") from None
        if score != model.score:
            raise ValueError(f"pool archive {path}: model {model.id}: holdout RMSE on this "
                             f"data is {score!r}, the archive says {model.score!r}")


def _entry_keys(entry: dict[str, Any]) -> tuple[int, float, dict[str, Any]]:
    """A model entry's `id`, `score` and `hyperparameters`, each checked for its JSON type."""
    model_id, score, hyperparameters = entry["id"], entry["score"], entry["hyperparameters"]
    if type(model_id) is not int:
        raise ValueError(f"key 'id' must be an integer, got {model_id!r}")
    if type(score) not in (int, float) or not math.isfinite(score):
        raise ValueError(f"key 'score' must be a finite number, got {score!r}")
    if not isinstance(hyperparameters, dict):
        raise ValueError(f"key 'hyperparameters' must be an object, got {hyperparameters!r}")
    return model_id, float(score), hyperparameters
