"""Rashomon sets: near-optimal model subsets under a multiplicative tolerance."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .learners.pool import TrainedModel

DEFAULT_EPSILON = 0.05


@dataclass(frozen=True)
class RashomonSet:
    """Models whose score is within a factor (1 + epsilon) of the best score.

    `members` is ordered by ascending score with ties broken by id, so the
    best model is always `members[0]`. `rr` is the member count divided by
    the pool size.
    """

    epsilon: float
    threshold: float
    members: tuple[TrainedModel, ...]
    rr: float

    @property
    def rss(self) -> int:
        return len(self.members)

    @property
    def best_id(self) -> int:
        return self.members[0].id

    @property
    def member_ids(self) -> tuple[int, ...]:
        return tuple(m.id for m in self.members)


def form_set(pool: list[TrainedModel], epsilon: float = DEFAULT_EPSILON) -> RashomonSet:
    """Collect all models with score <= best_score * (1 + epsilon).

    The best model has the minimal score, ties going to the earliest-trained.
    The threshold is inclusive, so the best model is always a member; with a
    perfect best score of zero the set degenerates to the perfect models.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if not pool:
        raise ValueError("cannot form a Rashomon set from an empty pool")
    for m in pool:
        if not (math.isfinite(m.score) and m.score >= 0):
            raise ValueError(f"model {m.id} has non-finite or negative score {m.score}")
    ranked = sorted(pool, key=lambda m: (m.score, m.id))
    threshold = ranked[0].score * (1.0 + epsilon)
    if math.isnan(threshold):  # an infinite epsilon times a perfect score
        raise ValueError(f"epsilon {epsilon} with a best score of 0 leaves no threshold")
    members = tuple(m for m in ranked if m.score <= threshold)
    return RashomonSet(
        epsilon=float(epsilon),
        threshold=float(threshold),
        members=members,
        rr=len(members) / len(pool),
    )
