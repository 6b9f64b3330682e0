"""Benchmark workloads: seeded inputs and the `explain` call of each.

The inputs are made by the package's own generators (`rashpdp.synthetic`)
and written by its own CSV writer (`rashpdp.data.save_csv`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 20240501

# Every run uses these relative paths from a fresh working directory:
# config.echo and metrics.json echo both paths, so they are part of the digest.
DATA_FILE = "data.csv"
POOL_FILE = "pool.json"
OUT_DIR = "out"
WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], object]  # seed -> rashpdp.data.Dataset
    explain_args: tuple[str, ...]
    features: tuple[str, ...] | None  # None: every feature of the data
    archive_from: str | None = None  # loads the pool archive this workload saves
    saves_pool: bool = False

    def write_data(self, seed: int, path: str) -> list[str]:
        """Write the dataset at `seed` to `path`; return its feature names."""
        from rashpdp.data import save_csv

        ds = self.generate(seed)
        save_csv(ds, path)
        return list(ds.feature_names)

    def argv(self) -> list[str]:
        argv = ["explain", "--data", DATA_FILE, "--target", "y", "--seed", "42",
                "--max-models", "5", "--workers", str(WORKERS), "--out", OUT_DIR]
        for name in self.features or ():
            argv += ["--feature", name]
        if self.saves_pool:
            argv += ["--save-pool", POOL_FILE]
        if self.archive_from is not None:
            argv += ["--load-pool", POOL_FILE]
        return argv + list(self.explain_args)


def _friedman(seed: int):
    from rashpdp.synthetic import make_friedman

    return make_friedman(n_rows=300, seed=seed)


# A pool of 5 holds one model of each family (ridge, CART, forest, boosting,
# k-NN). `--epsilon 10` keeps every model in the Rashomon set at every seed,
# so `profile` predicts with every family: at the paper's 0.05 the set flips
# between seeds (a forest or a boosting model drops in or out), which moves
# the PDP time by a quarter from one seed to the next.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="train", generate=_friedman, explain_args=(),
                 features=("x4",), saves_pool=True),
        Workload(name="profile", generate=_friedman, explain_args=("--epsilon", "10"),
                 features=None, archive_from="train"),
    )
}
