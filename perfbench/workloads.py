"""The benchmark's workloads: each is an ordered list of CLI experiment
configs, run back to back by one client (a closed loop).

The benchmark's --seed becomes every config's master `seed`; the program
sees nothing but the configs. Grids and replicate counts are trimmed from
the CLI defaults so that one pass takes 1-2 s and a run holds about twenty
passes; the geometry, design and methods of each experiment are kept.
"""

from __future__ import annotations

WORKLOADS = {
    # Per-round online mirror descent with euclidean geometry, no solver.
    # Replicate counts (50 vs 10) and stream modes (batchable fixed/iid vs
    # per-iterate adaptive) vary within it.
    "online": [
        {"experiment": "rate", "distribution": "separable", "learner": "mirror_descent",
         "n_grid": [32, 64, 128, 256, 512]},
        {"experiment": "regret", "n_grid": [10, 100, 1000]},
        {"experiment": "margin"},
    ],
    # Certified regularized-ERM solves on dense Gaussian designs (regime),
    # basis designs (stability) and exact ERM on the same basis design.
    "solver": [
        {"experiment": "regime", "replicates": 2},
        {"experiment": "stability", "replicates": 100},
        {"experiment": "rate", "distribution": "hardB:0.1", "learner": "erm"},
    ],
    # Entropy geometry at d = 512 and dense +-1 designs; the uncertified
    # l1 projected-gradient solve dominates.
    "sparse": [
        {"experiment": "sparse", "n_grid": [128, 256, 512], "replicates": 2},
    ],
}

# Seeds whose CSV rows are stored under perfbench/reference: the CLI's
# default master seed and one held-out seed.
REFERENCE_SEEDS = (1234, 97)


def raw_configs(workload: str, seed: int) -> list[dict]:
    """The workload's configs as raw dicts, seeded with the master seed."""
    return [dict(raw, seed=seed) for raw in WORKLOADS[workload]]
