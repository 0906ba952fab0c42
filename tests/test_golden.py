"""Golden CSVs: every experiment on a reduced grid, compared byte for byte.

The CSV output is the behaviour contract: a refactor must reproduce these
files exactly. A change that moves a number regenerates them on purpose:

    PYTHONPATH=src python tests/test_golden.py

and states in CHANGES.md which numbers moved, why, and by how much.
"""

from pathlib import Path

import pytest

from smoothbench.harness import config_from_dict, run_experiment, with_defaults, write_csv

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# name -> raw config; seed 1234 (the default) throughout
GOLDEN = {
    "rate_separable_md": {"experiment": "rate", "distribution": "separable",
                          "learner": "mirror_descent", "n_grid": [32, 64, 128],
                          "replicates": 3},
    "rate_hardA": {"experiment": "rate", "distribution": "hardA",
                   "n_grid": [16, 32, 64], "replicates": 3},
    "rate_hardB": {"experiment": "rate", "distribution": "hardB:0.1",
                   "n_grid": [64, 128, 256], "replicates": 3},
    "rate_hardC": {"experiment": "rate", "distribution": "hardC:0.5",
                   "n_grid": [64, 128, 256], "replicates": 3},
    "rate_hardB_regerm": {"experiment": "rate", "distribution": "hardB:0.1",
                          "learner": "regularized_erm", "n_grid": [64, 128, 256],
                          "replicates": 2},
    "regret_exact": {"experiment": "regret", "n_grid": [10, 100], "replicates": 2},
    "regret_auto": {"experiment": "regret", "lbar_mode": "auto", "n_grid": [10, 100],
                    "replicates": 2},
    "stability": {"experiment": "stability", "replicates": 30},
    "sparse": {"experiment": "sparse", "dim": 32, "n_grid": [32, 64, 128],
               "replicates": 2},
    "regime_oracle": {"experiment": "regime", "n_grid": [8, 16, 32], "replicates": 2},
    "regime_formula": {"experiment": "regime", "lambda_policy": "formula",
                       "n_grid": [8, 16, 32], "replicates": 2},
    "margin": {"experiment": "margin", "n_grid": [256]},
}


def generate(name: str, path: Path) -> None:
    cfg = with_defaults(config_from_dict(dict(GOLDEN[name])))
    write_csv(str(path), cfg.experiment, run_experiment(cfg))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    generate(name, path)
    assert path.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden_name in sorted(GOLDEN):
        generate(golden_name, GOLDEN_DIR / f"{golden_name}.csv")
        print(f"wrote {GOLDEN_DIR / golden_name}.csv")
