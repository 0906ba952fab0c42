"""Golden CSVs: every experiment on a reduced grid, compared byte for byte.

The CSV output is the behaviour contract: a refactor must reproduce these
files exactly. A change that moves a number regenerates them on purpose:

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file, `unchanged` or every cell that moved, and
states in CHANGES.md which numbers moved, why, and by how much.
"""

import csv
import io
import math
from pathlib import Path

import pytest

from smoothbench.harness import (
    EXPERIMENTS,
    config_from_dict,
    run_experiment,
    with_defaults,
    write_csv,
)

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
    "stability_hardC": {"experiment": "stability", "distribution": "hardC:0.5",
                        "replicates": 30},
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


def moved_cells(old: str, new: str) -> list:
    """(row, column, old, new, relative deviation) for every cell that
    differs between two CSV texts with the same header and row count; rows
    count from 1 after the header. The deviation is |new - old| / |old|
    (inf from 0, nan for a cell that is not a number)."""
    old_rows = list(csv.reader(io.StringIO(old)))
    new_rows = list(csv.reader(io.StringIO(new)))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        raise ValueError("the header or the row count changed")
    moved = []
    for i, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=1):
        for column, a, b in zip(new_rows[0], old_row, new_row):
            if a != b:
                moved.append((i, column, a, b, _rel_dev(a, b)))
    return moved


def _rel_dev(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.nan
    return abs(y - x) / abs(x) if x else math.inf


def report(name: str, old: str, new: str) -> list:
    """Lines saying how a regenerated file differs from its old text."""
    if old == new:
        return [f"{name}: unchanged"]
    try:
        moved = moved_cells(old, new)
    except ValueError as exc:
        return [f"{name}: {exc}"]
    rows = list(csv.reader(io.StringIO(old)))
    return [f"{name}: {len(moved)} cells moved"] + [
        f"  row {i} ({','.join(rows[i][:2])}) {column}: {a} -> {b} (rel {rel:.2g})"
        for i, column, a, b, rel in moved
    ]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_csv_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    generate(name, path)
    assert path.read_bytes() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


def test_every_experiment_has_a_golden():
    covered = {raw["experiment"] for raw in GOLDEN.values()}
    assert sorted(set(EXPERIMENTS) - covered) == []


def test_golden_files_and_configs_match():
    # a renamed or dropped config must not leave a CSV that no test reads
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.csv")) == sorted(GOLDEN)


def test_moved_cells_names_each_changed_cell():
    old = "method,n,mean\na,32,0.5\nb,32,0\nc,64,nan\n"
    new = "method,n,mean\na,32,0.25\nb,32,1e-17\nc,64,nan\n"
    assert moved_cells(old, old) == []
    assert moved_cells(old, new) == [
        (1, "mean", "0.5", "0.25", 0.5),
        (2, "mean", "0", "1e-17", math.inf),
    ]
    assert report("f", old, old) == ["f: unchanged"]
    assert report("f", old, new)[1] == "  row 1 (a,32) mean: 0.5 -> 0.25 (rel 0.5)"
    with pytest.raises(ValueError):
        moved_cells(old, old + "d,128,0.1\n")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for golden_name in sorted(GOLDEN):
        golden = GOLDEN_DIR / f"{golden_name}.csv"
        before = golden.read_text() if golden.exists() else ""
        generate(golden_name, golden)
        print("\n".join(report(golden_name, before, golden.read_text())))
