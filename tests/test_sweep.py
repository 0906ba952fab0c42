"""`tests/sweep.py` stays runnable: it builds its case table from the one
`numeric_sweep()` that `tests/test_harness.py` runs in process, gives every
experiment a small grid, and runs a cheap case in a child process."""

import time
from pathlib import Path

import pytest

from smoothbench.harness import EXPERIMENTS, config_from_dict, with_defaults

import sweep


def test_every_experiment_has_a_small_grid_that_is_a_config():
    assert list(sweep.SMALL_GRIDS) == list(EXPERIMENTS)
    for experiment, grid in sweep.SMALL_GRIDS.items():
        cfg = with_defaults(config_from_dict({"experiment": experiment, "n_grid": grid}))
        assert list(cfg.n_grid) == grid


def test_case_table_covers_each_numeric_key_at_each_value():
    cases = sweep.numeric_sweep()
    assert len(cases) == len(set(map(repr, cases)))
    keys = {(experiment, key) for experiment, key, _ in cases}
    assert len(cases) == len(keys) * len(sweep.SWEEP_VALUES)
    assert ("sparse", "replicates", 10**12) in cases and ("margin", "gamma_grid", [0]) in cases
    assert sweep.case_config("regret", "replicates", 0) == {"n_grid": [10, 100], "replicates": 0}
    # a case that sweeps the grid runs on its swept grid alone
    assert sweep.case_config("rate", "n_grid", [10**6]) == {"n_grid": [10**6]}


def test_a_config_error_is_a_pass_in_a_child(tmp_path: Path):
    start = time.perf_counter()
    outcome = sweep.run_case("regret", sweep.case_config("regret", "replicates", 0), tmp_path)
    assert time.perf_counter() - start < 2.0
    assert outcome == sweep.Outcome(2, False, False) and outcome.failure() is None


@pytest.mark.parametrize("methods", [None, ["adaptive"]])
def test_regret_too_large_to_allocate_exits_two_at_once(tmp_path: Path, methods):
    # 10**12 replicates pass the entry-count rules; the run's first stack,
    # or the adaptive rows' regrets, cannot be allocated, before any draw
    config = {"n_grid": [10, 100], "replicates": 10**12}
    if methods:
        config["methods"] = methods
    start = time.perf_counter()
    outcome = sweep.run_case("regret", config, tmp_path)
    assert time.perf_counter() - start < 5.0
    assert outcome == sweep.Outcome(2, True, False)


def test_outcomes_are_judged_by_exit_traceback_and_progress():
    judge = lambda *args: sweep.Outcome(*args).failure()  # noqa: E731
    assert judge(0, True, False) is None and judge(3, True, False) is None
    assert judge(1, True, False) == "exit 1"
    assert judge(2, False, True) == "traceback (exit 2)"
    assert judge(None, True, False) is None  # a long accepted run is listed, not failed
    assert judge(None, False, False).startswith("hang in config checking")


def test_each_outcome_goes_to_one_host_independent_count():
    # a run that started counts the same whether it ended before the timeout or not
    count = lambda *args: sweep.Outcome(*args).count()  # noqa: E731
    assert count(2, False, False) == "rejected at config checking"
    for code in (0, 2, 3, None):
        assert count(code, True, False) == "run started"
    assert count(None, False, False) == count(1, True, False) == "failures"
    assert count(2, False, True) == count(0, True, True) == "failures"
