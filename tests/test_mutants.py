"""`tests/mutants.py` stays runnable: every mutation still finds its line,
every experiment has a small `--check` config, and one cheap mutant still
dies at its gate while the unmodified source passes that gate."""

from pathlib import Path

from smoothbench.harness import EXPERIMENTS

import mutants

SRC = Path(__file__).resolve().parents[1] / "src" / "smoothbench"


def test_every_mutation_finds_its_line_once():
    for mutant in mutants.MUTANTS:
        assert (SRC / mutant.path).read_text().count(mutant.old) == 1, mutant.name


def test_every_experiment_has_a_check_config():
    assert list(mutants.CHECK_CONFIGS) == list(EXPERIMENTS)
    assert mutants.CRITERIA


def test_a_flipped_derivative_fails_the_rate_check():
    (flip,) = [m for m in mutants.MUTANTS if m.name == "squared loss derivative sign"]
    assert mutants.gate_failures(None, ["rate --check"]) == {}
    assert mutants.gate_failures(flip, ["rate --check"]) == {"rate --check": "check failed"}
