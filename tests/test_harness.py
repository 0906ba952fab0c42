import ast
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smoothbench.harness import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    check_result,
    config_from_dict,
    fit_slope,
    load_config,
    parse_kv_text,
    rate_slope,
    run_and_emit,
    run_margin_experiment,
    run_rate_experiment,
    run_regime_experiment,
    run_regret_experiment,
    run_sparse_experiment,
    run_stability_experiment,
    seed_for,
    sparse_slopes,
    with_defaults,
)
from smoothbench import Dataset, RegimeGenerator, SparseGenerator, run_mirror_descent_batch
from smoothbench.harness import config, experiments
from smoothbench.harness.cli import build_parser, main as cli_main
from smoothbench.batch import (
    TERM_MAX_ITERS,
    TERM_STALLED,
    TERM_TOLERANCE,
    _l1_constrained_erm,
    _project_l1_ball,
    solve_regularized_erm,
)
from sweep import numeric_sweep
from test_golden import GOLDEN


def make_cfg(**kw) -> ExperimentConfig:
    return with_defaults(config_from_dict(kw))


# (raw config, fragment of the ConfigError): each is rejected by
# with_defaults before any work is done, and exits 2 on the CLI
BAD_CONFIGS = [
    ({"experiment": "rate", "geometry": "entropy"}, "unknown config key"),
    ({"experiment": "regret", "lbar_mode": "atuo"}, "unknown lbar_mode"),
    ({"experiment": "sparse", "methods": ["entropy_md", "foo"]}, "unknown sparse methods"),
    ({"experiment": "stability", "distribution": "hardZ"}, "unknown distribution"),
    ({"experiment": "rate", "distribution": "hardB:abc"},
     "distribution argument in 'hardB:abc' must be float, got 'abc'"),
    ({"experiment": "rate", "distribution": "hardA", "learner": "mirror_descent"},
     "non-smooth loss"),
    ({"experiment": "rate", "distribution": "hardA", "learner": "regularized_erm"},
     "non-smooth loss"),
    ({"experiment": "stability", "distribution": "hardA"}, "non-smooth loss"),
    ({"experiment": "stability", "replicates": 10}, "replicates >= 30"),
    ({"experiment": "rate", "distribution": "hardC:0.001"}, "bias p"),
    ({"experiment": "regime", "sigma": -1}, "sigma >= 0"),
    ({"experiment": "regret", "budget": -1}, "budget > 0"),
    ({"experiment": "margin", "gamma_grid": 5}, "margin too large"),
    # each family fixes its loss: no experiment reads a `loss` key
    ({"experiment": "rate", "loss": "squared"}, "unknown config key: 'loss'"),
    ({"experiment": "stability", "loss": "squared2"}, "unknown config key: 'loss'"),
    # a key the experiment does not read, even at another experiment's default
    ({"experiment": "regime", "methods": ["foo"]},
     "regime does not read 'methods'; only regret and sparse read it"),
    ({"experiment": "regret", "learner": "sgd"},
     "regret does not read 'learner'; only rate reads it"),
    ({"experiment": "margin", "sparsity_k": -5}, "margin does not read 'sparsity_k'"),
    ({"experiment": "regret", "tol": 1e-10},
     "regret does not read 'tol'; only rate, stability, sparse and regime read it"),
    ({"experiment": "rate", "learner": "regularized_erm", "distribution": "hardB:0.1",
      "tol": -1}, "tol must be positive"),
    ({"experiment": "sparse", "eta_scale": -1}, "eta_scale must be positive"),
    # the default budget is 2 sqrt(k)
    ({"experiment": "sparse", "sparsity_k": -1}, "sparsity_k must be >= 1, got -1"),
    ({"experiment": "sparse", "sparsity_k": 10**400}, "sparsity_k must be at most dim = 256"),
    # the step the run plays is eta_scale times the formula's, which rounds to 0 here
    ({"experiment": "sparse", "eta_scale": 1e-323},
     r"eta_scale 1e-323: scaled step size 0 at \(H, F, n, Lbar\) = \(1, "),
    ({"experiment": "regret", "budget": 0.001}, "excludes unit-norm"),
    ({"experiment": "regret", "methods": ["iid_separable"], "budget": 0.5},
     "excludes unit-norm"),
    ({"experiment": "margin", "budget": 0.5}, "excludes unit-norm"),
    ({"experiment": "margin", "n_grid": [256, 512]}, "n_grid must have one entry"),
    ({"experiment": "margin", "replicates": 5}, "replicates must be 1"),
    ({"experiment": "margin", "label_noise": -0.1}, r"label_noise must lie in \[0, 1\]"),
    ({"experiment": "margin", "label_noise": 1.5}, r"label_noise must lie in \[0, 1\]"),
    ({"experiment": "margin", "label_noise": math.nan}, "label_noise must be finite, got nan"),
    ({"experiment": "margin", "bound_k": 0}, "bound_K must be positive and finite, got 0.0"),
    ({"experiment": "margin", "bound_k": -1e5}, "bound_K must be positive and finite"),
    ({"experiment": "margin", "delta": 2}, r"delta must lie in \(0, 1\), got 2.0"),
    ({"experiment": "margin", "bound_k": math.nan}, "bound_k must be finite, got nan"),
    ({"experiment": "margin", "bound_k": math.inf}, "bound_k must be finite, got inf"),
    ({"experiment": "rate", "distribution": "separable", "learner": "erm"}, "no exact ERM"),
    # an explicit zero or empty value is the config's, not a request for the default
    ({"experiment": "regret", "replicates": 0}, "replicates must be >= 1"),
    ({"experiment": "regret", "budget": 0}, "budget > 0"),
    ({"experiment": "regime", "dim": 0}, "dim >= 1"),
    ({"experiment": "margin", "replicates": 0}, "replicates must be 1"),
    ({"experiment": "sparse", "methods": []}, "methods must not be empty"),
    ({"experiment": "margin", "gamma_grid": []}, "gamma_grid must not be empty"),
    # a non-finite number is an error wherever it sits, not a row of nan or a traceback
    ({"experiment": "regime", "budget": math.nan}, "budget must be finite, got nan"),
    ({"experiment": "regime", "sigma": math.nan}, "sigma must be finite, got nan"),
    ({"experiment": "regime", "x_scale": math.nan}, "x_scale must be finite, got nan"),
    ({"experiment": "regime", "x_scale": math.inf}, "x_scale must be finite, got inf"),
    ({"experiment": "rate", "n_grid": [16, 32, math.nan]},
     "n_grid entries must be finite, got nan"),
    ({"experiment": "margin", "gamma_grid": [0.1, math.nan]},
     "gamma_grid entries must be finite, got nan"),
    ({"experiment": "sparse", "eta_scale": math.inf}, "eta_scale must be finite, got inf"),
    ({"experiment": "stability", "tol": math.inf}, "tol must be finite, got inf"),
    ({"experiment": "margin", "budget": math.inf}, "budget must be finite, got inf"),
    # the --check thresholds live in the code, not in the config
    ({"experiment": "rate", "check_slope_max": 100}, "unknown config key: 'check_slope_max'"),
    ({"experiment": "sparse", "check_slope_max": 100}, "unknown config key: 'check_slope_max'"),
    # a repeated method would count each of its replicates twice
    ({"experiment": "sparse", "methods": ["entropy_md", "entropy_md", "l1_erm"]},
     r"sparse methods must not repeat, got \('entropy_md', 'entropy_md', 'l1_erm'\)"),
    ({"experiment": "regret", "methods": ["adaptive", "iid_separable", "adaptive"]},
     "regret methods must not repeat"),
    # only separable reads `dim`; the hard families fix their own dimension
    ({"experiment": "rate", "distribution": "hardB", "dim": 99},
     "distribution 'hardB' does not read 'dim'"),
    ({"experiment": "rate", "distribution": "hardA", "dim": 16}, "does not read 'dim'"),
    ({"experiment": "stability", "dim": 3}, "distribution 'hardB:0.1' does not read 'dim'"),
    # a budget, scale or margin at the ends of the float range: what the run
    # computes from it (F = B^2, the entropy F_max, x_scale^2, sigma^2, the
    # step size, λ, gamma^2, hardB's dim) rounds to 0, overflows or is no array size
    ({"experiment": "regime", "x_scale": 1e200},
     r"0 < x_scale\^2 < inf and sigma\^2 < inf, got dim 50, x_scale 1e\+200, sigma 0.5"),
    ({"experiment": "regime", "x_scale": 1e-200},
     r"0 < x_scale\^2 < inf and sigma\^2 < inf, got dim 50, x_scale 1e-200, sigma 0.5"),
    ({"experiment": "regime", "sigma": 1e200}, r"x_scale 5.0, sigma 1e\+200"),
    ({"experiment": "regime", "x_scale": 1e-160, "sigma": 0},
     r"least lambda candidate 3.19996e-319 / 4\^11 rounds to 0 at n = 8"),
    ({"experiment": "rate", "distribution": "separable", "learner": "mirror_descent",
      "budget": 1e150}, r"budget 1e\+150: step size 0 at \(H, F, n, Lbar\) = \(1, 1e\+300, 32, 0\)"),
    ({"experiment": "rate", "budget": 1e-155},
     r"budget 1e-155: step size inf at \(H, F, n, Lbar\) = \(1, 1e-310, 32, 0\) lies outside"),
    ({"experiment": "regret", "budget": 1e150}, r"budget 1e\+150: step size 0 at \(H, F, n, Lbar\) = \(1, "),
    ({"experiment": "sparse", "budget": 1e150}, r"budget 1e\+150: step size 0 at \(H, F, n, Lbar\) = \(1, "),
    ({"experiment": "rate", "distribution": "hardB:0.1", "learner": "regularized_erm",
      "budget": 1e-160}, r"budget 1e-160: lambda inf at \(H, F, n, Lbar\) = \(2, 9.99989e-321, 64, 0.01\)"),
    ({"experiment": "stability", "budget": 1e-160}, r"budget 1e-160: lambda inf at \(H, F, n, Lbar\) = \(2, "),
    ({"experiment": "margin", "budget": 1e150}, r"budget 1e\+150: step size 0 at \(H, F, n, Lbar\) = \(19.7392, "),
    ({"experiment": "margin", "gamma_grid": [1e-200]},
     "gamma_grid entry 1e-200: margin must be positive with a positive square, got 1e-200"),
    ({"experiment": "rate", "distribution": "hardB:1e300"},
     r"rate hardB:1e300 erm: sigma must be nonnegative with a finite square, got 1e\+300"),
    ({"experiment": "stability", "distribution": "hardB:1e300"},
     r"sigma must be nonnegative with a finite square, got 1e\+300"),
    ({"experiment": "rate", "distribution": "hardB:1e-150"},
     r"sigma 1e-150 gives dim ceil\(sqrt\(n\)/sigma\) beyond the largest array size"),
    ({"experiment": "stability", "distribution": "hardB:1e-150"},
     r"sigma 1e-150 gives dim ceil\(sqrt\(n\)/sigma\) beyond the largest array size"),
    ({"experiment": "regime", "budget": 1e-200}, r"0 < B\^2 < inf, got dim \d+, budget 1e-200"),
    ({"experiment": "regime", "budget": 1e200}, r"0 < B\^2 < inf, got dim \d+, budget 1e\+200"),
    ({"experiment": "rate", "budget": 1e-200}, r"0 < B\^2 < inf, got dim \d+, budget 1e-200"),
    ({"experiment": "rate", "budget": 1e200}, r"0 < B\^2 < inf, got dim \d+, budget 1e\+200"),
    ({"experiment": "stability", "budget": 1e-200}, r"0 < B\^2 < inf, got dim \d+, budget 1e-200"),
    ({"experiment": "stability", "budget": 1e200}, r"0 < B\^2 < inf, got dim \d+, budget 1e\+200"),
    ({"experiment": "regret", "budget": 1e-200, "methods": ["fixed_adversarial"]},
     r"0 < B\^2 < inf, got dim \d+, budget 1e-200"),
    ({"experiment": "regret", "budget": 1e200}, r"0 < B\^2 < inf, got dim \d+, budget 1e\+200"),
    ({"experiment": "margin", "budget": 1e200}, r"0 < B\^2 < inf, got dim \d+, budget 1e\+200"),
    ({"experiment": "sparse", "budget": 1e200}, r"finite F_max, got inf at budget 1e\+200"),
    # a step size in (0, inf) whose step overflows the ball projection's
    # squared norm: the projection would return 0 and every row the start's excess
    ({"experiment": "rate", "distribution": "separable", "learner": "mirror_descent",
      "budget": 1e-150},
     r"budget 1e-150: step size 1e\+300 moves the iterate up to 7.07107e\+300, whose square "
     "overflows the ball projection"),
    ({"experiment": "regret", "budget": 1e-150, "methods": ["fixed_adversarial"]},
     r"budget 1e-150: step size 1e\+300 moves the iterate"),
    # an n that no array can hold, and a trial construction too large to
    # allocate: config errors, not a traceback after the smaller n ran
    ({"experiment": "regret", "n_grid": [16, 1e30]},
     r"n_grid entries must be at most 1152921504606846975, the longest float64 array, "
     r"got 1000000000000000019884624838656"),
    ({"experiment": "rate", "distribution": "hardB:1e-15"},
     r"rate hardB:1e-15 erm: Unable to allocate"),
    # the plan builds hardB at every n, where its dim grows as sqrt(n)/sigma
    ({"experiment": "rate", "distribution": "hardB:1e-6", "n_grid": [64, 10**15],
      "replicates": 1}, r"rate hardB:1e-6 erm: Unable to allocate"),
    # an n that fits one array, but not a run's largest one
    ({"experiment": "regret", "n_grid": [16, 10**17]},
     r"an array of shape \(10, 100000000000000000, 8\) would hold more than "
     r"1152921504606846975 entries, the longest float64 array"),
    ({"experiment": "regime", "n_grid": [8, 16, 10**17]},
     r"an array of shape \(100000000000000000, 50\) would hold more than"),
    ({"experiment": "rate", "distribution": "separable", "n_grid": [32, 10**17]},
     r"an array of shape \(50, 100000000000000000\) would hold more than"),
    ({"experiment": "sparse", "n_grid": [128, 10**17]},
     r"an array of shape \(20, 100000000000000000\) would hold more than"),
    # each replicate's entropy iterate has 2 dim entries, whatever the methods
    ({"experiment": "sparse", "dim": 10**400}, r"sparse: dim: an array of shape \(20, 2000"),
    ({"experiment": "sparse", "dim": 10**400, "methods": ["l1_erm"]},
     r"sparse: dim: an array of shape \(20, 2000"),
    ({"experiment": "margin", "n_grid": [10**18]},
     r"an array of shape \(1000000000000000000, 10\) would hold more than"),
    # the probe holds one value per replicate on each side
    ({"experiment": "stability", "replicates": 1e200},
     r"stability hardB:0.1: an array of shape \(\d+,\) would hold more than"),
    # a boolean is not a number, and a distribution's argument is typed as one
    ({"experiment": "rate", "n_grid": [True, 2, 3]}, "n_grid entries must be int, got True"),
    ({"experiment": "regret", "replicates": True}, "replicates must be int, got True"),
    ({"experiment": "regret", "budget": True}, "budget must be float, got True"),
    ({"experiment": "margin", "gamma_grid": [0.1, True]},
     "gamma_grid entries must be float, got True"),
    ({"experiment": "rate", "distribution": "hardB:nan"},
     "distribution argument in 'hardB:nan' must be finite, got nan"),
    # a JSON integer beyond the float range, for a float key
    ({"experiment": "regret", "budget": 10**400}, "budget must be finite, got 1000"),
    # a certified solve's objective near L* rounds to L*'s ulp: a tol at or
    # below it cannot be met, and the solves would run to max_iters
    ({"experiment": "regime", "sigma": 1e8, "n_grid": [8, 16, 32], "replicates": 1},
     r"tol 1e-09 is at or below 2, one ulp of L\* = 1e\+16"),
    ({"experiment": "stability", "distribution": "hardB:1e8", "replicates": 30},
     r"tol 1e-10 is at or below 2, one ulp of L\* = 1e\+16"),
    ({"experiment": "regime", "sigma": 1e150, "n_grid": [8, 16, 32], "replicates": 1},
     r"tol 1e-09 is at or below 1.48702e\+284, one ulp of L\* = 1e\+300"),
    ({"experiment": "rate", "distribution": "hardB:1e8", "learner": "regularized_erm"},
     r"tol 1e-10 is at or below 2, one ulp of L\* = 1e\+16"),
    ({"experiment": "sparse", "noise": 0.9, "tol": 1e-17},
     r"tol 1e-17 is at or below 2.77556e-17, one ulp of L\* = 0.135"),
]


class TestConfig:
    def test_flat_grammar(self):
        text = """
        # rate experiment
        experiment = rate
        distribution = hardB:0.1
        n_grid = 64, 128, 256
        replicates = 5
        seed = 77
        tol = 1e-9
        """
        raw = parse_kv_text(text)
        cfg = with_defaults(config_from_dict(raw))
        assert cfg.distribution == "hardB:0.1"
        assert cfg.n_grid == (64, 128, 256)
        assert cfg.replicates == 5
        assert cfg.seed == 77
        assert cfg.tol == 1e-9
        assert cfg.learner == "erm"  # hardB default

    def test_json_alternative(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "regret", "replicates": 3}))
        cfg = with_defaults(load_config(str(path)))
        assert cfg.experiment == "regret" and cfg.replicates == 3

    def test_flat_file_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("experiment = stability\nreplicates = 31\n")
        cfg = with_defaults(load_config(str(path)))
        assert cfg.experiment == "stability" and cfg.replicates == 31
        assert cfg.distribution == "hardB:0.1"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_dict_flat_and_json_files_give_one_config(self, name, tmp_path):
        raw = GOLDEN[name]
        flat, js = tmp_path / "cfg.txt", tmp_path / "cfg.json"
        flat.write_text("".join(
            f"{key} = {', '.join(map(str, v)) if isinstance(v, list) else v}\n"
            for key, v in raw.items()
        ))
        js.write_text(json.dumps(raw))
        cfg = with_defaults(config_from_dict(dict(raw)))
        assert with_defaults(load_config(str(flat))) == cfg
        assert with_defaults(load_config(str(js))) == cfg

    def test_flat_text_is_read_as_its_field(self, tmp_path):
        # only a list key splits on commas; an integer's text stays exact
        path = tmp_path / "cfg.txt"
        seed = 2**70 + 1
        path.write_text(f"experiment = margin\nout = {tmp_path}/a,b\nseed = {seed}\n"
                        "gamma_grid = 0.1, 1\n")
        cfg = with_defaults(load_config(str(path)))
        assert cfg.out == f"{tmp_path}/a,b"
        assert cfg.seed == seed and type(cfg.seed) is int
        assert cfg.gamma_grid == (0.1, 1.0) and type(cfg.gamma_grid[1]) is float
        assert parse_kv_text("n_grid = 16 , 32,\n") == {"n_grid": "16 , 32,"}
        assert make_cfg(experiment="rate", n_grid="16 , 32,", replicates=1).n_grid == (16, 32)

    def test_overrides_beat_file_values(self):
        cfg = config_from_dict({"experiment": "regret", "seed": 1, "replicates": 9})
        apply_overrides(cfg, seed=42, replicates=None)
        assert cfg.seed == 42 and cfg.replicates == 9

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            make_cfg(experiment="warp")
        with pytest.raises(ConfigError):
            make_cfg(experiment="rate", n_grid=[64, 64])
        with pytest.raises(ConfigError):
            make_cfg(experiment="rate", n_grid=[128, 64])
        with pytest.raises(ConfigError):
            make_cfg(experiment="rate", replicates=-1)
        with pytest.raises(ConfigError):
            make_cfg(experiment="rate", distribution="hardZ")
        with pytest.raises(ConfigError):
            make_cfg(experiment="rate", learner="sgd")
        with pytest.raises(ConfigError):
            config_from_dict({"experiment": "rate", "mystery_knob": 3})
        with pytest.raises(ConfigError):
            parse_kv_text("just some words\n")
        with pytest.raises(ConfigError, match="must be int"):
            make_cfg(experiment="rate", replicates="many")
        for raw, fragment in BAD_CONFIGS:
            with pytest.raises(ConfigError, match=fragment):
                make_cfg(**raw)

    def test_swept_configs_are_configs_or_config_errors(self, monkeypatch):
        # with_defaults costs O(grid), never O(replicates), draws nothing,
        # and rejects what it rejects as a ConfigError, never a traceback
        def draw(*args, **kwargs):
            raise AssertionError("with_defaults drew")

        monkeypatch.setattr(np.random, "default_rng", draw)
        cases = numeric_sweep()
        assert ("sparse", "replicates", 10**12) in cases and ("margin", "gamma_grid", [0]) in cases
        failures = []
        for experiment, key, value in cases:
            try:
                make_cfg(experiment=experiment, **{key: value})
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 -- every other kind is the failure
                failures.append(f"{experiment} {key}={value!r}: {type(exc).__name__}: {exc}")
        assert failures == []

    @pytest.mark.parametrize("lbar_mode", ["exact", "auto"])
    def test_regret_zero_comparator_streams_run_in_a_small_ball(self, lbar_mode):
        # the fixed and adaptive streams compare against, and start at, zero:
        # a ball that excludes unit vectors is no premise of theirs
        cfg = make_cfg(
            experiment="regret", methods=["fixed_adversarial", "adaptive"],
            budget=0.5, lbar_mode=lbar_mode, n_grid=[50, 100], replicates=2,
        )
        rows = run_regret_experiment(cfg)
        assert len(rows) == 8
        assert all(math.isfinite(row.measured) for row in rows)

    def test_incompatible_loss_distribution_pair(self, tmp_path, capsys):
        # the family fixes the loss, so a config cannot name one: neither
        # another family's loss nor its own
        with pytest.raises(ConfigError, match="unknown config key: 'loss'"):
            make_cfg(
                experiment="rate", distribution="hardA", loss="squared",
                n_grid=[16, 32, 64], replicates=1,
            )
        own = tmp_path / "own.txt"
        own.write_text("distribution = hardB:0.1\nloss = squared2\nn_grid = 64, 128\n"
                       "replicates = 2\n")
        assert cli_main(["rate", "--config", str(own)]) == 2
        assert "unknown config key: 'loss'" in capsys.readouterr().err


class TestCheckMessages:
    """Every `--check` message, pinned: each experiment's check is fed
    doctored failing rows and must return exactly these lines."""

    def test_rate(self, monkeypatch):
        # every replicate's excess is doctored; the bounds are the runner's
        monkeypatch.setattr(experiments, "excess_risk", lambda dist, w: 1.0)
        separable = config.FAMILIES["separable"]
        monkeypatch.setitem(config.FAMILIES, "separable", dataclasses.replace(
            separable, rate_check=(math.nan, 1.0, separable.rate_check[2])))
        cfg = make_cfg(experiment="rate", distribution="separable", n_grid=[32, 64, 128],
                       replicates=2)
        assert check_result(cfg, run_rate_experiment(cfg)) == (False, [
            "n=32: mean 1 above bound 0.125",
            "n=64: mean 1 above bound 0.0625",
            "n=128: mean 1 above bound 0.03125",
            "slope 0.000 > -0.85",
            "slope 0.000 < 1.0",
        ])
        monkeypatch.setattr(experiments, "excess_risk", lambda dist, w: 0.01)
        cfg = make_cfg(experiment="rate", distribution="hardA", n_grid=[16, 32, 64],
                       replicates=2)
        assert check_result(cfg, run_rate_experiment(cfg)) == (False, [
            "n=16: mean 0.01 < 1.0 * lower bound 0.125",
            "n=32: mean 0.01 < 1.0 * lower bound 0.0883883",
            "n=64: mean 0.01 < 1.0 * lower bound 0.0625",
            "slope 0.000 > -0.35",
        ])

    def test_regret(self):
        row = experiments.RegretRow(stream="iid_separable", n=10, seed_index=3,
                                    measured=1.0, bound=0.5, lbar=0.0)
        assert check_result(make_cfg(experiment="regret"), [row]) == (False, [
            "iid_separable n=10 seed=3: measured 1 > bound 0.5",
        ])

    def test_stability(self):
        row = experiments.StabilityRow(n=64, lam=0.1, lhs_mean=1.0, lhs_stderr=0.01,
                                       rhs_mean=0.5, rhs_stderr=0.01, combined_stderr=0.1,
                                       replicates=30, max_iters_hits=2)
        assert check_result(make_cfg(experiment="stability"), [row]) == (False, [
            "n=64: 2 solves stopped at max_iters",
            "n=64: lhs 1 > rhs 0.5 + 2 stderres",
        ])

    def test_sparse(self):
        rows = [
            experiments.SparseRow(method="entropy_md", n=n, dim=32, k=4, mean_excess=1.0,
                                  stderr=0.0, bound=0.5, max_iters_hits=2 * (n == 64))
            for n in (64, 128, 256)
        ]
        assert check_result(make_cfg(experiment="sparse"), rows) == (False, [
            "entropy_md n=64: 2 solves stopped at max_iters",
            "entropy_md slope 0.000 > -0.85",
        ])
        # a slope that cannot be fitted fails the check; another method's rows are not fitted
        rows = [
            experiments.SparseRow(method=method, n=n, dim=32, k=4, mean_excess=0.0,
                                  stderr=0.0, bound=0.5, max_iters_hits=0)
            for n in (64, 128, 256) for method in ("entropy_md", "l1_erm")
        ]
        with pytest.warns(UserWarning, match="dropped 3 non-positive rows"):
            assert check_result(make_cfg(experiment="sparse"), rows) == (False, [
                "entropy_md slope: need at least 3 rows with positive means, have 0",
            ])

    def test_regime(self):
        row = experiments.RegimeRow(n=8, mean_excess=1.0, stderr=0.0, envelope=0.1,
                                    active_term="random", lam=0.5, max_iters_hits=3)
        assert check_result(make_cfg(experiment="regime"), [row]) == (False, [
            "n=8: 3 solves stopped at max_iters",
            "n=8: excess 1 > 8.0 * envelope 0.1",
        ])

    def test_margin(self):
        row = experiments.MarginRow(gamma=0.1, margin_error=0.2, rhs=0.3,
                                    rhs_simplified=0.3, holdout_error=0.4)
        assert check_result(make_cfg(experiment="margin"), [row]) == (False, [
            "gamma=0.1: rhs 0.3 < holdout 0.4",
        ])


class TestSeedDiscipline:
    def test_deterministic_and_distinct(self):
        a = seed_for(7, "rate", 0, 0)
        assert a == seed_for(7, "rate", 0, 0)
        others = {
            seed_for(7, "rate", 0, 1),
            seed_for(7, "rate", 1, 0),
            seed_for(8, "rate", 0, 0),
            seed_for(7, "regret", 0, 0),
        }
        assert a not in others and len(others) == 4

    @pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
    def test_premises_take_any_master_seed(self, experiment):
        # seed_for takes any integer, and no plan draws: none passes the
        # master seed to a constructor or a generator
        assert make_cfg(experiment=experiment, seed=-1).seed == -1

    def test_a_negative_master_seed_runs(self):
        cfg = make_cfg(experiment="rate", n_grid=[32, 64, 128], replicates=2, seed=-1)
        assert len(run_rate_experiment(cfg)) == 3


class TestFitSlope:
    def test_exact_power_laws(self):
        ns = [10, 100, 1000, 10000]
        slope, intercept, resid = fit_slope(ns, [7.0 / n for n in ns])
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(7.0), abs=1e-12)
        assert resid == pytest.approx(0.0, abs=1e-12)
        slope, _, _ = fit_slope(ns, [3.0 / math.sqrt(n) for n in ns])
        assert slope == pytest.approx(-0.5, abs=1e-12)
        slope, _, _ = fit_slope(ns, [4.2] * 4)
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_rows_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="dropped"):
            slope, _, _ = fit_slope([10, 100, 1000, 10000], [1.0, 0.1, 0.0, 0.001])
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                fit_slope([10, 100, 1000], [1.0, 0.0, -0.5])

    def test_ns_may_be_a_generator(self):
        # the rows are counted as read: no warning when none is dropped
        ns, means = [10, 100, 1000, 10000], [1.0, 0.1, 0.01, 0.001]
        assert fit_slope(iter(ns), means) == fit_slope(ns, means)
        with pytest.warns(UserWarning, match="dropped 1 non-positive rows"):
            fit_slope((n for n in ns), [1.0, 0.1, 0.0, 0.001])


class TestRegretExperiment:
    def test_rows_satisfy_bound_and_separable_column(self):
        cfg = make_cfg(experiment="regret", n_grid=[10, 100], replicates=2)
        rows = run_regret_experiment(cfg)
        assert {r.stream for r in rows} == {
            "iid_separable", "fixed_adversarial", "adaptive",
        }
        for r in rows:
            assert r.measured <= r.bound + 1e-9
            if r.stream == "iid_separable":
                assert r.bound == pytest.approx(4.0 / r.n, rel=1e-12)  # 4 H F / n
        ok, failures = check_result(cfg, rows)
        assert ok, failures

    def test_zero_gradient_stream_has_nonpositive_regret(self):
        from smoothbench import (
            average_regret, euclidean_setup, fixed_stream, make_squared,
            regret_bound, run_mirror_descent, stepsize_for,
        )

        setup = euclidean_setup(2, 1.0)
        xs = np.tile(np.array([[1.0, 0.0]]), (20, 1))
        trace = run_mirror_descent(
            setup, make_squared(), fixed_stream(xs, np.zeros(20)),
            stepsize_for(1.0, 1.0, 20, 0.0),
        )
        measured = average_regret(trace, np.zeros(2))
        assert measured <= 0.0 <= regret_bound(1.0, 1.0, 20, 0.0)

    def test_doubling_lbar_heuristic_labeled(self):
        cfg = make_cfg(
            experiment="regret", n_grid=[50], replicates=1, lbar_mode="auto"
        )
        rows = run_regret_experiment(cfg)
        auto = [r for r in rows if r.stream == "fixed_adversarial:auto_lbar"]
        assert len(auto) == 1
        assert auto[0].lbar > 0

    @pytest.mark.parametrize("lbar_mode", ["exact", "auto"])
    def test_fixed_rows_replay_each_stream_alone(self, lbar_mode):
        # each fixed stream, redrawn and played alone at each candidate's
        # step: exact keeps the run at the zero vector's hindsight loss, auto
        # the first lowest regret among the doubling candidates at or above it
        from smoothbench import (
            euclidean_setup, fixed_stream, make_squared, regret_bound, run_mirror_descent,
            stepsize_for,
        )
        from smoothbench.distributions import draw_signs, draw_unit_vector

        cfg = make_cfg(experiment="regret", dim=2, n_grid=[5, 10], replicates=4,
                       lbar_mode=lbar_mode, methods=["fixed_adversarial"])
        rows = run_regret_experiment(cfg)
        loss, setup = make_squared(), euclidean_setup(cfg.dim, cfg.budget)
        h, f = loss.smoothness_H, setup.f_max
        kept = []  # the index of each row's candidate among those that fit
        for i, n in enumerate(cfg.n_grid):
            for j in range(cfg.replicates):
                rng = np.random.default_rng(seed_for(cfg.seed, "regret", i, j))
                draw_unit_vector(rng, cfg.dim)  # the i.i.d. stream's comparator
                xs = rng.standard_normal((n, cfg.dim))
                xs /= np.linalg.norm(xs, axis=1, keepdims=True)
                ys = draw_signs(rng, n) * rng.uniform(0.2, 1.0, size=n)
                hindsight = float(np.mean(loss.value(0.0, ys)))
                if lbar_mode == "exact":
                    fits = [hindsight]
                else:
                    grid = [loss.range_bound_b / 2**k for k in range(12)]
                    fits = [c for c in grid if c >= hindsight]
                regrets = [
                    float(np.mean(run_mirror_descent(
                        setup, loss, fixed_stream(xs, ys), stepsize_for(h, f, n, lbar)
                    ).losses)) - hindsight
                    for lbar in fits
                ]
                k = regrets.index(min(regrets))
                (row,) = [r for r in rows if (r.n, r.seed_index) == (n, j)]
                assert (row.measured, row.lbar) == (regrets[k], fits[k])
                assert row.bound == regret_bound(h, f, n, fits[k])
                kept.append((k, len(fits)))
        if lbar_mode == "auto":  # some row keeps a candidate other than the first that fits
            assert any(k > 0 for k, _ in kept) and max(width for _, width in kept) > 1

    def test_adaptive_stream_is_played_once_per_n(self, monkeypatch):
        from smoothbench import (
            adaptive_stream, average_regret, euclidean_setup, make_squared,
            run_mirror_descent, run_mirror_descent_batch, stepsize_for,
        )

        calls = []

        def counted(*args, **kwargs):
            run = run_mirror_descent_batch(*args, **kwargs)
            calls.append(run.losses.shape)  # one run of n rounds: shape (n,)
            return run

        monkeypatch.setattr(experiments, "run_mirror_descent_batch", counted)
        cfg = make_cfg(
            experiment="regret", n_grid=[20, 50], replicates=3, methods=["adaptive"]
        )
        rows = run_regret_experiment(cfg)
        assert calls == [(20,), (50,)]
        assert [(r.n, r.seed_index) for r in rows] == [
            (n, j) for n in (20, 50) for j in range(3)
        ]
        dim = cfg.dim
        setup = euclidean_setup(dim, cfg.budget)

        def adversary(i, w):  # plays e_(i mod d) against the sign of w_i
            x = np.zeros(dim)
            x[i % dim] = 1.0
            return x, (-1.0 if w[i % dim] >= 0 else 1.0)

        for n in (20, 50):
            trace = run_mirror_descent(
                setup, make_squared(), adaptive_stream(adversary, n),
                stepsize_for(1.0, setup.f_max, n, 0.5),
            )
            played = average_regret(trace, np.zeros(dim))
            assert [r.measured for r in rows if r.n == n] == [played] * 3

    def test_stream_kind_selection(self):
        cfg = make_cfg(
            experiment="regret", n_grid=[20], replicates=2, methods=["adaptive"]
        )
        rows = run_regret_experiment(cfg)
        assert {r.stream for r in rows} == {"adaptive"}
        with pytest.raises(ConfigError, match="unknown regret methods"):
            make_cfg(experiment="regret", methods=["bandit"])


class TestRateExperiment:
    def test_separable_mirror_descent_rows_below_bound(self):
        cfg = make_cfg(
            experiment="rate", distribution="separable",
            n_grid=[32, 64, 128, 256], replicates=5,
        )
        rows = run_rate_experiment(cfg)
        for row in rows:
            assert row.mean <= row.bound  # 4 H F / n with Lbar = 0
            assert math.isnan(row.lower_bound)
        assert rate_slope(rows) < -0.8

    def test_separable_holds_no_identity_matrix(self, traced_peak):
        # the one-hot rounds share one (R, d) buffer: at d = 4000 an identity
        # matrix alone would be 128 MB
        cfg = make_cfg(experiment="rate", distribution="separable", dim=4000,
                       n_grid=[32, 64, 128], replicates=2)
        rows, peak = traced_peak(run_rate_experiment, cfg)
        assert all(0 < r.mean <= r.bound for r in rows)
        assert peak < 16 * 2**20

    def test_batched_mirror_descent_rejects_a_doubled_design(self):
        # the euclidean runs stack dense rows or basis indices; a doubled
        # dataset's xs is only its signed half
        from smoothbench import euclidean_setup, sparse_generator

        gen = sparse_generator(4, 1, seed=5)
        with pytest.raises(ValueError, match="dense or basis designs"):
            experiments._batched_mirror_descent(
                euclidean_setup(8, 1.0), 0.1, 1, 8, [(gen, gen.sample_doubled(8, 6))]
            )

    def test_hard_b_erm_at_a_sigma_whose_cube_overflows(self):
        # sigma = 1e150: the sample means are about 1e150, so ||w||^3 in the
        # Newton step overflows; every ERM still lands on the unit sphere,
        # where hardB's excess is at most (1 + 1/2)^2 / d
        cfg = make_cfg(experiment="rate", distribution="hardB:1e150",
                       n_grid=[64, 128, 256], replicates=2)
        rows = run_rate_experiment(cfg)
        assert all(0 <= r.mean <= 2.25 for r in rows)

    def test_hard_a_rows_exact_floor(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA",
            n_grid=[16, 32, 64, 128], replicates=3,
        )
        rows = run_rate_experiment(cfg)
        for row in rows:
            assert row.mean >= row.lower_bound  # 1/(2 sqrt(n)), exactly
        ok, failures = check_result(cfg, rows)
        assert ok, failures

    def test_hard_a_floor_checked_at_every_n(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA",
            n_grid=[16, 32, 64, 128], replicates=3,
        )
        rows = run_rate_experiment(cfg)
        assert all(r.floor_applies for r in rows)
        rows = [dataclasses.replace(r, mean=0.9 * r.lower_bound) for r in rows]
        ok, failures = check_result(cfg, rows)
        assert not ok
        floor = [f.split(":")[0] for f in failures if "lower bound" in f]
        assert floor == ["n=16", "n=32", "n=64", "n=128"]

    def test_hard_b_default_check_passes(self):
        # n = 64 < d = 80: the design leaves coordinates unseen, so the floor
        # is not promised there; every larger grid point has n >= d
        cfg = make_cfg(experiment="rate", distribution="hardB:0.1")
        rows = run_rate_experiment(cfg)
        assert [r.n for r in rows if not r.floor_applies] == [64]
        ok, failures = check_result(cfg, rows)
        assert ok, failures

    def test_hard_b_floor_still_checked_from_n_128(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardB:0.1",
            n_grid=[64, 128, 256], replicates=5,
        )
        rows = [
            dataclasses.replace(r, mean=0.4 * r.lower_bound) if r.n == 128 else r
            for r in run_rate_experiment(cfg)
        ]
        ok, failures = check_result(cfg, rows)
        assert not ok
        floor = [f.split(":")[0] for f in failures if "lower bound" in f]
        assert floor == ["n=128"]

    def test_hard_b_floor_is_not_held_against_regularized_erm(self):
        # sqrt(L*/n) is the exact ERM's floor; the regularized solution
        # shrinks toward 0 and lands under it (about 4x at n >= 128)
        cfg = make_cfg(
            experiment="rate", distribution="hardB:0.1", learner="regularized_erm",
            n_grid=[64, 128, 256, 512], replicates=3,
        )
        rows = run_rate_experiment(cfg)
        assert config.FAMILIES["hardB"].rate_check[0] == 0.5
        assert all(r.mean < 0.5 * r.lower_bound for r in rows)
        ok, failures = check_result(cfg, rows)
        assert ok, failures
        assert not any(r.floor_applies for r in rows)

    def test_regularized_erm_learner_path(self):
        cfg = make_cfg(
            experiment="rate", distribution="separable", learner="regularized_erm",
            n_grid=[32, 64, 128], replicates=3,
        )
        for row in run_rate_experiment(cfg):
            assert row.mean <= row.bound
            assert row.max_iters_hits == 0

    def test_regularized_erm_max_iters_hits_fail_the_check(self, monkeypatch):
        cfg = make_cfg(
            experiment="rate", distribution="separable", learner="regularized_erm",
            n_grid=[32, 64, 128], replicates=3,
        )
        _cap_solver_iterations(monkeypatch)
        rows = run_rate_experiment(cfg)
        assert [r.max_iters_hits for r in rows] == [3, 3, 3]
        ok, failures = check_result(cfg, rows)
        assert not ok
        assert "n=32: 3 solves stopped at max_iters" in failures

    def test_degenerate_single_row_grid(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA", n_grid=[64], replicates=2,
        )
        rows = run_rate_experiment(cfg)
        assert len(rows) == 1
        with pytest.raises(ValueError):
            rate_slope(rows)


class TestStabilityExperiment:
    def test_inequality_holds_on_small_config(self):
        cfg = make_cfg(experiment="stability", n_grid=[32], replicates=40)
        rows = run_stability_experiment(cfg)
        (row,) = rows
        assert row.lhs_mean <= row.rhs_mean + 2 * row.combined_stderr
        assert row.replicates == 40
        assert row.max_iters_hits == 0
        ok, _ = check_result(cfg, rows)
        assert ok
        # separable reads `dim`, which stability defaults like rate does; a
        # hard family reads none, so none is filled in
        cfg = make_cfg(experiment="stability", distribution="separable", replicates=30)
        assert cfg.dim == 16 and len(run_stability_experiment(cfg)) == 1
        assert make_cfg(experiment="stability").dim is None

    def test_max_iters_hits_fail_the_check(self, monkeypatch):
        from smoothbench import batch

        cfg = make_cfg(experiment="stability", n_grid=[32], replicates=30)
        _cap_solver_iterations(monkeypatch, batch)
        (row,) = rows = run_stability_experiment(cfg)
        assert row.max_iters_hits == 2 * 30  # each replicate solves twice
        ok, failures = check_result(cfg, rows)
        assert not ok
        assert "n=32: 60 solves stopped at max_iters" in failures


class TestSparseExperiment:
    def test_zero_target_generator_learns_nothing_to_learn(self):
        # w0 = 0 corresponds to sparsity k with zero magnitude; emulate by
        # noiseless k=1 and scaling the target to zero via noise=0 targets
        cfg = make_cfg(
            experiment="sparse", n_grid=[64, 128], replicates=2,
            methods=["entropy_md"], sparsity_k=1, dim=16,
        )
        rows = run_sparse_experiment(cfg)
        for r in rows:
            assert r.mean_excess >= -1e-12

    def test_each_design_is_drawn_once(self, monkeypatch):
        draws = []
        draw = SparseGenerator._draw

        def counted(self, n, seed):
            draws.append((n, seed))
            return draw(self, n, seed)

        monkeypatch.setattr(SparseGenerator, "_draw", counted)
        cfg = make_cfg(experiment="sparse", n_grid=[32, 64], replicates=2, dim=16)
        assert set(cfg.methods) == {"entropy_md", "entropy_regerm", "l1_erm"}
        run_sparse_experiment(cfg)
        assert len(draws) == len(set(draws)) == len(cfg.n_grid) * cfg.replicates

    def test_l1_feasibility_and_projection(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.standard_normal(20) * 3
            radius = float(rng.uniform(0.5, 4))
            p = _project_l1_ball(v, radius)
            assert float(np.sum(np.abs(p))) <= radius * (1 + 1e-9)
            inside = rng.standard_normal(20)
            inside *= radius / (2 * float(np.sum(np.abs(inside))))
            assert _project_l1_ball(inside, radius) is inside  # the l1 solve relies on it

    def test_projection_is_euclidean_nearest_point(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = rng.standard_normal(4) * 2
            p = _project_l1_ball(v, 1.0)
            # no random feasible point is closer
            for _ in range(200):
                q = rng.standard_normal(4)
                q /= float(np.sum(np.abs(q))) / float(rng.uniform(0, 1))
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9

    @staticmethod
    def _project(v, radius):
        if float(np.sum(np.abs(v))) <= radius:
            return v
        u = np.sort(np.abs(v))[::-1]
        cumsum = np.cumsum(u)
        k = int(np.nonzero(u * np.arange(1, u.size + 1) > cumsum - radius)[0][-1])
        tau = (cumsum[k] - radius) / (k + 1.0)
        return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)

    @classmethod
    def _reference_l1(cls, data, loss, radius, max_iters, floor_stop=True):
        """(w, iterations, termination) of the l1 loop without the Gram
        form: every trial pays its own matvec and np.mean, and |v| is taken
        twice in the projection. Same step protocol; with floor_stop, the
        same floor stop rule, decided on the directly evaluated objective."""
        w = np.zeros(data.dim)
        preds = data.predictions(w)
        obj = float(np.mean(loss.value(preds, data.ys)))
        best, since_best, step = obj, 0, 1.0
        for iterations in range(1, max_iters + 1):
            g = data.grad_combination(np.asarray(loss.derivative(preds, data.ys))) / data.n
            while True:
                trial = step
                w_new = cls._project(w - trial * g, radius)
                preds_new = data.predictions(w_new)
                obj_new = float(np.mean(loss.value(preds_new, data.ys)))
                d = w_new - w
                if obj_new <= obj + float(g @ d) + float(d @ d) / (2.0 * trial) + 1e-15:
                    break
                step *= 0.5
                if step < 1e-18:
                    break
            w, obj, preds = w_new, obj_new, preds_new
            step *= 2.0
            if obj < (0.5 * best if obj <= 1e-15 else best):
                best, since_best = obj, 0
            else:
                since_best += 1
            if math.sqrt(float(d @ d)) <= 1e-12:
                return w, iterations, TERM_STALLED
            if floor_stop and obj <= 1e-15 and since_best >= 50:
                return w, iterations, TERM_TOLERANCE
        return w, iterations, TERM_MAX_ITERS

    # n < d, n = d, n > d; an active ball; a ball so small the step stop fires
    L1_CASES = [(32, 4.0), (64, 4.0), (256, 4.0), (64, 0.1), (64, 1e-13)]

    @staticmethod
    def _l1_problem(n, noise=0.1):
        from smoothbench import sparse_generator

        gen = sparse_generator(64, 4, seed=5, noise=noise)
        return gen, gen.sample_signed(n, seed=6)

    @pytest.mark.parametrize("n, radius", L1_CASES)
    def test_l1_solve_matches_reference_loop(self, n, radius):
        # same iterations and the same way out: n = 32 reaches the floor,
        # a ball of 1e-13 stalls, the rest run to the cap
        gen, data = self._l1_problem(n)
        report = _l1_constrained_erm(data, radius, max_iters=300)
        _, iterations, termination = self._reference_l1(data, gen.loss, radius, 300)
        assert (report.iterations, report.termination) == (iterations, termination)
        assert (termination == TERM_TOLERANCE) == (n == 32)
        if radius < 1:
            assert float(np.sum(np.abs(report.w))) == pytest.approx(radius, rel=1e-12)

    @pytest.mark.parametrize("n, radius", L1_CASES)
    def test_l1_solve_stays_on_the_matvec_per_trial_loop(self, n, radius):
        # the Gram form's closed-form trials reorder the rounding only
        gen, data = self._l1_problem(n)
        report = _l1_constrained_erm(data, radius, max_iters=300)
        want, _, _ = self._reference_l1(data, gen.loss, radius, 300)
        assert float(np.max(np.abs(report.w - want))) <= 1e-12

    @pytest.mark.parametrize("n", [128, 256])
    def test_l1_noise_free_solve_stops_at_the_rounding_floor(self, n):
        # n >= 2d, L* = 0: the non-negative objective certifies itself
        gen, data = self._l1_problem(n, noise=0.0)
        report = _l1_constrained_erm(data, 4.0, 2000)
        want, iterations, _ = self._reference_l1(data, gen.loss, 4.0, 2000)
        assert report.termination == TERM_TOLERANCE
        assert report.iterations == iterations < 2000
        assert report.certificate == report.objective <= 1e-15
        excess = gen.true_risk(report.w) - gen.l_star
        assert abs(excess - (gen.true_risk(want) - gen.l_star)) <= 1e-15

    def test_l1_creeping_floor_solve_stops(self):
        # n < d, L* = 0: the objective sits at the floor but sets a new low
        # at least once in every 50 iterations; only a halving resets the
        # patience, so the solve stops long before max_iters
        gen, data = self._l1_problem(32, noise=0.0)
        report = _l1_constrained_erm(data, 4.0, 2000)
        assert report.termination == TERM_TOLERANCE
        assert report.iterations < 500
        assert report.certificate <= 1e-15
        want, iterations, _ = self._reference_l1(data, gen.loss, 4.0, 2000)
        assert report.iterations == iterations
        assert float(np.max(np.abs(report.w - want))) <= 1e-12
        # the 2,000 iterations it no longer runs move its excess by < 1e-6
        full, _, _ = self._reference_l1(data, gen.loss, 4.0, 2000, floor_stop=False)
        excess = gen.true_risk(report.w) - gen.l_star
        assert excess == pytest.approx(gen.true_risk(full) - gen.l_star, rel=1e-6)

    def test_l1_noise_free_solve_above_the_floor_runs_to_max_iters(self):
        # n = d: the objective is still far above the floor at max_iters
        gen, data = self._l1_problem(64, noise=0.0)
        report = _l1_constrained_erm(data, 4.0, 2000)
        assert report.termination == TERM_MAX_ITERS
        assert report.iterations == 2000
        assert report.certificate == math.inf
        want, _, _ = self._reference_l1(data, gen.loss, 4.0, 2000)
        assert float(np.max(np.abs(report.w - want))) <= 1e-12

    class _LoggedDesign(np.ndarray):
        """A design that logs the operand shapes of every matrix product it
        takes part in. 2-D results (X^T X and A = X^T X / n) stay logged;
        vectors come back as plain arrays."""

        log: list = []

        def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
            if ufunc is np.matmul:
                self.log.append(tuple(np.shape(a) for a in inputs))
            plain = [np.asarray(a) for a in inputs]
            if out is not None:  # in place: write through to the logged array
                getattr(ufunc, method)(*plain, out=tuple(map(np.asarray, out)), **kwargs)
                return out[0]
            result = getattr(ufunc, method)(*plain, **kwargs)
            return result.view(type(self)) if np.ndim(result) == 2 else result

    @pytest.mark.parametrize("radius", [4.0, 0.1])
    def test_l1_solve_design_products(self, monkeypatch, radius):
        from smoothbench import batch

        gen, data = self._l1_problem(32)  # n = 32, d = 64
        n, d = data.xs.shape
        log = []
        monkeypatch.setattr(self._LoggedDesign, "log", log)
        object.__setattr__(data, "xs", data.xs.view(self._LoggedDesign))
        projected = []

        def project(v, r):
            p = _project_l1_ball(v, r)
            projected.append(p is not v)
            return p

        monkeypatch.setattr(batch, "_project_l1_ball", project)
        report = _l1_constrained_erm(data, radius, max_iters=300)
        shapes = {s: log.count(s) for s in set(log)}
        # X^T X once; one d×d product A g per iteration
        assert shapes.pop(((d, n), (n, d))) == 1
        assert shapes.pop(((d, d), (d,))) == report.iterations > 100
        # X w at the start, on each projected trial, and at the floor checks
        # (one as the objective nears the floor, one to decide the stop);
        # X^T r at the start and for an accepted projected trial's gradient
        checks = 2 if report.termination == TERM_TOLERANCE else 0
        assert shapes.pop(((n, d), (d,))) == 1 + sum(projected) + checks
        assert 1 <= shapes.pop(((d, n), (n,))) <= 1 + sum(projected)
        assert shapes == {}
        assert (report.termination == TERM_TOLERANCE) == (radius > 1)
        assert all(projected) == (radius < 1)  # a small ball moves every trial

    def test_l1_max_iters_hits_are_not_counted(self, monkeypatch):
        # n = d l1 solves run to max_iters by design; sparse --check must not fail on them
        def capped(data, radius):
            return _l1_constrained_erm(data, radius, max_iters=3)

        monkeypatch.setattr(experiments, "_l1_constrained_erm", capped)
        cfg = make_cfg(
            experiment="sparse", n_grid=[32, 64, 128], replicates=1, dim=16,
            methods=["entropy_md", "l1_erm"],
        )
        rows = run_sparse_experiment(cfg)
        assert [r.max_iters_hits for r in rows if r.method == "l1_erm"] == [0, 0, 0]
        assert not any("l1_erm" in f for f in check_result(cfg, rows)[1])

    def test_max_iters_hits_fail_the_check(self, monkeypatch):
        cfg = make_cfg(
            experiment="sparse", n_grid=[32, 64, 128], replicates=2, dim=16,
            methods=["entropy_md", "entropy_regerm"],
        )
        assert all(r.max_iters_hits == 0 for r in run_sparse_experiment(cfg))
        _cap_solver_iterations(monkeypatch)
        rows = run_sparse_experiment(cfg)
        hits = {(r.method, r.n): r.max_iters_hits for r in rows}
        assert hits == {(m, n): 2 * (m == "entropy_regerm") for m in cfg.methods
                        for n in cfg.n_grid}
        ok, failures = check_result(cfg, rows)
        assert not ok
        assert "entropy_regerm n=32: 2 solves stopped at max_iters" in failures

    def test_methods_and_slopes(self):
        cfg = make_cfg(
            experiment="sparse", n_grid=[64, 128, 256], replicates=3, dim=32,
            sparsity_k=2, methods=["entropy_md", "l1_erm"],
        )
        rows = run_sparse_experiment(cfg)
        assert {r.method for r in rows} == {"entropy_md", "l1_erm"}
        slopes = sparse_slopes(rows)
        assert set(slopes) == {"entropy_md", "l1_erm"}


class TestOneBatchPerGridPoint:
    """Each experiment plays its mirror-descent runs as one
    run_mirror_descent_batch call per grid point (and stream kind)."""

    @staticmethod
    def recorded(monkeypatch) -> list:
        """The (ys, eta, run) of each run_mirror_descent_batch call that the
        experiments make from now on."""
        calls = []

        def record(setup, loss, ys, eta, **kwargs):
            calls.append((ys, eta, run_mirror_descent_batch(setup, loss, ys, eta, **kwargs)))
            return calls[-1][-1]

        monkeypatch.setattr(experiments, "run_mirror_descent_batch", record)
        return calls

    @pytest.mark.parametrize("raw, shapes", [
        ({"experiment": "rate", "n_grid": [16, 32], "replicates": 3}, [(3,)] * 2),
        ({"experiment": "rate", "distribution": "hardB:0.1", "learner": "mirror_descent",
          "n_grid": [16, 32], "replicates": 3}, [(3,)] * 2),
        # i.i.d. and fixed streams batch their replicates; the unseeded
        # adaptive adversary is one run
        ({"experiment": "regret", "n_grid": [10, 20], "replicates": 3},
         [(3,), (3,), ()] * 2),
        ({"experiment": "sparse", "dim": 8, "n_grid": [16, 32], "replicates": 3},
         [(3,)] * 2),
        ({"experiment": "margin", "n_grid": [64]}, [()]),
    ])
    def test_batch_shapes(self, monkeypatch, raw, shapes):
        calls = self.recorded(monkeypatch)
        cfg = make_cfg(**raw)
        EXPERIMENTS[cfg.experiment].run(cfg)
        assert [run.averages.shape[:-1] for _, _, run in calls] == shapes

    def test_sparse_batch_is_each_replicates_run(self, monkeypatch):
        # the packed stack's doubled rows replay each replicate's own sample,
        # also where the last byte of a row holds fewer than 8 signs
        from smoothbench import entropy_setup, sparse_generator

        calls = self.recorded(monkeypatch)
        cfg = make_cfg(experiment="sparse", dim=11, n_grid=[40], replicates=3, noise=0.2)
        run_sparse_experiment(cfg)
        ((ys, eta, run),) = calls
        (_, _, ((_, step, _),)) = EXPERIMENTS["sparse"].premises(cfg)
        assert eta == step  # one step for every replicate
        for j in range(3):
            gen = sparse_generator(
                11, cfg.sparsity_k, seed_for(cfg.seed, "sparse-gen", 0, j), noise=0.2
            )
            data = gen.sample_doubled(40, seed_for(cfg.seed, "sparse-data", 0, j))
            alone = run_mirror_descent_batch(
                entropy_setup(22, cfg.budget), gen.loss, data.ys, step, xs=data.dense_xs()
            )
            assert np.array_equal(ys[j], data.ys)
            assert np.array_equal(run.averages[j], alone.averages)

    def test_sparse_holds_one_float_design(self, traced_peak):
        # one replicate's float signed half X (n * dim * 8 B = 256 KiB) and
        # the stack of signs packed to bits (R * n * dim / 8 B = 32 KiB) are
        # alive together; a doubled [X, -X] array alone would be 512 KiB,
        # and R float designs 2 MiB
        n, dim, reps = 512, 64, 8
        cfg = make_cfg(experiment="sparse", dim=dim, n_grid=[n], replicates=reps)
        float_design, stack = n * dim * 8, reps * n * dim // 8
        _, peak = traced_peak(run_sparse_experiment, cfg)
        assert peak < 2 * float_design + stack < reps * float_design


class TestPlans:
    """Each run reads its constants from its experiment's premises hook,
    the plan that with_defaults checks."""

    # the golden configs, and sparse at a k = 7 whose comparator weight 1/7 is
    # inexact: its closed-form radius still equals the summed Bregman distance
    PLAYED = {**GOLDEN, "sparse_k7": {"experiment": "sparse", "dim": 64, "sparsity_k": 7,
                                      "n_grid": [32, 64, 128], "replicates": 3}}

    @pytest.mark.parametrize("name", sorted(PLAYED))
    def test_runs_play_the_steps_and_lambdas_of_their_plan(self, name, monkeypatch):
        # every eta given to run_mirror_descent_batch and every λ given to
        # solve_regularized_erm (also through stability_probe), in order
        from smoothbench import batch, stepsize_for

        etas, lams = [], []

        def play(setup, loss, ys, eta, **kwargs):
            n = np.shape(kwargs["xs"])[-2] if callable(ys) else np.shape(ys)[-1]
            etas.append((n, np.asarray(eta, dtype=float).tolist()))
            return run_mirror_descent_batch(setup, loss, ys, eta, **kwargs)

        def solve(setup, loss, data, lam, **kwargs):
            lams.append(lam)
            return solve_regularized_erm(setup, loss, data, lam, **kwargs)

        monkeypatch.setattr(experiments, "run_mirror_descent_batch", play)
        monkeypatch.setattr(experiments, "solve_regularized_erm", solve)
        monkeypatch.setattr(batch, "solve_regularized_erm", solve)
        cfg = make_cfg(**self.PLAYED[name])
        spec = EXPERIMENTS[cfg.experiment]
        plan = spec.premises(cfg)
        spec.run(cfg)
        reps = cfg.replicates
        if cfg.experiment in ("rate", "stability"):
            steps = [(n, step) for n, _, step, _ in plan]
            if cfg.learner == "mirror_descent":
                assert etas == steps and lams == []
            elif cfg.learner == "regularized_erm":
                assert etas == [] and lams == [step for _, step in steps for _ in range(reps)]
            elif cfg.learner == "erm":
                assert etas == lams == [] and all(step is None for _, step in steps)
            else:  # stability: one grid point, its probe's every solve at its λ
                assert etas == [] and lams and set(lams) == {step for _, step in steps}
        elif cfg.experiment == "sparse":  # one step and one λ per n, for every replicate
            _, _, points = plan
            assert etas == [(n, eta) for n, eta, _ in points]
            assert lams == [lam for _, _, lam in points for _ in range(reps)]
        elif cfg.experiment == "regime":  # each replicate solves every candidate
            _, points = plan
            assert etas == []
            assert lams == [lam for _, cands in points for _ in range(reps) for lam in cands]
        elif cfg.experiment == "margin":
            assert etas == [(cfg.n_grid[-1], plan[2])] and lams == []
        else:  # regret: a stream's step reads its drawn Lbar, in the plan's bracket [0, b]
            setup, loss = plan
            assert lams == [] and {n for n, _ in etas} == set(cfg.n_grid)
            for n, eta in etas:
                low, high = (stepsize_for(loss.smoothness_H, setup.f_max, n, lbar)
                             for lbar in (loss.range_bound_b, 0.0))
                assert all(low <= e <= high for e in np.ravel(eta))

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_plans_draw_nothing(self, name, monkeypatch):
        # each constant a plan reads is a closed form, sparse's Bregman
        # distance too: every member of its family shares it
        def draw(*args, **kwargs):
            raise AssertionError("the plan drew")

        monkeypatch.setattr(np.random, "default_rng", draw)
        make_cfg(**GOLDEN[name])

    def test_a_plan_holds_no_family(self):
        # hardB:1e-6 has dim ceil(sqrt(n)/sigma) = 8e6 at n = 64 and 1.1e7 at
        # n = 128: a w* of 61 and 86 MiB, which the plan sizes without drawing;
        # sparse at dim 1e6 has a doubled comparator of 15 MiB, which it never builds
        for raw in ({"experiment": "rate", "distribution": "hardB:1e-6", "n_grid": [64, 128],
                     "replicates": 1},
                    {"experiment": "sparse", "dim": 10**6, "n_grid": [128, 256, 512],
                     "replicates": 1}):
            script = (
                "from smoothbench.harness import config_from_dict, with_defaults\n"
                "from smoothbench.harness.experiments import _peak_rss_mb\n"
                f"cfg = config_from_dict({raw!r})\n"
                "before = _peak_rss_mb()\n"
                "with_defaults(cfg)\n"
                "print(_peak_rss_mb() - before)\n"
            )
            src = Path(experiments.__file__).resolve().parents[2]
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                  env=dict(os.environ, PYTHONPATH=str(src)), check=True)
            assert float(proc.stdout) < 16.0, raw

    def test_sparse_comparator_radius_is_the_bregman_distance(self, monkeypatch):
        # the plan's closed form against the entropy Bregman distance of the
        # materialized doubled comparator (k entries (1 - noise)/k, then zeros)
        # from the uniform start: within 4 ulps, and exact at the stored configs
        from smoothbench.distributions import sparse_constants
        from smoothbench.geometry import bregman_divergence, default_start, entropy_setup

        radii, formula = [], experiments.stepsize_for

        def stepsize_for(h, f, n, lbar):
            radii.append(f)
            return formula(h, f, n, lbar)

        monkeypatch.setattr(experiments, "stepsize_for", stepsize_for)

        def ulps(dim, k, noise, budget=None):
            """How far the plan's radius lies from the oracle's, in ulps of the oracle."""
            radii.clear()
            raw = {"experiment": "sparse", "dim": dim, "sparsity_k": k, "noise": noise,
                   "n_grid": [128], "replicates": 1, "methods": ["entropy_md"]}
            cfg = make_cfg(**raw, **({} if budget is None else {"budget": budget}))
            setup = entropy_setup(2 * dim, cfg.budget)
            w0 = np.zeros(setup.dim)
            w0[:k] = sparse_constants(dim, k, noise)[0]
            want = bregman_divergence(setup, w0, default_start(setup))
            (radius,) = radii
            return abs(radius - want) / np.spacing(want)

        # the golden file's, the CLI default's and the benchmark's, and PLAYED's sparse_k7
        assert ulps(32, 4, 0.0) == ulps(256, 4, 0.0) == ulps(64, 7, 0.0) == 0
        grid = [(dim, k, noise, budget)
                for dim in (1, 3, 32, 100, 777, 3000)
                for k in (1, 2, 7, 50, dim) if k <= dim
                for noise in (0.0, 0.1, 0.37, 0.9)
                for budget in (None, 1.0, 3.7, 100.0)]
        assert max(ulps(*point) for point in grid if point[1] <= 50) <= 4
        # at k = dim = 100 the oracle's pairwise sums over 2 dim entries sit up to
        # 6 ulps from a 200-bit evaluation of the same formula, the closed form within 1
        assert max(ulps(*point) for point in grid if point[1] > 50) <= 8

    @pytest.mark.parametrize("name", sorted(config.FAMILIES))
    def test_family_constants_are_the_built_family_s(self, name):
        family = config.FAMILIES[name]
        args = {"separable": [None], "hardA": [None], "hardB": [0.1, 0.37, 1.0, 1e-3],
                "hardC": [0.5, 0.05, 1.0]}[name]
        dims = [16, 5, 1] if family.dim is not None else [None]
        for n, arg, dim in ((n, arg, dim) for n in (4, 64, 1000) for arg in args for dim in dims):
            built = family.build(n, arg, dim, seed_for(1, name, n, 0))
            assert family.constants(n, arg, dim) == (built.dim, built.loss, built.l_star)

    def test_regime_and_sparse_constants_are_their_generators(self):
        from smoothbench.distributions import (
            regime_constants, regime_generator, sparse_constants, sparse_generator,
        )

        for dim, x_scale, sigma in ((1, 1.0, 0.0), (50, 5.0, 0.5), (7, 0.3, 1e8)):
            gen = regime_generator(dim, x_scale, sigma, seed=dim)
            assert regime_constants(dim, x_scale, sigma) == (gen.loss, gen.l_star)
        for dim, k, noise in ((1, 1, 0.0), (32, 4, 0.0), (64, 7, 0.1), (256, 256, 0.9)):
            gen = sparse_generator(dim, k, seed=k, noise=noise)
            weights = set(np.abs(gen.w_star[gen.w_star != 0]).tolist())
            assert sparse_constants(dim, k, noise) == (*weights, gen.loss, gen.l_star)


class TestRegimeExperiment:
    def test_annotations_and_one_sided_envelope(self):
        cfg = make_cfg(
            experiment="regime", n_grid=[8, 64, 512], replicates=4, dim=20,
            x_scale=3.0, sigma=0.5,
        )
        rows = run_regime_experiment(cfg)
        for r in rows:
            assert r.active_term in ("random", "low_noise", "asymptotic")
            assert r.mean_excess <= 8.0 * r.envelope
            assert r.max_iters_hits == 0
        ok, _ = check_result(cfg, rows)
        assert ok

    @pytest.mark.parametrize("policy", ["oracle", "formula"])
    def test_each_dataset_is_drawn_once(self, policy, monkeypatch):
        seeds = []
        sample = RegimeGenerator.sample

        def counted(self, n, seed):
            seeds.append((n, seed))
            return sample(self, n, seed)

        monkeypatch.setattr(RegimeGenerator, "sample", counted)
        cfg = make_cfg(
            experiment="regime", n_grid=[8, 16], replicates=3, dim=10,
            lambda_policy=policy,
        )
        run_regime_experiment(cfg)
        assert len(seeds) == len(cfg.n_grid) * cfg.replicates
        assert len(set(seeds)) == len(seeds)

    def test_max_iters_hits_fail_the_check(self, monkeypatch):
        _cap_solver_iterations(monkeypatch)
        cfg = make_cfg(experiment="regime", n_grid=[8, 16], replicates=2, dim=10)
        rows = run_regime_experiment(cfg)
        assert [r.max_iters_hits for r in rows] == [12 * 2, 12 * 2]
        ok, failures = check_result(cfg, rows)
        assert not ok
        assert "n=8: 24 solves stopped at max_iters" in failures

    def test_formula_policy_reports_rule_lambda(self):
        cfg = make_cfg(
            experiment="regime", n_grid=[16], replicates=2, dim=10,
            x_scale=2.0, sigma=0.3, lambda_policy="formula",
        )
        (row,) = run_regime_experiment(cfg)
        from smoothbench import lambda_for

        assert row.lam == pytest.approx(
            lambda_for(2 * 4.0, 1.0, 16, 0.09), rel=1e-12
        )


@pytest.mark.parametrize(
    "run, default, small",
    [
        (run_regime_experiment, 1e-9, {"experiment": "regime", "n_grid": [8], "dim": 4}),
        (run_sparse_experiment, 1e-8,
         {"experiment": "sparse", "n_grid": [32], "dim": 8, "sparsity_k": 2,
          "methods": ["entropy_regerm"]}),
    ],
    ids=["regime", "sparse"],
)
def test_tol_reaches_the_solves(run, default, small, monkeypatch):
    # the default is the record's, and an explicit tol, smaller too, is
    # passed to every certified solve unchanged
    seen = []
    solve = experiments.solve_regularized_erm

    def recorded(*args, **kwargs):
        seen.append(kwargs["tol"])
        return solve(*args, **{**kwargs, "max_iters": 1})

    monkeypatch.setattr(experiments, "solve_regularized_erm", recorded)
    for tol in (default, 1e-12):
        seen.clear()
        cfg = make_cfg(**small, replicates=1, **({} if tol == default else {"tol": tol}))
        assert cfg.tol == tol
        run(cfg)
        assert seen and set(seen) == {tol}


def _cap_solver_iterations(monkeypatch, module=experiments):
    """Make every certified solve that `module` calls stop after one
    iteration (the runners by default; `batch` for the stability probe)."""
    solve = module.solve_regularized_erm
    monkeypatch.setattr(
        module, "solve_regularized_erm",
        lambda *args, **kwargs: solve(*args, **{**kwargs, "max_iters": 1}),
    )


class TestMarginExperiment:
    def test_rows_vacuous_but_consistent(self):
        cfg = make_cfg(experiment="margin", n_grid=[256], replicates=1)
        rows = run_margin_experiment(cfg)
        assert len(rows) == len(cfg.gamma_grid)
        for r in rows:
            assert r.rhs >= r.holdout_error
            assert 0.0 <= r.margin_error <= 1.0
        # margin empirical error is nondecreasing in gamma
        errs = [r.margin_error for r in rows]
        assert all(b >= a for a, b in zip(errs, errs[1:]))
        ok, _ = check_result(cfg, rows)
        assert ok

    def test_default_run_holds_only_what_it_reads(self, traced_peak):
        # the Rademacher signs fill one reused 64-row block (1 MiB) and the
        # holdout is drawn in 1,024-row blocks, keeping one 100,000-row int8
        # array of margin signs that is freed before the Rademacher signs
        # (1.8 MiB in all, 2.4 MiB on a process's first run, which also
        # builds caches; one (2000, 2048) sign matrix alone would be 31 MiB)
        _, peak = traced_peak(run_margin_experiment, make_cfg(experiment="margin"))
        assert peak < 2.75 * 2**20

    def test_gamma_exceeding_every_score(self):
        from smoothbench.bounds import margin_bound, margin_empirical_error

        scores = np.array([0.3, -0.2, 0.1])
        labels = np.array([1.0, -1.0, 1.0])
        err = margin_empirical_error(scores, labels, 0.9)
        assert err == 1.0
        rhs = margin_bound(
            empirical_loss=err, range_b=1.0, rademacher=0.05,
            n=3, delta=0.05, bound_K=1e5, margin=0.9,
        )
        assert rhs >= 1.0


class TestEmission:
    def test_csv_reproducibility(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        for out in (out1, out2):
            cfg = make_cfg(
                experiment="rate", distribution="hardA", n_grid=[16, 32],
                replicates=2, seed=5, out=str(out),
            )
            run_and_emit(cfg)
        assert (out1.with_suffix(".csv")).read_bytes() == (out2.with_suffix(".csv")).read_bytes()
        meta = json.loads((out1.with_suffix(".meta.json")).read_text())
        assert meta["config"]["seed"] == 5
        assert "wall_time_s" in meta and "versions" in meta
        assert isinstance(meta["peak_rss_mb"], float) and meta["peak_rss_mb"] > 0
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions = meta["versions"]
        assert versions["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert versions["num_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert all(k.endswith("_NUM_THREADS") for k in versions["num_threads"])

    def test_meta_json_is_strict_json(self, tmp_path):
        # separable's floor and slope-min thresholds are disabled (nan), and
        # they are the family's, not the config's
        cfg = make_cfg(
            experiment="rate", distribution="separable", n_grid=[16, 32],
            replicates=2, out=str(tmp_path / "r"),
        )
        run_and_emit(cfg)

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "r.meta.json").read_text()
        meta = json.loads(text, parse_constant=reject)
        assert not [key for key in meta["config"] if key.startswith("check_")]
        assert meta["config"]["n_grid"] == [16, 32]

    def test_meta_echoes_null_for_the_keys_the_experiment_does_not_read(self, tmp_path):
        echoes = {}
        for name, raw in {
            "rate": {"distribution": "hardA", "n_grid": [16, 32], "replicates": 2},
            "regime": {"n_grid": [8, 16], "replicates": 1},
        }.items():
            run_and_emit(make_cfg(experiment=name, out=str(tmp_path / name), **raw))
            echoes[name] = json.loads((tmp_path / f"{name}.meta.json").read_text())["config"]
        assert echoes["rate"]["sigma"] is None and echoes["rate"]["learner"] == "erm"
        assert echoes["regime"]["sigma"] == 0.5 and echoes["regime"]["learner"] is None

    def test_different_seed_changes_csv(self, tmp_path):
        blobs = []
        for seed in (5, 6):
            cfg = make_cfg(
                experiment="rate", distribution="hardB:0.3", n_grid=[16, 32],
                replicates=2, seed=seed, out=str(tmp_path / f"s{seed}"),
            )
            run_and_emit(cfg)
            blobs.append((tmp_path / f"s{seed}.csv").read_bytes())
        assert blobs[0] != blobs[1]


class TestCli:
    def test_success_exit_zero(self, tmp_path, capsys):
        rc = cli_main(
            ["rate", "--replicates", "2", "--seed", "3", "--out", str(tmp_path / "r")]
        )
        assert rc == 0
        assert (tmp_path / "r.csv").exists()
        assert "mean_excess" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n_grid = 64, 32\n")
        assert cli_main(["rate", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli_main(["rate", "--config", str(tmp_path / "missing.txt")]) == 2
        capsys.readouterr()
        assert cli_main(["regret", "--replicates", "0"]) == 2
        assert "replicates must be >= 1" in capsys.readouterr().err
        for raw, _ in BAD_CONFIGS:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({k: v for k, v in raw.items() if k != "experiment"}))
            assert cli_main([raw["experiment"], "--config", str(path)]) == 2, raw
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_extreme_flat_file_values_exit_two_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(experiments, "run_experiment", lambda cfg: pytest.fail("ran"))
        cfg = tmp_path / "cfg.txt"
        for exp, text, fragment in [
            ("regime", "x_scale = 1e200", "0 < x_scale^2 < inf"),
            ("sparse", "budget = 1e200", "finite F_max, got inf"),
            ("rate", "distribution = hardB:nan", "must be finite, got nan"),
            ("regret", "replicates = true", "replicates must be int, got 'true'"),
        ]:
            cfg.write_text(text + "\n")
            assert cli_main([exp, "--config", str(cfg)]) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err
            assert fragment in err, err

    def test_out_in_missing_directory_exits_two_before_any_work(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(experiments, "run_experiment", lambda cfg: pytest.fail("ran"))
        assert cli_main(["regime", "--out", str(tmp_path / "missing" / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "does not exist" in err

    @pytest.mark.parametrize("exp", ["rate", "sparse"])
    def test_check_with_too_few_grid_points_exits_two_before_any_work(
        self, exp, tmp_path, capsys, monkeypatch
    ):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_grid = 16, 32\nreplicates = 2\n")
        monkeypatch.setattr(experiments, "run_experiment", lambda cfg: pytest.fail("ran"))
        assert cli_main([exp, "--config", str(cfg), "--check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert "at least 3 grid points, got 2" in err

    @pytest.mark.parametrize("text", ["noise = 0.1\n", "methods = l1_erm\n"])
    def test_sparse_check_fits_no_slope_with_noise_or_without_entropy_md(
        self, text, tmp_path, capsys
    ):
        # the check fits entropy_md's slope only without noise: two grid points are enough here
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("dim = 32\nn_grid = 128, 256\nreplicates = 2\n" + text)
        assert cli_main(["sparse", "--config", str(cfg), "--check"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "# checks passed" in captured.out

    def test_check_failure_exit_three(self, tmp_path, capsys, monkeypatch):
        # an impossible slope threshold forces the rate check to fail
        separable = config.FAMILIES["separable"]
        monkeypatch.setitem(config.FAMILIES, "separable", dataclasses.replace(
            separable, rate_check=separable.rate_check[:2] + (-10.0,)))
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("distribution = separable\nn_grid = 32, 64, 128\nreplicates = 2\n")
        assert cli_main(["rate", "--config", str(cfg), "--check"]) == 3
        err = capsys.readouterr().err
        assert "check failed" in err and "> -10.0" in err

    @pytest.mark.parametrize("text", [
        "dim = 2\nsparsity_k = 1\nn_grid = 4, 8, 16\nreplicates = 2\n"
        "methods = entropy_md, l1_erm\n",
        "dim = 1\nsparsity_k = 1\nn_grid = 1, 2, 4\n",
    ])
    def test_sparse_check_fits_only_entropy_md(self, text, tmp_path, capsys):
        # l1_erm's exact zeros at small d leave it fewer than 3 positive
        # means; --check gates only entropy_md's slope, and fits no other
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(text)
        assert cli_main(["sparse", "--config", str(cfg), "--check"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "# checks passed" in captured.out

    def test_a_run_too_large_to_allocate_exits_two(self, tmp_path, capsys):
        # n * dim = 1e18 fits the longest array, but no machine holds its 6.94 EiB
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_grid = 100000000000000000\n")
        assert cli_main(["margin", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("config error: Unable to allocate 6.94 EiB")

    def test_a_bare_memory_error_prints_the_fallback(self, capsys, monkeypatch):
        # a MemoryError with no text is still an exception, and so truthy
        def exhausted(cfg):
            raise MemoryError()

        monkeypatch.setattr("smoothbench.harness.cli.run_and_emit", exhausted)
        assert cli_main(["margin"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "config error: out of memory\n"

    def test_check_pass_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_grid = 10, 100\nreplicates = 2\n")
        assert cli_main(["regret", "--config", str(cfg), "--check"]) == 0


def _names_the_experiment(node) -> bool:
    """`<anything>.experiment`, or a name `exp`."""
    return (isinstance(node, ast.Attribute) and node.attr == "experiment") or (
        isinstance(node, ast.Name) and node.id == "exp"
    )


def _holds_a_string(node) -> bool:
    return any(
        isinstance(n, ast.Constant) and isinstance(n.value, str) for n in ast.walk(node)
    )


class TestExperimentTable:
    """Each experiment is declared once, as one record of EXPERIMENTS."""

    def test_no_experiment_name_dispatch_in_the_harness(self):
        found = []
        for path in sorted(Path(experiments.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                if any(map(_names_the_experiment, operands)) and any(
                    map(_holds_a_string, operands)
                ):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        assert found == []

    def test_records_cli_choices_and_golden_files_agree(self):
        from test_golden import GOLDEN

        (choices,) = [a.choices for a in build_parser()._actions if a.dest == "experiment"]
        assert set(EXPERIMENTS) == set(choices)
        # a new record without a golden CSV fails here
        assert set(EXPERIMENTS) == {raw["experiment"] for raw in GOLDEN.values()}

    def test_every_config_field_is_some_records_default(self):
        # a field no record declares is a key that nothing reads
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        declared = set().union(*(spec.defaults for spec in EXPERIMENTS.values()))
        assert fields - {"experiment", "seed", "out"} == declared

    def test_every_config_field_set_where_it_is_not_read_is_a_config_error(self):
        # with_defaults names the experiments that read a set key; a field
        # that no record declares would fail there with a traceback instead
        for f in dataclasses.fields(ExperimentConfig):
            if f.name in ("experiment", "seed", "out"):
                continue
            for name, spec in EXPERIMENTS.items():
                if f.name in spec.defaults:
                    continue
                cfg = ExperimentConfig(experiment=name)
                setattr(cfg, f.name, 1)
                with pytest.raises(ConfigError, match=f"{name} does not read '{f.name}'"):
                    with_defaults(cfg)

    def test_readme_config_table_lists_each_records_keys(self):
        # each experiment's row of the README's config table names, in
        # backticks, exactly the config fields its record declares
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.split("|")]
            if len(cells) == 4 and cells[1].strip("`") in EXPERIMENTS:
                assert cells[1].strip("`") not in rows, f"two rows for {cells[1]}"
                rows[cells[1].strip("`")] = set(re.findall(r"`([^`]+)`", cells[2])) & fields
        assert rows == {name: set(spec.defaults) for name, spec in EXPERIMENTS.items()}

    def test_each_record_declares_exactly_the_keys_its_hooks_read(self, monkeypatch):
        """The golden configs, run through prepare, premises, run and check
        with every config attribute read recorded: each experiment reads
        exactly the keys its record declares, and every key has a reader."""
        from test_golden import GOLDEN

        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        seen, reads = set(), {name: set() for name in EXPERIMENTS}

        def spy(cfg, attr):
            seen.add(attr)
            return object.__getattribute__(cfg, attr)

        for raw in GOLDEN.values():
            cfg = make_cfg(**raw)
            spec = EXPERIMENTS[cfg.experiment]
            with monkeypatch.context() as m:
                m.setattr(ExperimentConfig, "__getattribute__", spy)
                spec.prepare(cfg)
                spec.premises(cfg)
                spec.check(cfg, spec.run(cfg))
            reads[cfg.experiment] |= (seen & keys) - {"experiment", "seed", "out"}
            seen.clear()
        assert reads == {name: set(spec.defaults) for name, spec in EXPERIMENTS.items()}
        assert set().union(*reads.values()) == keys - {"experiment", "seed", "out"}
