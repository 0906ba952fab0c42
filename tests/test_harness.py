import dataclasses
import json
import math

import numpy as np
import pytest

from smoothbench.harness import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    check_result,
    config_from_dict,
    fit_slope,
    load_config,
    parse_kv_text,
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
from smoothbench.harness.cli import main as cli_main
from smoothbench.harness.experiments import _project_l1_ball


def make_cfg(**kw) -> ExperimentConfig:
    return with_defaults(config_from_dict(kw))


# (raw config, fragment of the ConfigError): each is rejected by
# with_defaults before any work is done, and exits 2 on the CLI
BAD_CONFIGS = [
    ({"experiment": "rate", "geometry": "entropy"}, "unknown config key"),
    ({"experiment": "regret", "lbar_mode": "atuo"}, "unknown lbar_mode"),
    ({"experiment": "sparse", "methods": ["entropy_md", "foo"]}, "unknown sparse methods"),
    ({"experiment": "stability", "distribution": "hardZ"}, "unknown distribution"),
    ({"experiment": "rate", "distribution": "hardB:abc"}, "must be numeric"),
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
    ({"experiment": "regret", "loss": "squared"}, "fixes its own loss"),
    ({"experiment": "sparse", "loss": "squared"}, "fixes its own loss"),
    ({"experiment": "regime", "loss": "squared"}, "fixes its own loss"),
    ({"experiment": "margin", "loss": "squared"}, "fixes its own loss"),
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
            config_from_dict({"experiment": "rate", "replicates": "many"})
        for raw, fragment in BAD_CONFIGS:
            with pytest.raises(ConfigError, match=fragment):
                make_cfg(**raw)

    def test_incompatible_loss_distribution_pair(self, tmp_path):
        with pytest.raises(ConfigError, match="incompatible"):
            make_cfg(
                experiment="rate", distribution="hardA", loss="squared",
                n_grid=[16, 32, 64], replicates=1,
            )
        # a family's own loss name is accepted
        own = tmp_path / "own.txt"
        own.write_text("distribution = hardB:0.1\nloss = squared2\nn_grid = 64, 128\n"
                       "replicates = 2\n")
        assert cli_main(["rate", "--config", str(own)]) == 0


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

    def test_stream_kind_selection(self):
        cfg = make_cfg(
            experiment="regret", n_grid=[20], replicates=2, methods=["adaptive"]
        )
        rows = run_regret_experiment(cfg)
        assert {r.stream for r in rows} == {"adaptive"}
        with pytest.raises(ConfigError, match="stream kinds"):
            make_cfg(experiment="regret", methods=["bandit"])


class TestRateExperiment:
    def test_separable_mirror_descent_rows_below_bound(self):
        cfg = make_cfg(
            experiment="rate", distribution="separable",
            n_grid=[32, 64, 128, 256], replicates=5,
        )
        curve = run_rate_experiment(cfg)
        for row in curve.rows:
            assert row.mean <= row.bound  # 4 H F / n with Lbar = 0
            assert math.isnan(row.lower_bound)
        assert curve.slope()[0] < -0.8

    def test_hard_a_rows_exact_floor(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA",
            n_grid=[16, 32, 64, 128], replicates=3,
        )
        curve = run_rate_experiment(cfg)
        for row in curve.rows:
            assert row.mean >= row.lower_bound  # 1/(2 sqrt(n)), exactly
        ok, failures = check_result(cfg, curve)
        assert ok, failures

    def test_hard_a_floor_checked_at_every_n(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA",
            n_grid=[16, 32, 64, 128], replicates=3,
        )
        curve = run_rate_experiment(cfg)
        assert all(r.floor_applies for r in curve.rows)
        curve.rows = [dataclasses.replace(r, mean=0.9 * r.lower_bound) for r in curve.rows]
        ok, failures = check_result(cfg, curve)
        assert not ok
        floor = [f.split(":")[0] for f in failures if "lower bound" in f]
        assert floor == ["n=16", "n=32", "n=64", "n=128"]

    def test_hard_b_default_check_passes(self):
        # n = 64 < d = 80: the design leaves coordinates unseen, so the floor
        # is not promised there; every larger grid point has n >= d
        cfg = make_cfg(experiment="rate", distribution="hardB:0.1")
        curve = run_rate_experiment(cfg)
        assert [r.n for r in curve.rows if not r.floor_applies] == [64]
        ok, failures = check_result(cfg, curve)
        assert ok, failures

    def test_hard_b_floor_still_checked_from_n_128(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardB:0.1",
            n_grid=[64, 128, 256], replicates=5,
        )
        curve = run_rate_experiment(cfg)
        curve.rows = [
            dataclasses.replace(r, mean=0.4 * r.lower_bound) if r.n == 128 else r
            for r in curve.rows
        ]
        ok, failures = check_result(cfg, curve)
        assert not ok
        floor = [f.split(":")[0] for f in failures if "lower bound" in f]
        assert floor == ["n=128"]

    def test_regularized_erm_learner_path(self):
        cfg = make_cfg(
            experiment="rate", distribution="separable", learner="regularized_erm",
            n_grid=[32, 64, 128], replicates=3,
        )
        curve = run_rate_experiment(cfg)
        for row in curve.rows:
            assert row.mean <= row.bound

    def test_degenerate_single_row_grid(self):
        cfg = make_cfg(
            experiment="rate", distribution="hardA", n_grid=[64], replicates=2,
        )
        curve = run_rate_experiment(cfg)
        assert len(curve.rows) == 1
        with pytest.raises(ValueError):
            curve.slope()


class TestStabilityExperiment:
    def test_inequality_holds_on_small_config(self):
        cfg = make_cfg(experiment="stability", n_grid=[32], replicates=40)
        rows = run_stability_experiment(cfg)
        (row,) = rows
        assert row.lhs_mean <= row.rhs_mean + 2 * row.combined_stderr
        assert row.replicates == 40
        ok, _ = check_result(cfg, rows)
        assert ok
        # separable reads `dim`, which stability defaults like rate does
        cfg = make_cfg(experiment="stability", distribution="separable", replicates=30)
        assert cfg.dim == 16 and len(run_stability_experiment(cfg)) == 1


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

    def test_l1_feasibility_and_projection(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            v = rng.standard_normal(20) * 3
            radius = float(rng.uniform(0.5, 4))
            p = _project_l1_ball(v, radius)
            assert float(np.sum(np.abs(p))) <= radius * (1 + 1e-9)
            inside = rng.standard_normal(20)
            inside *= radius / (2 * float(np.sum(np.abs(inside))))
            assert np.allclose(_project_l1_ball(inside, radius), inside)

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

    def test_methods_and_slopes(self):
        cfg = make_cfg(
            experiment="sparse", n_grid=[64, 128, 256], replicates=3, dim=32,
            sparsity_k=2, methods=["entropy_md", "l1_erm"],
        )
        rows = run_sparse_experiment(cfg)
        assert {r.method for r in rows} == {"entropy_md", "l1_erm"}
        slopes = sparse_slopes(rows)
        assert set(slopes) == {"entropy_md", "l1_erm"}


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
        ok, _ = check_result(cfg, rows)
        assert ok

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

    def test_gamma_exceeding_every_score(self):
        from smoothbench.bounds import BoundInputs, margin_bound, margin_empirical_error

        scores = np.array([0.3, -0.2, 0.1])
        labels = np.array([1.0, -1.0, 1.0])
        err = margin_empirical_error(scores, labels, 0.9)
        assert err == 1.0
        rhs = margin_bound(
            BoundInputs(
                empirical_loss=err, range_b=1.0, rademacher=0.05,
                n=3, delta=0.05, bound_K=1e5, margin=0.9,
            )
        )
        assert rhs >= 1.0


class TestEmission:
    def test_csv_reproducibility(self, tmp_path):
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
        for raw, _ in BAD_CONFIGS:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps({k: v for k, v in raw.items() if k != "experiment"}))
            assert cli_main([raw["experiment"], "--config", str(path)]) == 2, raw
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and err.count("\n") == 1, err

    def test_check_failure_exit_three(self, tmp_path, capsys):
        # an impossible slope threshold forces the rate check to fail
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "distribution = separable\nn_grid = 32, 64, 128\n"
            "replicates = 2\ncheck_slope_max = -10\n"
        )
        assert cli_main(["rate", "--config", str(cfg), "--check"]) == 3
        assert "check failed" in capsys.readouterr().err

    def test_check_pass_exit_zero(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("n_grid = 10, 100\nreplicates = 2\n")
        assert cli_main(["regret", "--config", str(cfg), "--check"]) == 0
