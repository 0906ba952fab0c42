"""Experiment configuration: flat key-value files, JSON files, CLI overrides.

The flat format is one `key = value` pair per line; `#` starts a comment.
Values are parsed as int, float, bare string, or a comma-separated list of
ints/floats (used for n_grid and gamma_grid). The JSON alternative is an
object with the same keys. CLI flags override file values.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..batch import STABILITY_MIN_REPLICATES
from ..bounds import margin_domain_error
from ..distributions import (
    HardDistribution,
    hard_absolute,
    hard_gaussian,
    hard_quadlin,
    regime_generator,
    separable_synthetic,
    sparse_generator,
)
from ..geometry import ball_radius, entropy_setup, euclidean_setup, is_feasible

EXPERIMENTS = ("rate", "regret", "stability", "sparse", "regime", "margin")

RATE_LEARNERS = ("erm", "regularized_erm", "mirror_descent")
# experiment -> (what its `methods` name, the choices)
METHODS = {
    "regret": ("stream kinds", ("iid_separable", "fixed_adversarial", "adaptive")),
    "sparse": ("methods", ("entropy_md", "entropy_regerm", "l1_erm")),
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    experiment: str = ""
    distribution: str = ""
    learner: str = ""
    loss: str = ""
    n_grid: tuple = ()
    replicates: int = 0
    seed: int = 1234
    out: str = ""
    tol: float = 1e-10
    delta: float = 0.05
    bound_k: float = 1e5
    dim: int = 0
    budget: float = 0.0
    sigma: float = 0.5
    x_scale: float = 5.0
    sparsity_k: int = 4
    noise: float = 0.0
    eta_scale: float = 8.0
    lambda_policy: str = "oracle"
    lbar_mode: str = "exact"
    methods: tuple = ()
    gamma_grid: tuple = ()
    label_noise: float = 0.05
    check_floor_factor: float = math.nan
    check_slope_min: float = math.nan
    check_slope_max: float = math.nan


@dataclass(frozen=True)
class Family:
    """A distribution family: its constructor, the default of its ":<arg>"
    suffix (None: takes no suffix), the euclidean budget whose ball holds
    its reference predictor, and the rate experiment's defaults."""

    build: Callable  # (n, arg, dim, seed) -> distribution
    arg: float | None
    budget: float
    learner: str
    n_grid: tuple
    floor_factor: float
    slope_window: tuple


# the lambdas look the constructors up when called, so wrappers installed on
# this module's names (profilers, tracers) see each construction
FAMILIES = {
    "separable": Family(
        lambda n, arg, dim, seed: separable_synthetic(dim, seed), None, 1.0,
        "mirror_descent", tuple(2**k for k in range(5, 13)), math.nan, (math.nan, -0.85)),
    "hardA": Family(
        lambda n, arg, dim, seed: hard_absolute(n, seed), None, 1.0 / math.sqrt(2.0),
        "erm", tuple(2**k for k in range(4, 11)), 1.0, (-0.65, -0.35)),
    "hardB": Family(
        lambda n, arg, dim, seed: hard_gaussian(n, arg, seed), 0.1, 1.0 / math.sqrt(2.0),
        "erm", tuple(2**k for k in range(6, 14)), 0.5, (-0.65, -0.35)),
    "hardC": Family(
        lambda n, arg, dim, seed: hard_quadlin(n, arg), 0.5, 1.0 / math.sqrt(2.0),
        "erm", tuple(2**k for k in range(6, 14)), math.nan, (math.nan, math.nan)),
}


def parse_distribution(name: str) -> tuple[Family, float | None]:
    """The family of `family[:arg]` and its argument, defaulted when absent."""
    family, _, arg = name.partition(":")
    if family not in FAMILIES:
        raise ConfigError(f"unknown distribution: {name!r}; expected one of {tuple(FAMILIES)}")
    spec = FAMILIES[family]
    if not arg:
        return spec, spec.arg
    if spec.arg is None:
        raise ConfigError(f"distribution {family!r} takes no argument, got {name!r}")
    try:
        return spec, float(arg)
    except ValueError:
        raise ConfigError(f"distribution argument must be numeric, got {name!r}") from None


def make_distribution(name: str, n: int, dim: int, seed: int):
    family, arg = parse_distribution(name)
    return family.build(n, arg, dim, seed)


def _parse_scalar(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_kv_text(text: str) -> dict:
    """Parse the flat key-value grammar into a raw dict."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if "," in value:
            raw[key] = [_parse_scalar(v.strip()) for v in value.split(",") if v.strip()]
        else:
            raw[key] = _parse_scalar(value)
    return raw


def _coerce(key: str, kind: type, value):
    """`value` as the type of the field's default."""
    if kind is tuple:
        return tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if kind is str:
        return str(value)
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key} must be an integer, got {value}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    kinds = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in kinds:
            raise ConfigError(f"unknown config key: {key!r}")
        setattr(cfg, key, _coerce(key, kinds[key], value))
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Load a config file; JSON when the content starts with '{', else flat."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("JSON config must be an object")
        return config_from_dict(raw)
    return config_from_dict(parse_kv_text(text))


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def _require_choice(key: str, value, choices) -> None:
    if value not in choices:
        raise ConfigError(f"unknown {key}: {value!r}; expected one of {tuple(choices)}")


def with_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Fill experiment-specific defaults into unset fields, then validate."""
    _require_choice("experiment", cfg.experiment, EXPERIMENTS)
    exp = cfg.experiment
    if exp in ("rate", "stability"):
        cfg.distribution = cfg.distribution or ("separable" if exp == "rate" else "hardB:0.1")
        family, _ = parse_distribution(cfg.distribution)
        cfg.budget = cfg.budget or family.budget
        cfg.dim = cfg.dim or 16  # read by separable only
    if exp == "rate":
        cfg.learner = cfg.learner or family.learner
        _require_choice("learner", cfg.learner, RATE_LEARNERS)
        cfg.n_grid = cfg.n_grid or family.n_grid
        cfg.replicates = cfg.replicates or 50
        if math.isnan(cfg.check_floor_factor):
            cfg.check_floor_factor = family.floor_factor
        if math.isnan(cfg.check_slope_min):
            cfg.check_slope_min = family.slope_window[0]
        if math.isnan(cfg.check_slope_max):
            cfg.check_slope_max = family.slope_window[1]
    elif exp == "regret":
        cfg.n_grid = cfg.n_grid or (10, 100, 1000, 10000)
        cfg.replicates = cfg.replicates or 10
        cfg.dim = cfg.dim or 8
        cfg.budget = cfg.budget or 1.0
    elif exp == "stability":
        cfg.n_grid = cfg.n_grid or (64,)
        cfg.replicates = cfg.replicates or 200
        if cfg.replicates < STABILITY_MIN_REPLICATES:
            raise ConfigError(f"stability needs replicates >= {STABILITY_MIN_REPLICATES}")
    elif exp == "sparse":
        cfg.dim = cfg.dim or 256
        cfg.n_grid = cfg.n_grid or tuple(2**k for k in range(7, 13))
        cfg.replicates = cfg.replicates or 20
        cfg.budget = cfg.budget or 2.0 * math.sqrt(cfg.sparsity_k)
        if math.isnan(cfg.check_slope_max):
            cfg.check_slope_max = -0.85
    elif exp == "regime":
        cfg.dim = cfg.dim or 50
        cfg.n_grid = cfg.n_grid or tuple(2**k for k in range(3, 13))
        cfg.replicates = cfg.replicates or 12
        cfg.budget = cfg.budget or 1.0
    elif exp == "margin":
        cfg.dim = cfg.dim or 10
        cfg.n_grid = cfg.n_grid or (2048,)
        cfg.replicates = cfg.replicates or 1
        cfg.budget = cfg.budget or 1.0
        cfg.gamma_grid = cfg.gamma_grid or (0.05, 0.1, 0.2, 0.4, 0.8)
        # margin trains one classifier on one sample
        if len(cfg.n_grid) != 1:
            raise ConfigError(f"margin n_grid must have one entry, got {cfg.n_grid}")
        if cfg.replicates != 1:
            raise ConfigError(f"margin replicates must be 1, got {cfg.replicates}")
    if exp in METHODS:
        what, choices = METHODS[exp]
        cfg.methods = cfg.methods or choices
        bad = set(cfg.methods) - set(choices)
        if bad:
            raise ConfigError(f"unknown {exp} {what}: {sorted(bad)}; expected {choices}")
    _require_choice("lbar_mode", cfg.lbar_mode, ("exact", "auto"))
    _require_choice("lambda_policy", cfg.lambda_policy, ("oracle", "formula"))

    # only the experiments that draw from a named distribution read `loss`
    if cfg.loss and exp not in ("rate", "stability"):
        raise ConfigError(f"{exp} fixes its own loss; only rate and stability read 'loss'")
    if not all(isinstance(v, (int, float)) for v in cfg.n_grid + cfg.gamma_grid):
        raise ConfigError(f"grid entries must be numbers, got {cfg.n_grid} and {cfg.gamma_grid}")
    if not cfg.n_grid or any(
        b <= a for a, b in zip(cfg.n_grid, cfg.n_grid[1:])
    ):
        raise ConfigError(f"n_grid must be strictly increasing, got {cfg.n_grid}")
    if any(int(n) != n or n < 1 for n in cfg.n_grid):
        raise ConfigError(f"n_grid entries must be positive integers, got {cfg.n_grid}")
    cfg.n_grid = tuple(int(n) for n in cfg.n_grid)
    if cfg.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {cfg.replicates}")
    if not 0 < cfg.delta < 1:
        raise ConfigError(f"delta must lie in (0, 1), got {cfg.delta}")
    # `not x > 0` also rejects nan
    if not cfg.tol > 0:
        raise ConfigError(f"tol must be positive, got {cfg.tol}")
    if not cfg.eta_scale > 0:
        raise ConfigError(f"eta_scale must be positive, got {cfg.eta_scale}")
    out_dir = os.path.dirname(cfg.out)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"out: directory {out_dir!r} does not exist")
    try:
        _check_premises(cfg)
    except ValueError as exc:  # a constructor's own rule, or NonSmoothLossError
        where = " ".join(filter(None, (exp, cfg.distribution, cfg.learner)))
        raise ConfigError(f"{where}: {exc}") from exc
    return cfg


def _check_premises(cfg: ExperimentConfig) -> None:
    """Build what the run builds, once, at the smallest n, so that the
    constructors' own rules reject a bad config before any work is done."""
    exp, dim = cfg.experiment, cfg.dim
    if exp in ("rate", "stability"):
        dist = make_distribution(cfg.distribution, cfg.n_grid[0], dim, cfg.seed)
        dim = dist.dim
        if cfg.loss and cfg.loss != dist.loss.name:
            raise ValueError(f"incompatible loss {cfg.loss!r}; the family's is {dist.loss.name!r}")
        if exp == "stability" or cfg.learner != "erm":
            dist.loss.smoothness_H  # raises for a non-smooth loss
        elif not isinstance(dist, HardDistribution):
            raise ValueError("the family has no exact ERM; use regularized_erm or mirror_descent")
    elif exp == "sparse":
        sparse_generator(dim, cfg.sparsity_k, cfg.seed, noise=cfg.noise)
        entropy_setup(2 * dim, cfg.budget)
        return
    elif exp == "regime":
        regime_generator(dim, cfg.x_scale, cfg.sigma, cfg.seed)
    setup = euclidean_setup(dim, cfg.budget)
    range_b = ball_radius(setup)
    # margin starts at a unit vector; so does the comparator of regret's
    # i.i.d. stream (its other streams compare against, and start at, zero)
    unit_needed = exp == "margin" or (exp == "regret" and "iid_separable" in cfg.methods)
    if unit_needed and not is_feasible(setup, np.eye(1, dim)[0]):
        raise ValueError(
            f"budget {cfg.budget} gives a ball of radius {range_b:.6g} that "
            f"excludes unit-norm vectors"
        )
    if exp == "margin":
        for gamma in cfg.gamma_grid:
            problem = margin_domain_error(gamma, range_b)
            if problem:
                raise ValueError(f"gamma_grid entry {gamma}: {problem} = {range_b:.6g}")
