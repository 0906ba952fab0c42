"""Experiment configuration: flat key-value files, JSON files, CLI overrides.

The flat format is one `key = value` pair per line; `#` starts a comment.
The JSON alternative is an object with the same keys. CLI flags override
file values. `with_defaults` types each value once, by its field.
"""

import contextlib
import dataclasses
import json
import math
import numbers
import operator
import os
import sys
from dataclasses import dataclass
from typing import Callable, Literal, get_args, get_origin

from ..distributions import hard_absolute, hard_gaussian, hard_gaussian_constants, hard_quadlin
from ..distributions import separable_synthetic
from ..losses import make_absolute, make_squared


_MAX_N = sys.maxsize // 8  # the most float64 entries an array can hold


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """An experiment's settings. None marks a field the config left unset.
    Besides experiment, seed and out, an experiment reads only the fields
    its declaration lists; `with_defaults` rejects any other that is set."""

    experiment: str = ""
    distribution: str | None = None
    learner: Literal["erm", "regularized_erm", "mirror_descent"] | None = None
    n_grid: tuple[int, ...] | None = None
    replicates: int | None = None
    seed: int = 1234
    out: str = ""
    tol: float | None = None
    delta: float | None = None
    bound_k: float | None = None
    dim: int | None = None
    budget: float | None = None
    sigma: float | None = None
    x_scale: float | None = None
    sparsity_k: int | None = None
    noise: float | None = None
    eta_scale: float | None = None
    lambda_policy: Literal["oracle", "formula"] | None = None
    lbar_mode: Literal["exact", "auto"] | None = None
    methods: tuple[str, ...] | None = None
    gamma_grid: tuple[float, ...] | None = None
    label_noise: float | None = None


@dataclass(frozen=True)
class Family:
    """A distribution family: its constructor and constants, the default of
    its ":<arg>" suffix (None: takes no suffix), the euclidean budget whose
    ball holds its reference predictor, and the rate experiment's defaults and checks."""

    build: Callable  # (n, arg, dim, seed) -> distribution
    constants: Callable  # (n, arg, dim) -> (dim, loss, L*) of a build at n, drawing nothing
    arg: float | None
    dim: int | None  # the default dim; None: the family fixes its own, reads none
    budget: float
    rate: dict  # learner and n_grid
    rate_check: tuple  # --check's floor factor, least and greatest slope; nan: off


_constants_of = operator.attrgetter("dim", "loss", "l_star")

# the lambdas look the constructors up when called, so wrappers installed on
# this module's names (profilers, tracers) see each construction
FAMILIES = {
    "separable": Family(
        lambda n, arg, dim, seed: separable_synthetic(dim, seed),
        lambda n, arg, dim: (dim, make_squared(), 0.0), None, 16, 1.0,
        {"learner": "mirror_descent", "n_grid": tuple(2**k for k in range(5, 13))},
        (math.nan, math.nan, -0.85)),
    "hardA": Family(
        lambda n, arg, dim, seed: hard_absolute(n, seed),
        lambda n, arg, dim: (2 * n, make_absolute(), 0.0), None, None, 1.0 / math.sqrt(2.0),
        {"learner": "erm", "n_grid": tuple(2**k for k in range(4, 11))}, (1.0, -0.65, -0.35)),
    "hardB": Family(
        lambda n, arg, dim, seed: hard_gaussian(n, arg, seed),
        lambda n, arg, dim: hard_gaussian_constants(n, arg), 0.1, None, 1.0 / math.sqrt(2.0),
        {"learner": "erm", "n_grid": tuple(2**k for k in range(6, 14))}, (0.5, -0.65, -0.35)),
    "hardC": Family(  # its construction draws nothing
        lambda n, arg, dim, seed: hard_quadlin(n, arg),
        lambda n, arg, dim: _constants_of(hard_quadlin(n, arg)), 0.5, None, 1.0 / math.sqrt(2.0),
        {"learner": "erm", "n_grid": tuple(2**k for k in range(6, 14))}, (math.nan,) * 3),
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
    return spec, typed(f"distribution argument in {name!r}", float, arg)


def parse_kv_text(text: str) -> dict:
    """Parse the flat key-value grammar into a raw dict of stripped text."""
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
        raw[key] = value
    return raw


def typed(key: str, kind, value):
    """`value` as the field type `kind`, else a ConfigError. Text is read as
    the type (an integer's stays exact), and only a tuple's splits on commas;
    a number is no bool, finite, and whole for an int."""
    if get_origin(kind) is tuple:
        if isinstance(value, str):
            value = [part for part in map(str.strip, value.split(",")) if part]
        value = value if isinstance(value, (list, tuple)) else [value]
        if not value:
            raise ConfigError(f"{key} must not be empty")
        return tuple(typed(f"{key} entries", get_args(kind)[0], v) for v in value)
    if get_origin(kind) is Literal:
        require_choice(key, value, get_args(kind))
        return value
    if isinstance(value, str) and kind is not str:
        with contextlib.suppress(ValueError):  # else rejected as text below
            value = kind(value)
    if isinstance(value, bool) or not isinstance(value, str if kind is str else numbers.Real):
        raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")
    if kind is str:
        return value
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    if kind is int and value != int(value):
        raise ConfigError(f"{key} must be an integer, got {value}")
    try:
        return kind(value)
    except OverflowError:  # an int beyond the float range
        raise ConfigError(f"{key} must be finite, got {value}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The raw values, untyped until `with_defaults`; only an unknown key fails here."""
    for key in raw:
        if key not in ExperimentConfig.__dataclass_fields__:
            raise ConfigError(f"unknown config key: {key!r}")
    return ExperimentConfig(**raw)


def load_config(path: str) -> ExperimentConfig:
    """Load a config file; JSON when the content starts with '{', else flat."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        return config_from_dict(raw)
    return config_from_dict(parse_kv_text(text))


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg


def require_choice(key: str, value, choices) -> None:
    choices = tuple(choices)  # compared by ==: an unhashable value is not a choice
    if value not in choices:
        raise ConfigError(f"unknown {key}: {value!r}; expected one of {choices}")


def fill_unset(cfg: ExperimentConfig, defaults: dict) -> None:
    """Give each field that the config left unset (None) its default."""
    for key, value in defaults.items():
        if getattr(cfg, key) is None:
            setattr(cfg, key, value)


def with_defaults(cfg: ExperimentConfig) -> ExperimentConfig:
    """Reject the fields the experiment does not read, fill its defaults
    into the unset ones, then type and validate every field."""
    from .experiments import EXPERIMENTS  # here: experiments imports this module

    require_choice("experiment", cfg.experiment, EXPERIMENTS)
    name, spec = cfg.experiment, EXPERIMENTS[cfg.experiment]
    for key, value in vars(cfg).items():
        if value is None or key in spec.defaults or key in ("experiment", "seed", "out"):
            continue
        *others, last = [k for k, e in EXPERIMENTS.items() if key in e.defaults]
        readers = f"{', '.join(others)} and {last} read" if others else f"{last} reads"
        raise ConfigError(f"{name} does not read {key!r}; only {readers} it")
    fill_unset(cfg, spec.defaults)
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if value is not None:  # the annotation's first member: "int | None" -> int
            setattr(cfg, f.name, typed(f.name, (get_args(f.type) or (f.type,))[0], value))
    spec.prepare(cfg)
    if "methods" in spec.defaults:
        choices = spec.defaults["methods"]
        bad = set(cfg.methods) - set(choices)
        if bad:
            raise ConfigError(f"unknown {name} methods: {sorted(bad)}; expected {choices}")
        if len(set(cfg.methods)) < len(cfg.methods):
            raise ConfigError(f"{name} methods must not repeat, got {cfg.methods}")
    if any(b <= a for a, b in zip((0,) + cfg.n_grid, cfg.n_grid)):
        raise ConfigError(f"n_grid must be positive and strictly increasing, got {cfg.n_grid}")
    if cfg.n_grid[-1] > _MAX_N:  # every run holds n float64 targets
        raise ConfigError(f"n_grid entries must be at most {_MAX_N}, the longest float64 "
                          f"array, got {cfg.n_grid[-1]}")
    if cfg.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {cfg.replicates}")
    for key in ("tol", "eta_scale"):
        if key in spec.defaults and getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive, got {getattr(cfg, key)}")
    out_dir = os.path.dirname(cfg.out)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"out: directory {out_dir!r} does not exist")
    try:
        spec.premises(cfg)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        # an entry point's rule, an overflow, or a trial construction too large to allocate
        where = " ".join(filter(None, (name, cfg.distribution, cfg.learner)))
        raise ConfigError(f"{where}: {exc}") from exc
    return cfg
