"""Command-line experiment runner.

    smoothbench <experiment> [--config PATH] [--seed N] [--out PREFIX]
                [--replicates N] [--check]

Exit codes: 0 on success, 2 on configuration errors, 3 when --check is
passed and the experiment's acceptance check fails.
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, ConfigError, ExperimentConfig, apply_overrides, load_config, with_defaults
from .experiments import check_result, csv_table, run_and_emit


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothbench",
        description="Run a rate/regret/stability/sparse/regime/margin experiment.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", help="flat key-value or JSON config file")
    parser.add_argument("--seed", type=int, help="master seed (overrides config)")
    parser.add_argument("--out", help="output prefix for CSV + metadata JSON")
    parser.add_argument("--replicates", type=int, help="replicates per grid point")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 3 unless the experiment's acceptance check passes",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        cfg.experiment = args.experiment
        apply_overrides(cfg, seed=args.seed, out=args.out, replicates=args.replicates)
        cfg = with_defaults(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    result, wall = run_and_emit(cfg)

    header, records = csv_table(cfg.experiment, result)
    print(" | ".join(header))
    for record in records:
        print(" | ".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in record))
    print(f"# wall time {wall:.2f}s", end="")
    if cfg.out:
        print(f"; wrote {cfg.out}.csv and {cfg.out}.meta.json", end="")
    print()

    if args.check:
        passed, failures = check_result(cfg, result)
        if not passed:
            for failure in failures:
                print(f"check failed: {failure}", file=sys.stderr)
            return 3
        print("# checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
