"""Regenerate the reference CSV rows the output check compares against.

    python3 perfbench/make_reference.py

Runs every workload once, untraced, at each seed in REFERENCE_SEEDS, the
same way the benchmark runs a pass, and writes the CSVs under
perfbench/reference/<workload>/seed<seed>/. Regenerate only when a change
is meant to alter the numbers, and say so where the change is recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.check import REFERENCE_DIR  # noqa: E402
from perfbench.run import run_child  # noqa: E402
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def main() -> int:
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            out = REFERENCE_DIR / workload / f"seed{seed}"
            res = run_child(workload, seed, out, timeout=600.0)
            if res["errors"]:
                print(f"{workload} seed {seed}: {res['errors']}", file=sys.stderr)
                return 1
            print(f"{workload} seed {seed}: {res['wall_s']:.2f} s -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
