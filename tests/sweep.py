"""Bad configs swept on the CLI, one child process per case.

    PYTHONPATH=src python tests/sweep.py

Each case sets one numeric key that one experiment reads to one of
SWEEP_VALUES (`numeric_sweep()`, read off ExperimentConfig's annotations,
so a new key is swept too). It runs on the experiment's small grid
(SMALL_GRIDS) unless the swept key is the grid itself, as
`smoothbench <experiment> --config <case.json> --check` in a child process
with OPENBLAS_NUM_THREADS=1, an address-space limit of ADDRESS_LIMIT set
inside the child, and a timeout of TIMEOUT_S. At most JOBS children run at
once.

A case passes when its child exits 0 (accepted, check passed), 2 (a config
error, or a run too large for the limit) or 3 (a failed check) with no
traceback on stderr. Any other exit, or a traceback, fails it. The child
announces on stderr when the run starts, after every config check has
passed, so a child still going at the timeout is told apart: one that never
announced hung inside config checking (a failure), one that did is a long
accepted run (listed, not failed).

The script prints three counts, none of which moves with host speed: the
cases rejected at config checking, the cases whose run started (whether it
ended with exit 0, 2 or 3 or was still going at the timeout) and the
failures. It writes only to a temporary directory, prints the failures and
the long runs, and exits 1 if any case failed. It is not part of the suite
(it takes minutes); `tests/test_sweep.py` keeps it runnable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import get_args, get_origin

from smoothbench.harness import EXPERIMENTS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 40
ADDRESS_LIMIT = 3 << 30  # bytes of address space per child
JOBS = 2

# the values each numeric config key takes: zero and negative, the float
# range's ends, a fraction, large counts, and an integer beyond the float range
SWEEP_VALUES = (0, -1, 1e-323, 1e-200, 0.5, 10**6, 10**12, 1e200, 10**400)

# experiment -> the n_grid each case runs on, unless it sweeps n_grid itself
SMALL_GRIDS = {
    "rate": [32, 64, 128],
    "regret": [10, 100],
    "stability": [64],
    "sparse": [128, 256, 512],
    "regime": [8, 16, 32],
    "margin": [256],
}

STARTED = "# sweep: config accepted, run started"

# the child: limit its own address space, then run the CLI, announcing on
# stderr when every config check has passed and the run begins
CHILD = f"""
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_LIMIT}, {ADDRESS_LIMIT}))
from smoothbench.harness import cli
run = cli.run_and_emit
def announced(cfg):
    print({STARTED!r}, file=sys.stderr, flush=True)
    return run(cfg)
cli.run_and_emit = announced
sys.exit(cli.main(sys.argv[1:]))
"""


def numeric_sweep() -> list:
    """(experiment, key, value) for each numeric key each experiment reads,
    at each of SWEEP_VALUES; a tuple key takes the value as its one entry.
    Read off ExperimentConfig's annotations, so a new key is swept too."""
    kinds = {f.name: (get_args(f.type) or (f.type,))[0]
             for f in dataclasses.fields(ExperimentConfig)}
    cases = []
    for name, spec in EXPERIMENTS.items():
        for key in spec.defaults:
            kind = kinds[key]
            entry = get_args(kind)[0] if get_origin(kind) is tuple else kind
            if entry in (int, float):
                cases += [(name, key, [v] if entry is not kind else v) for v in SWEEP_VALUES]
    return cases


def case_config(experiment: str, key: str, value) -> dict:
    """The config file of one case: the small grid, then the swept key (which
    replaces the grid when it is n_grid)."""
    return {"n_grid": SMALL_GRIDS[experiment], key: value}


@dataclasses.dataclass(frozen=True)
class Outcome:
    exit: int | None  # None: still running at the timeout
    started: bool  # the run began: every config check had passed
    traceback: bool

    def failure(self) -> str | None:
        """Why the case fails, or None."""
        if self.traceback:
            return f"traceback (exit {self.exit})"
        if self.exit is None:
            return None if self.started else f"hang in config checking ({TIMEOUT_S} s)"
        return None if self.exit in (0, 2, 3) else f"exit {self.exit}"

    def count(self) -> str:
        """The count the case goes to: a failure, or else whether its run started."""
        if self.failure():
            return "failures"
        return "run started" if self.started else "rejected at config checking"


def run_case(experiment: str, config: dict, workdir: Path) -> Outcome:
    """Run one config on the CLI in a child process."""
    fd, path = tempfile.mkstemp(suffix=".json", dir=workdir)
    with os.fdopen(fd, "w") as fh:
        json.dump(config, fh)
    cmd = [sys.executable, "-c", CHILD, experiment, "--config", path, "--check"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT_S)
        code, err = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired as exc:  # the child is killed; its stderr so far
        code, err = None, exc.stderr or b""
    err = err.decode(errors="replace")
    return Outcome(code, STARTED in err, "Traceback (most recent call last)" in err)


def _shown(value) -> str:
    """A value's repr, cut short for the integers beyond the float range."""
    text = repr(value)
    return text if len(text) <= 24 else f"{text[:8]}...({len(text)} chars)"


def main() -> int:
    cases = numeric_sweep()
    with tempfile.TemporaryDirectory(prefix="smoothbench-sweep-") as tmp, \
            ThreadPoolExecutor(max_workers=JOBS) as pool:
        outcomes = list(pool.map(
            lambda case: run_case(case[0], case_config(*case), Path(tmp)), cases))
    counts = Counter(o.count() for o in outcomes)
    print(f"{len(cases)} cases: " + ", ".join(
        f"{counts[k]} {k}" for k in ("rejected at config checking", "run started", "failures")))
    failures = [(case, o.failure()) for case, o in zip(cases, outcomes) if o.failure()]
    long_runs = [case for case, o in zip(cases, outcomes) if o.exit is None and o.started]
    for (experiment, key, value), why in failures:
        print(f"FAIL {experiment} {key}={_shown(value)}: {why}")
    for experiment, key, value in long_runs:
        print(f"long accepted run (not a failure): {experiment} {key}={_shown(value)}")
    print(f"{len(failures)} failures, {len(long_runs)} long accepted runs")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
