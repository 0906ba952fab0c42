"""Named one-line source mutations, and the gates that kill them.

    python tests/mutants.py

Each mutant is a copy of `src/` with one line replaced. Every gate runs
against the copy in a child process whose PYTHONPATH holds the copy only:
the six CLI `--check`s on small configs, and each criterion of
`tests/test_acceptance.py`. A gate kills a mutant when it fails there: a
`--check` that exits non-zero (3 is a failed check; anything else is a
crash), a criterion that fails, or either one running past `TIMEOUT_S`. The unmodified copy runs
first, and every gate must pass on it, or the table would mean nothing.

The script prints, for each mutant, the gates that kill it, and then the
gates that kill no mutant. It writes only to a temporary directory. It
is not part of the test suite (it takes minutes); `tests/test_mutants.py`
keeps it runnable.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
# a child that runs longer is a kill: no criterion's own time limit is longer
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/smoothbench
    old: str  # the text replaced; it occurs exactly once in the file
    new: str


MUTANTS = [
    Mutant("step size x2", "online.py",
           "eta = 1.0 / (hf + math.sqrt(hf * hf + hf * n * lbar))",
           "eta = 2.0 / (hf + math.sqrt(hf * hf + hf * n * lbar))"),
    Mutant("ball projection dropped", "geometry.py",
           "r = np.sqrt(np.vecdot(v, v))",
           "r = 0.0 * np.sqrt(np.vecdot(v, v))"),
    Mutant("lambda x4", "batch.py",
           "lam = base + math.sqrt(base * base + 128.0 * smoothness_H * lbar / (n * f_max))",
           "lam = 4.0 * (base + math.sqrt(base * base + 128.0 * smoothness_H * lbar / (n * f_max)))"),
    Mutant("squared loss derivative sign", "losses.py",
           'lambda r: 0.5 * r * r, lambda r: r, 1.0)',
           'lambda r: 0.5 * r * r, lambda r: -r, 1.0)'),
    Mutant("secular step x0.5", "distributions.py",
           "mu += step",
           "mu += 0.5 * step"),
    Mutant("excess x(1 + 1e-4)", "batch.py",
           "return dist.excess(w)",
           "return dist.excess(w) * (1.0 + 1e-4)"),
    Mutant("comparator radius x2", "harness/experiments.py",
           "u1 = b * (mass * math.log(weight * setup.dim / b) - mass + b)",
           "u1 = 2.0 * b * (mass * math.log(weight * setup.dim / b) - mass + b)"),
    Mutant("signs in {0, 1} (draw_signs)", "distributions.py",
           "part -= 1.0",
           "part *= 0.5"),
]

# experiment -> a config small enough for seconds, on which --check passes
CHECK_CONFIGS = {
    "rate": {"distribution": "separable", "learner": "mirror_descent",
             "n_grid": [32, 64, 128], "replicates": 3},
    "regret": {"n_grid": [10, 100], "replicates": 2},
    "stability": {"replicates": 30},
    "sparse": {"dim": 32, "n_grid": [512, 1024, 2048], "replicates": 4},
    "regime": {"n_grid": [8, 16, 32], "replicates": 2},
    "margin": {"n_grid": [256]},
}

CRITERIA = sorted(int(m) for m in re.findall(r"^def test_criterion_(\d+)_", ACCEPTANCE.read_text(), re.M))
GATES = [f"{name} --check" for name in CHECK_CONFIGS] + [f"criterion {k}" for k in CRITERIA]


def mutate(src: Path, mutant: Mutant) -> None:
    """Apply one mutant to a copy of src/ in place."""
    path = src / "smoothbench" / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def _child(cmd: list, cwd: Path, src: Path, verdicts: dict) -> str | None:
    """Run cmd against the source tree `src`; its exit code's verdict (None
    for a pass), "timeout", or a crash."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout"
    return verdicts.get(proc.returncode, f"crash (exit {proc.returncode})")


def run_check(src: Path, experiment: str, workdir: Path) -> str | None:
    """Why `experiment --check` fails on the source tree `src`, or None if it passes."""
    config = workdir / f"{experiment}.json"
    config.write_text(json.dumps(CHECK_CONFIGS[experiment]))
    cmd = [sys.executable, "-m", "smoothbench.harness.cli", experiment, "--config", str(config), "--check"]
    return _child(cmd, workdir, src, {0: None, 3: "check failed"})


def run_criterion(src: Path, k: int) -> str | None:
    """Why acceptance criterion k fails on the source tree `src`, or None if it passes."""
    cmd = [sys.executable, "-m", "pytest", str(ACCEPTANCE), "-q", "-p", "no:cacheprovider",
           "-o", "addopts=", "-k", f"test_criterion_{k:02d}_"]
    return _child(cmd, ROOT, src, {0: None, 1: "failed"})


def gate_failures(mutant: Mutant | None, gates=GATES) -> dict:
    """gate -> why it fails, on a copy of src/ with `mutant` applied (or
    unmodified), for each of `gates` that fails."""
    with tempfile.TemporaryDirectory(prefix="smoothbench-mutant-") as tmp:
        tmp = Path(tmp)
        src = tmp / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            mutate(src, mutant)
        failures = {}
        for gate in gates:
            if gate.endswith(" --check"):
                why = run_check(src, gate.removesuffix(" --check"), tmp)
            else:
                why = run_criterion(src, int(gate.removeprefix("criterion ")))
            if why:
                failures[gate] = why
        return failures


def main() -> int:
    baseline = gate_failures(None)
    if baseline:
        print("the unmodified source fails gates, so no mutant can be judged:")
        for gate, why in baseline.items():
            print(f"  {gate}: {why}")
        return 1
    print(f"unmodified source: all {len(GATES)} gates pass")

    killing = set()
    width = max(len(m.name) for m in MUTANTS)
    for mutant in MUTANTS:
        failures = gate_failures(mutant)
        killing.update(failures)
        verdict = ", ".join(
            gate if why in ("check failed", "failed") else f"{gate} ({why})"
            for gate, why in failures.items()
        )
        print(f"{mutant.name:<{width}}  killed by: {verdict or 'nothing (survives)'}", flush=True)
    idle = [gate for gate in GATES if gate not in killing]
    print(f"gates that kill no mutant: {', '.join(idle) if idle else 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
