"""The benchmark's workloads still write their stored reference rows.

`perfbench/run.py` checks each run's CSVs against `perfbench/reference/`,
to within `perfbench.check.REL_TOL`. This runs every workload's configs
once, in process, at each stored reference seed and applies the same
check, so a change that moves a benchmark number shows in the test suite
and not only in a full benchmark run. The reference files are only read
here.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import check  # noqa: E402
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS, raw_configs  # noqa: E402
from smoothbench.harness import config_from_dict, run_experiment, with_defaults, write_csv  # noqa: E402

# the default seed keeps the bare workload id
CASES = [
    pytest.param(workload, seed, id=workload if seed == REFERENCE_SEEDS[0] else f"{workload}-{seed}")
    for seed in REFERENCE_SEEDS
    for workload in sorted(WORKLOADS)
]


@pytest.mark.parametrize("workload, seed", CASES)
def test_workload_matches_its_reference_rows(workload, seed, tmp_path):
    for i, raw in enumerate(raw_configs(workload, seed)):
        cfg = with_defaults(config_from_dict(raw))
        path = tmp_path / check.csv_name(i, cfg.experiment)
        write_csv(str(path), cfg.experiment, run_experiment(cfg))
        reference = check.reference_path(workload, seed, i, cfg.experiment).read_text()
        failures, _ = check.compare(path.read_text(), reference, exact=True)
        assert failures == [], f"{workload} seed {seed} config {i} ({cfg.experiment})"
