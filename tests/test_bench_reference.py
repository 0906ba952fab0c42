"""The benchmark's workloads still write their stored reference rows.

`perfbench/run.py` checks each run's CSVs against `perfbench/reference/`,
to within `perfbench.check.REL_TOL`. This runs every workload's configs
once, in process, at the default master seed and applies the same check,
so a change that moves a benchmark number shows in the test suite and not
only in a full benchmark run. The reference files are only read here.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import check  # noqa: E402
from perfbench.workloads import WORKLOADS, raw_configs  # noqa: E402
from smoothbench.harness import config_from_dict, run_experiment, with_defaults, write_csv  # noqa: E402

SEED = 1234


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference_rows(workload, tmp_path):
    for i, raw in enumerate(raw_configs(workload, SEED)):
        cfg = with_defaults(config_from_dict(raw))
        path = tmp_path / check.csv_name(i, cfg.experiment)
        write_csv(str(path), cfg.experiment, run_experiment(cfg))
        reference = check.reference_path(workload, SEED, i, cfg.experiment).read_text()
        failures, _ = check.compare(path.read_text(), reference, exact=True)
        assert failures == [], f"{workload} config {i} ({cfg.experiment})"
