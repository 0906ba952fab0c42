"""The benchmark evidence files at the repository root stay readable.

Each `BENCH_<label>.json` records paired runs of `perfbench/run.py`. Its
label must match the file name, its command must be the benchmark's, and
every workload it reports (keys may carry a `_seed<N>` suffix) must be one
that `BENCHMARK.json` declares.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_the_files_are_found():
    assert "BENCH_solver_lean.json" in {path.name for path in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_evidence_file_names_the_benchmark(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["label"] == path.stem.removeprefix("BENCH_")
    assert bench["command"].startswith("python3 perfbench/run.py")
    keys = [*bench["workloads"], *bench.get("trace", {})]
    assert keys
    assert {re.sub(r"_seed\d+$", "", key) for key in keys} <= WORKLOADS
