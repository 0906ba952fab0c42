"""Self-tests of the benchmark: tracer, output check, metric names.

    python3 -m pytest perfbench/tests -q

They run shrunken versions of the workloads in-process, so they take
seconds, not a benchmark run.
"""

import json
import re
import sys
from pathlib import Path

import pytest

from perfbench import check, tracer
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS
from smoothbench.harness import config, experiments

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Each workload with its grids shrunk; same experiments, geometries, designs.
TINY = {
    "online": [
        {"experiment": "rate", "n_grid": [32, 64, 128], "replicates": 3},
        {"experiment": "regret", "n_grid": [10, 50], "replicates": 2},
        {"experiment": "margin", "n_grid": [256]},
    ],
    "solver": [
        {"experiment": "regime", "n_grid": [8, 16, 32], "replicates": 2},
        {"experiment": "stability", "replicates": 30},
        {"experiment": "rate", "distribution": "hardB:0.1", "learner": "erm",
         "n_grid": [64, 128, 256], "replicates": 3},
    ],
    "sparse": [
        {"experiment": "sparse", "dim": 32, "n_grid": [32, 64, 128], "replicates": 1},
    ],
}


def run_tiny(workload, traced, tmp_path):
    """CSV texts of a shrunken workload, and the tracer when traced."""
    tr = tracer.Tracer() if traced else None
    if tr:
        tr.install()
    try:
        results = [experiments.run_experiment(config.with_defaults(config.config_from_dict(raw)))
                   for raw in TINY[workload]]
    finally:
        if tr:
            tr.restore()
    texts = []
    for i, (raw, result) in enumerate(zip(TINY[workload], results)):
        path = tmp_path / f"{int(traced)}-{i}.csv"
        experiments.write_csv(str(path), raw["experiment"], result)
        texts.append(path.read_text())
    return texts, tr


def _attributes():
    """Every attribute of every smoothbench module and traced class."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "smoothbench" or name.startswith("smoothbench."):
            for attr, value in vars(mod).items():
                snap[name, attr] = value
                if isinstance(value, type):
                    for key, member in vars(value).items():
                        snap[name, f"{attr}.{key}"] = member
    return snap


def test_tracer_restores_every_wrapped_attribute():
    before = _attributes()
    tr = tracer.Tracer()
    tr.install()
    try:
        during = _attributes()
        assert sum(during[k] is not before[k] for k in before) >= len(tracer.POINTS)
    finally:
        tr.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert tr.missing == set()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_rows_equal_untraced_and_counts_repeat(workload, tmp_path):
    plain, _ = run_tiny(workload, False, tmp_path)
    traced1, tr1 = run_tiny(workload, True, tmp_path)
    traced2, tr2 = run_tiny(workload, True, tmp_path)
    assert traced1 == plain and traced2 == plain
    m1, missing1 = tr1.layer_metrics()
    m2, missing2 = tr2.layer_metrics()
    assert missing1 == missing2 == []
    counts = [name for name, (_, unit) in m1.items() if unit not in ("s", "us")]
    assert {n: m1[n] for n in counts} == {n: m2[n] for n in counts}
    assert m1["losses.calls"][0] > 0


def test_counts_see_the_work_of_each_layer(tmp_path):
    _, tr = run_tiny("solver", True, tmp_path)
    m, _ = tr.layer_metrics()
    assert m["batch.solves"][0] == 12 * 3 * 2 + 2 * 30  # regime grid x lambdas x reps, stability
    assert m["batch.grad_evals_per_iter"][0] == 2.0
    assert m["online.rounds"][0] == 0
    assert m["distributions.erm_exact.us_per_call"][0] > 0
    _, tr = run_tiny("sparse", True, tmp_path)
    m, _ = tr.layer_metrics()
    assert m["harness.l1_iterations"][0] > 0
    assert m["geometry.mirror_step.us.entropy"][0] > 0


def test_absent_name_is_a_missing_metric(monkeypatch, tmp_path):
    points = [p if p[2] != "_gradient" else ("batch", "batch", "_gradient_gone", p[3])
              for p in tracer.POINTS]
    points.append(("bounds", "no_such_module", "f", "bounds.rademacher"))
    points.append(("online", "online", "NoSuchClass.method", "online.run"))
    monkeypatch.setattr(tracer, "POINTS", points)
    _, tr = run_tiny("solver", True, tmp_path)
    metrics, missing = tr.layer_metrics()
    assert set(missing) == {
        "batch.grad_evals_per_iter", "bounds.rademacher_s", "bounds.rademacher.sign_bytes",
        "online.runs", "online.rounds", "online.self_s", "online.trace_bytes",
        "online.us_per_round.fixed", "online.us_per_round.iid", "online.us_per_round.adaptive",
    }
    assert metrics["batch.solves"][0] > 0


def _reference(workload, index=0):
    exp = WORKLOADS[workload][index]["experiment"]
    return check.reference_path(workload, REFERENCE_SEEDS[0], index, exp).read_text()


def _scale_float(text, row, col, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_output_check_accepts_reference_and_rounding_noise():
    for workload in WORKLOADS:
        ref = _reference(workload)
        assert check.compare(ref, ref, exact=True) == ([], 0.0)
    ref = _reference("online")
    noisy = _scale_float(ref, 1, 1, 1 + 1e-12)
    failures, dev = check.compare(noisy, ref, exact=True)
    assert failures == [] and 0 < dev < check.REL_TOL


@pytest.mark.parametrize("factor", [1 + 1e-4, 0.999, 2.0])
def test_perturbed_csv_fails_output_check(factor):
    ref = _reference("solver")
    failures, dev = check.compare(_scale_float(ref, 3, 1, factor), ref, exact=True)
    assert len(failures) == 1 and dev > check.REL_TOL


def test_schema_check_on_other_seeds():
    ref = _reference("sparse")
    assert check.compare(_scale_float(ref, 2, 4, 3.0), ref, exact=False)[0] == []
    assert check.compare(_scale_float(ref, 2, 4, float("inf")), ref, exact=False)[0]
    assert check.compare(ref.replace("mean_excess", "mean"), ref, exact=False)[0]
    assert check.compare(ref.rsplit("\n", 2)[0] + "\n", ref, exact=False)[0]
    assert check.compare(ref.replace("l1_erm", "7"), ref, exact=False)[0]
    assert check.compare(ref.replace("l1_erm", "l2_erm"), ref, exact=True)[0]


def test_metric_names_and_benchmark_file_agree():
    tr = tracer.Tracer()
    layer_names = list(tr.layer_metrics()[0]) + ["harness.max_rel_dev", "trace.overhead_s"]
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    end_to_end = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(per_layer) == sorted(layer_names)
    assert end_to_end == ["wall_s", "setup_s", "peak_rss_mb"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for name in per_layer + end_to_end + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(units[n] == u for n, (_, u) in tr.layer_metrics()[0].items())
