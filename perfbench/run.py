"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {online,solver,sparse} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; smoothbench is imported from its `src/`.
Every pass of the workload runs in a fresh child process (perfbench/child.py)
with BLAS threads pinned to 1, one after another: a closed loop with one
client. Passes repeat until `--seconds` is used up (at least MIN_PASSES).

--trace 0 reports the end-to-end metrics: mean wall time of a pass,
median set-up time (process start until every config has passed
`with_defaults`; SETUP_RUNS set-up-only children plus every pass), and
median peak RSS of a pass. --trace 1 runs untraced passes and then one
traced pass, and reports the per-layer metrics of the traced pass.

Every pass's CSV output is checked against perfbench/reference (see
check.py) and against the run's first pass. The last stdout line is
{"correct", "attempted", "failed", "metrics"}; `attempted` counts experiment
runs, `failed` those that raised or failed the check. The lines before it
summarise the run, and a results file with every sample, the environment
and the host-speed probe goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.check import compare, csv_name, reference_path  # noqa: E402
from perfbench.workloads import REFERENCE_SEEDS, WORKLOADS, raw_configs  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
DEADLINE_S = 165.0  # the whole run, set-up included, ends well within 180 s
SETUP_RUNS = 3
MIN_PASSES = 3
TRACE_SLOWDOWN = 2.5  # budget for the traced pass, in untraced passes
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildError(RuntimeError):
    pass


def run_child(workload: str, seed: int, out: Path | None, timeout: float,
              trace=False, setup_only=False) -> dict:
    """Start one child, wait for it, and return its JSON with `setup_s` and
    `elapsed_s` (the child's whole life) added."""
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload, "--seed", str(seed)]
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        cmd += ["--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, **{var: "1" for var in PINNED})
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildError(f"child timed out after {exc.timeout:.0f} s") from None
    elapsed = time.monotonic() - start
    try:
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        res = None
    if proc.returncode != 0 or not isinstance(res, dict):
        raise ChildError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res["setup_s"] = res["setup_done"] - start
    res["elapsed_s"] = elapsed
    return res


def check_pass(workload: str, seed: int, experiments: list, out: Path, res: dict,
               first: dict | None) -> tuple[list, float, dict]:
    """(failure messages per failed experiment, max rel dev, CSV texts)."""
    exact = seed in REFERENCE_SEEDS
    ref_seed = seed if exact else REFERENCE_SEEDS[0]
    failures, worst, texts = [], 0.0, {}
    for i, exp in enumerate(experiments):
        if str(i) in res["errors"]:
            failures.append(f"{exp}: raised\n{res['errors'][str(i)]}")
            continue
        texts[i] = (out / csv_name(i, exp)).read_text(encoding="utf-8")
        try:
            ref = reference_path(workload, ref_seed, i, exp).read_text(encoding="utf-8")
        except OSError as exc:
            failures.append(f"{exp}: no reference rows ({exc})")
            continue
        problems, dev = compare(texts[i], ref, exact)
        worst = max(worst, dev)
        if first is not None and i in first and texts[i] != first[i]:
            problems.append("rows differ from the run's first pass")
        if problems:
            failures.append(f"{exp}: " + "; ".join(problems[:5]))
    return failures, worst, texts


def _summary(values: list, unit: str) -> str:
    return (f"{statistics.median(values):.4g} {unit} (median of {len(values)}; "
            f"min {min(values):.4g}, max {max(values):.4g})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smoothbench" / "__init__.py").is_file():
        print(f"perfbench: no smoothbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    begin = time.monotonic()
    deadline, budget_end = begin + DEADLINE_S, begin + args.seconds
    experiments = [raw["experiment"] for raw in raw_configs(args.workload, args.seed)]
    OUT_DIR.mkdir(exist_ok=True)
    record = {"args": vars(args), "passes": [], "setup_runs": [], "failures": []}
    attempted = failed = 0
    max_dev = 0.0
    first_texts = None
    traced = None

    def one_pass(tmp: str, trace: bool) -> None:
        nonlocal attempted, failed, max_dev, first_texts, traced
        out = Path(tmp) / f"pass{len(record['passes'])}"
        res = run_child(args.workload, args.seed, out, deadline - time.monotonic(), trace=trace)
        res["traced"] = trace
        record["passes"].append(res)
        problems, dev, texts = check_pass(args.workload, args.seed, experiments, out, res,
                                          first_texts)
        first_texts = first_texts or texts
        max_dev = max(max_dev, dev)
        attempted += len(experiments)
        failed += len(problems)
        record["failures"].extend(problems)
        if trace:
            traced = res

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        try:
            for _ in range(SETUP_RUNS):
                res = run_child(args.workload, args.seed, None, deadline - time.monotonic(),
                                setup_only=True)
                record["setup_runs"].append(res["setup_s"])
            record["environment"] = res["environment"]
            if Path(res["environment"]["smoothbench"]) != ROOT / "src":
                print(f"perfbench: imported smoothbench from {res['environment']['smoothbench']}, "
                      f"not {ROOT / 'src'}", file=sys.stderr)
                return 2
            minimum = 2 if args.trace else MIN_PASSES
            while True:
                one_pass(tmp, trace=False)
                estimate = statistics.median(p["elapsed_s"] for p in record["passes"])
                reserve = estimate * TRACE_SLOWDOWN * args.trace
                end = time.monotonic() + estimate + reserve
                if end > deadline or len(record["passes"]) >= minimum and end > budget_end:
                    break
            if args.trace:
                one_pass(tmp, trace=True)
        except ChildError as exc:
            attempted += len(experiments)
            failed += len(experiments)
            record["failures"].append(str(exc))

    untraced = [p for p in record["passes"] if not p["traced"]]
    metrics = {}
    lines = [f"# perfbench {args.workload} seed={args.seed} trace={args.trace}: "
             f"{len(record['passes'])} passes, {attempted} experiment runs"]
    if untraced and not args.trace:
        walls = [p["wall_s"] for p in untraced]
        setups = record["setup_runs"] + [p["setup_s"] for p in untraced]
        rss = [p["peak_rss_mb"] for p in untraced]
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MiB"},
        }
        lines += [f"# wall_s {statistics.fmean(walls):.4g} s (mean); {_summary(walls, 's')}",
                  f"# setup_s {_summary(setups, 's')}",
                  f"# peak_rss_mb {_summary(rss, 'MiB')}"]
    if traced is not None:
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        layers = dict(traced["layers"])
        layers["harness.max_rel_dev"] = (max_dev, "rel")
        layers["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        record["trace_raw"] = traced["trace_raw"]
        lines.append(f"# traced pass {traced['wall_s']:.4g} s vs untraced median "
                     f"{untraced_wall:.4g} s")
        if traced["missing"]:
            lines.append("# missing per-layer metrics (traced name absent): "
                         + ", ".join(traced["missing"]))
    lines.append(f"# failed_share {failed / max(attempted, 1):.4g} ({failed} of {attempted})")
    lines.append("# output check: " + (
        f"exact against reference seed {args.seed}, max rel dev {max_dev:.3g}"
        if args.seed in REFERENCE_SEEDS else
        f"schema, row count and finiteness only (no reference rows for seed {args.seed})"))
    for msg in dict.fromkeys(m.splitlines()[0] for m in record["failures"]):
        lines.append("# FAILED " + msg)
    if record["passes"]:
        checks = record["passes"][0]["cli_check"]
        lines.append("# --check (information): " + ", ".join(
            f"{exp} {'ok' if checks.get(str(i), (False,))[0] else 'FAIL'}"
            for i, exp in enumerate(experiments)))
        probes = [p["probe_s"] for p in record["passes"]]
        lines.append(f"# host probe {_summary(probes, 's')}")

    record["metrics"] = metrics
    result_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    lines.append(f"# results: {result_file.relative_to(ROOT)}")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
