"""One pass of a workload in a fresh process; prints one JSON line.

    python3 -m perfbench.child --workload NAME --seed N --out DIR [--trace] [--setup-only]

The parent starts this with BLAS threads pinned to 1 and notes the
monotonic clock just before the start; `setup_done` (the monotonic clock
once every config has passed `with_defaults`) minus that note is the
set-up time. The timed region runs the workload's experiments back to
back; CSV files, `--check` outcomes and peak RSS are gathered after it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from smoothbench.harness import config, experiments  # noqa: E402

from perfbench.check import csv_name  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import raw_configs  # noqa: E402


def host_probe() -> float:
    """Seconds for a fixed mix of small numpy calls, like one online round's,
    repeated 20,000 times. Information beside each pass, not a metric."""
    rng = np.random.default_rng(0)
    w = np.zeros(16)
    xs = rng.standard_normal((256, 16))
    start = time.perf_counter()
    for i in range(20_000):
        x = xs[i % 256]
        v = w - 0.01 * (float(x @ w) - 1.0) * x
        r = float(np.linalg.norm(v))
        w = v * (1.0 / r) if r > 1.0 else v
    return time.perf_counter() - start


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "smoothbench": str(Path(experiments.__file__).resolve().parents[2]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cfgs = [config.with_defaults(config.config_from_dict(raw))
            for raw in raw_configs(args.workload, args.seed)]
    out = {"setup_done": time.monotonic()}
    if args.setup_only:
        out["environment"] = environment()
        print(json.dumps(out))
        return 0

    out["probe_s"] = host_probe()
    tracer = Tracer() if args.trace else None
    results, errors = [], {}
    if tracer:
        tracer.install()
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        for i, cfg in enumerate(cfgs):
            try:
                results.append(experiments.run_experiment(cfg))
            except Exception:  # reported as a failed experiment run
                results.append(None)
                errors[i] = traceback.format_exc()
    finally:
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu0
        if tracer:
            tracer.restore()

    checks = {}
    for i, (cfg, result) in enumerate(zip(cfgs, results)):
        if result is None:
            continue
        try:
            experiments.write_csv(str(Path(args.out) / csv_name(i, cfg.experiment)),
                                  cfg.experiment, result)
        except Exception:
            errors[i] = traceback.format_exc()
        try:
            checks[i] = experiments.check_result(cfg, result)
        except Exception as exc:  # information only, like the CLI's --check
            checks[i] = (False, [f"check raised {exc!r}"])
    out["errors"] = errors
    out["cli_check"] = checks
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        out["layers"], out["missing"] = tracer.layer_metrics()
        out["trace_raw"] = tracer.raw()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
