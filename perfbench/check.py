"""Output check: compare an experiment's CSV against stored reference rows.

At a reference seed, strings and integers must match exactly and floats to
within REL_TOL of the reference value (relative to max(|reference|,
ABS_FLOOR)). At any other seed the reference of the default seed gives the
schema: the header, the row count, and finiteness wherever the reference
is finite.

REL_TOL is wide enough for a change of reduction order (replacing the BLAS
dot and matvecs by elementwise sums moved no float by more than 6e-13
relative; the solvers stop on 1e-8..1e-10 certificates, so a different
path to the same minimizer may move more) and narrow enough that a changed
step size, lambda rule or sample fails (those move floats by 1e-4 and
more). ABS_FLOOR keeps excess risks that are pure rounding noise (6e-17
for the l1 solve at n = 512) from being compared relatively.
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-6
ABS_FLOOR = 1e-9

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def csv_name(index: int, experiment: str) -> str:
    return f"{index}-{experiment}.csv"


def reference_path(workload: str, seed: int, index: int, experiment: str) -> Path:
    return REFERENCE_DIR / workload / f"seed{seed}" / csv_name(index, experiment)


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> tuple[list, list]:
    lines = text.rstrip("\n").split("\n")
    return lines[0].split(","), [[_cell(c) for c in line.split(",")] for line in lines[1:]]


def compare(actual: str, reference: str, exact: bool) -> tuple[list, float]:
    """(failure messages, largest relative deviation of a float)."""
    header, rows = parse_csv(actual)
    ref_header, ref_rows = parse_csv(reference)
    if header != ref_header:
        return [f"header {header} != reference {ref_header}"], 0.0
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows != reference {len(ref_rows)}"], 0.0
    failures = []
    worst = 0.0
    for r, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        if len(row) != len(ref_row):
            failures.append(f"row {r}: {len(row)} cells != reference {len(ref_row)}")
            continue
        for col, value, ref in zip(header, row, ref_row):
            where = f"row {r} {col}"
            if isinstance(value, str) != isinstance(ref, str):
                failures.append(f"{where}: {value!r} and reference {ref!r} differ in kind")
            elif isinstance(ref, str) or isinstance(value, int) and isinstance(ref, int):
                if exact and value != ref:
                    failures.append(f"{where}: {value!r} != reference {ref!r}")
            elif not exact:
                if math.isfinite(ref) and not math.isfinite(value):
                    failures.append(f"{where}: {value} is not finite")
            elif not (math.isfinite(ref) and math.isfinite(value)):
                if not (value == ref or math.isnan(ref) and math.isnan(value)):
                    failures.append(f"{where}: {value!r} != reference {ref!r}")
            else:
                dev = abs(value - ref) / max(abs(ref), ABS_FLOOR)
                worst = max(worst, dev)
                if dev > REL_TOL:
                    failures.append(f"{where}: {value!r} vs reference {ref!r} (rel dev {dev:.3g})")
    return failures, worst
