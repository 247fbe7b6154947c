"""Correctness checks on the files a pass wrote.

A config run fails when it raised, when a verdict failed, when its
report.json or a CSV differs by a single byte from the first pass of the
same benchmark run, or when it disagrees with the stored reference in
bench/reference/<stem>/: verdict names and PASS/FAIL must be equal, and
every CSV number must lie within REL_TOL (plus ABS_TOL, for values that are
themselves rounding error) of the reference.  Text cells must be equal.
CSVs are matched by column name, so a column added later does not count
as a mismatch; other files in the output directory (such as a timings
file) are not compared.

REL_TOL is loose enough for a reordered reduction: a blocked-matmul
synthesis moves CSV numbers by at most ~2e-12 relative.  It is tight
enough to catch a wrong column: dropping one column of a cutoff moves a
support volume by ~1e-3 relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12


def _outputs(run_dir: Path) -> list[str]:
    """The files that must be bit-identical: report.json and the CSVs."""
    if not run_dir.is_dir():
        return []
    return sorted(p.name for p in run_dir.iterdir()
                  if p.name == "report.json" or p.suffix == ".csv")


def _verdicts(run_dir: Path) -> list[tuple[str, bool]]:
    report = json.loads((run_dir / "report.json").read_text())
    return [(v["name"], v["passed"]) for v in report["verdicts"]]


def _cells_match(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isinf(x) or math.isinf(y) or math.isnan(x) or math.isnan(y):
        return a == b
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y)) + ABS_TOL


def reference_mismatch(run_dir: Path, ref_dir: Path) -> str | None:
    """Why run_dir disagrees with the reference, or None."""
    if not ref_dir.is_dir():
        return f"no reference {ref_dir.name}"
    missing = set(_outputs(ref_dir)) - set(_outputs(run_dir))
    if missing:
        return f"missing {sorted(missing)}"
    if _verdicts(run_dir) != _verdicts(ref_dir):
        return "verdict names or PASS/FAIL differ from the reference"
    for name in _outputs(ref_dir):
        if not name.endswith(".csv"):
            continue
        rows = [r.split(",") for r in (run_dir / name).read_text().splitlines()]
        ref_rows = [r.split(",")
                    for r in (ref_dir / name).read_text().splitlines()]
        if len(rows) != len(ref_rows):
            return f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"
        if not rows:
            continue
        header = {col: i for i, col in enumerate(rows[0])}
        if not set(ref_rows[0]) <= set(header):
            return f"{name}: columns {sorted(set(ref_rows[0]) - set(header))} missing"
        for line, (row, ref_row) in enumerate(zip(rows[1:], ref_rows[1:]), 2):
            for col, ref_cell in zip(ref_rows[0], ref_row):
                cell = row[header[col]] if header[col] < len(row) else ""
                if not _cells_match(cell, ref_cell):
                    return (f"{name} line {line} {col}: {cell} vs "
                            f"reference {ref_cell}")
    return None


def identity_mismatch(run_dir: Path, first_dir: Path) -> str | None:
    """Why run_dir is not byte-identical to first_dir, or None."""
    if _outputs(run_dir) != _outputs(first_dir):
        return "output files differ from pass 0"
    for name in _outputs(first_dir):
        if (run_dir / name).read_bytes() != (first_dir / name).read_bytes():
            return f"{name} differs from pass 0"
    return None


def failures(passes: list[dict], out: Path, ref: Path | None) -> list[str]:
    """One line per failed config run; passes as the worker reports them."""
    lines = []
    for i, p in enumerate(passes):
        for run in p["runs"]:
            run_dir = out / f"pass{i}" / run["stem"]
            if run["error"]:
                why = run["error"]
            elif not run["passed"]:
                why = "a verdict failed"
            else:
                why = (identity_mismatch(run_dir, out / "pass0" / run["stem"])
                       or (ref and reference_mismatch(run_dir,
                                                      ref / run["stem"])))
            if why:
                lines.append(f"pass {i} {run['stem']}: {why}")
    return lines
