#!/usr/bin/env python3
"""Run every experiment config in scripts/configs through the CLI.

Writes reports under ./reports, prints one verdict line per experiment with
the CPU seconds its CLI call took and ends with the total CPU seconds of all
those calls (stdout only, never a report), and exits 1
if an experiment does not pass or a report comparison finds a difference; the
two are counted and printed apart.  --check-determinism runs
the battery twice (second pass with --threads 4) and compares report bytes.
--against DIR compares this run's report bytes with the reports in DIR, for
example the reports/ directory of another checkout run on the same machine.
Every comparison that finds a differing JSON report prints its changed rows:
both values and, when both rows carry a standard error, their gap in combined
standard errors, |v1 - v2| / sqrt(se1^2 + se2^2); when the current row carries
a standard error and a numeric bound, also its signed gap to that bound in its
own standard error, (v2 - bound) / se2.
"""
from __future__ import annotations

import argparse
import filecmp
import json
import math
import pathlib
import shutil
import sys
import time

from confheat.cli import main as confheat_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def run_all(threads: int) -> tuple[set[str], float]:
    """Run every config; return the names of those that did not pass and the CPU seconds of the calls."""
    failed, total = set(), 0.0
    pathlib.Path("reports").mkdir(exist_ok=True)
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        start = time.process_time()
        code = confheat_main(["run", str(cfg), "--threads", str(threads)])
        cpu = time.process_time() - start
        total += cpu
        status = {0: "pass", 1: "FAIL", 2: "ERROR", 3: "inconclusive"}.get(code, f"exit {code}")
        print(f"{cfg.stem:<16} {status:<12} {cpu:.3f} s cpu")
        if code != 0:
            failed.add(cfg.stem)
    return failed, total


def compare_reports(reference: pathlib.Path, current: pathlib.Path, label: str) -> int:
    """Print whether every report file in either directory has a byte-identical
    twin in the other; return 1 if some file is missing or differs, else 0."""
    names = sorted({p.name for p in reference.iterdir()} | {p.name for p in current.iterdir()})
    mismatches = [name for name in names
                  if not ((reference / name).is_file() and (current / name).is_file()
                          and filecmp.cmp(reference / name, current / name, shallow=False))]
    if mismatches:
        print(f"{label} FAILED for:", ", ".join(mismatches))
        for name in mismatches:
            if name.endswith(".json") and (reference / name).is_file() and (current / name).is_file():
                for line in changed_rows(reference / name, current / name):
                    print(f"  {name[:-5]} {line}")
        return 1
    print(f"{label}: byte-identical reports ({len(names)} files)")
    return 0


def _rows(path: pathlib.Path) -> dict:
    """The result rows of a JSON report by measurement; none if it holds no readable rows."""
    try:
        results = json.loads(path.read_text()).get("results", [])
    except (ValueError, AttributeError):
        return {}
    return {row.get("measurement"): row for row in results if isinstance(row, dict)}


def changed_rows(reference: pathlib.Path, current: pathlib.Path) -> list[str]:
    """One line per result row that differs between two JSON reports: its
    measurement, the reference and the current value, their gap in combined
    standard errors when both rows carry a standard error, and the current
    row's gap to its numeric bound in its own standard error."""
    old, new = _rows(reference), _rows(current)
    lines = []
    for name in list(old) + [m for m in new if m not in old]:
        a, b = old.get(name), new.get(name)
        if a == b:
            continue
        va, vb = (row.get("value") if row else "absent" for row in (a, b))
        gaps = []
        if a and b and all(isinstance(x, (int, float)) for x in (va, vb, a.get("std_error"), b.get("std_error"))):
            combined = math.hypot(a["std_error"], b["std_error"])
            if combined > 0:
                gaps.append(f"{abs(va - vb) / combined:.2f} combined SE")
        se, bound = (b.get("std_error"), b.get("bound")) if b else (None, None)
        if all(isinstance(x, (int, float)) for x in (vb, se, bound)) and se > 0:
            gaps.append(f"{(vb - bound) / se:+.2f} SE from bound {bound}")
        lines.append(f"{name}: {va} -> {vb}" + (f" ({'; '.join(gaps)})" if gaps else ""))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice (second pass threaded) and compare report bytes")
    parser.add_argument("--against", type=pathlib.Path, metavar="DIR",
                        help="compare this run's report bytes with the reports in DIR")
    args = parser.parse_args()
    if args.against is not None and not args.against.is_dir():
        parser.error(f"--against: {args.against} is not a directory")

    failed, cpu = run_all(args.threads)
    mismatches = 0
    if args.check_determinism:
        shutil.rmtree("reports_first", ignore_errors=True)
        shutil.move("reports", "reports_first")
        failed_again, cpu_again = run_all(max(args.threads, 4))
        failed |= failed_again
        cpu += cpu_again
        mismatches += compare_reports(pathlib.Path("reports_first"), pathlib.Path("reports"), "determinism check")
    if args.against is not None:
        mismatches += compare_reports(args.against, pathlib.Path("reports"), f"comparison against {args.against}")
    if failed:
        print(f"{len(failed)} experiment(s) failed")
    if mismatches:
        print(f"{mismatches} report comparison(s) found differences")
    print(f"{'total':<29} {cpu:.3f} s cpu")
    return 1 if failed or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
