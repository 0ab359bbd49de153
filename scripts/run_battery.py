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
Every comparison that finds a differing JSON report prints what changed in it.
First each field outside the result rows that differs (the verdict, details and
config, nested objects as dotted paths), with both values.  Then each changed
row: both values; the other fields that changed, when the value did not; when
both rows carry a standard error, their gap in combined standard errors,
|v1 - v2| / sqrt(se1^2 + se2^2); and when the current row carries a standard
error and a numeric bound, its signed gap to that bound in its own standard
error, (v2 - bound) / se2.
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


def _report(path: pathlib.Path) -> dict:
    """A JSON report as an object; empty if it is not one."""
    try:
        doc = json.loads(path.read_text())
    except ValueError:
        return {}
    return doc if isinstance(doc, dict) else {}


def _rows(doc: dict) -> dict:
    """The result rows of a report by measurement."""
    results = doc.get("results")
    if not isinstance(results, list):
        return {}
    return {row.get("measurement"): row for row in results if isinstance(row, dict)}


def _fields(value, prefix: str = "") -> dict:
    """A report's fields by dotted path, nested objects flattened."""
    if isinstance(value, dict) and (value or not prefix):
        return {path: v for key, item in value.items() for path, v in _fields(item, f"{prefix}{key}.").items()}
    return {prefix[:-1]: value}


def _changes(old: dict, new: dict, missing=None) -> list[tuple[str, object, object]]:
    """(key, old value, new value) for each key whose value differs, ``missing`` for an absent one, in order."""
    keys = list(old) + [k for k in new if k not in old]
    return [(k, old.get(k, missing), new.get(k, missing)) for k in keys
            if k not in old or k not in new or old[k] != new[k]]


def changed_rows(reference: pathlib.Path, current: pathlib.Path) -> list[str]:
    """The lines that explain how two JSON reports differ: one per field outside
    the result rows, then one per result row, with its measurement, the
    reference and the current value, the other fields that changed when the
    value did not, their gap in combined standard errors when both rows carry a
    standard error, and the current row's gap to its numeric bound in its own
    standard error."""
    old_doc, new_doc = _report(reference), _report(current)
    old, new = (_fields({k: v for k, v in doc.items() if k != "results"}) for doc in (old_doc, new_doc))
    lines = [f"{path}: {a} -> {b}" for path, a, b in _changes(old, new, "absent")]
    for name, a, b in _changes(_rows(old_doc), _rows(new_doc)):
        va, vb = (row.get("value") if row else "absent" for row in (a, b))
        gaps = []
        if a and b and va == vb:
            gaps.append(", ".join(k for k, _, _ in _changes(a, b)) + " changed")
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
