#!/usr/bin/env python3
"""Run every experiment config in scripts/configs through the CLI.

Writes reports under ./reports, prints one verdict line per experiment, and
exits nonzero if anything fails.  --check-determinism runs the battery twice
(second pass with --threads 4) and compares report bytes.
"""
from __future__ import annotations

import argparse
import filecmp
import pathlib
import shutil
import sys

from confheat.cli import main as confheat_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def run_all(threads: int) -> int:
    failures = 0
    pathlib.Path("reports").mkdir(exist_ok=True)
    for cfg in sorted(CONFIG_DIR.glob("*.json")):
        code = confheat_main(["run", str(cfg), "--threads", str(threads)])
        status = {0: "pass", 1: "FAIL", 2: "ERROR", 3: "inconclusive"}.get(code, f"exit {code}")
        print(f"{cfg.stem:<16} {status}")
        if code != 0:
            failures += 1
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice (second pass threaded) and compare report bytes")
    args = parser.parse_args()

    failures = run_all(args.threads)
    if args.check_determinism:
        shutil.rmtree("reports_first", ignore_errors=True)
        shutil.move("reports", "reports_first")
        failures += run_all(max(args.threads, 4))
        mismatches = []
        for path in sorted(pathlib.Path("reports_first").iterdir()):
            twin = pathlib.Path("reports") / path.name
            if not twin.exists() or not filecmp.cmp(path, twin, shallow=False):
                mismatches.append(path.name)
        if mismatches:
            print("determinism check FAILED for:", ", ".join(mismatches))
            failures += 1
        else:
            print("determinism check: byte-identical reports across runs and thread counts")
    if failures:
        print(f"{failures} experiment(s) failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
