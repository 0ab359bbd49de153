"""Deterministic CSV/JSON report writing.

Identical inputs must produce identical bytes: floats are serialized with
Python's shortest round-trip repr, JSON keys are sorted, and CSV rows follow
RFC 4180 (CRLF line endings, minimal quoting).  Non-finite values appear as
the strings "inf", "-inf", "nan" in both formats.
"""
from __future__ import annotations

import csv
import io
import json
import math
from typing import Any

import numpy as np

CSV_COLUMNS = ("experiment", "measurement", "value", "std_error", "bound", "verdict", "note")


def jsonable(value: Any) -> Any:
    """Recursively convert to JSON-serializable values with stable float text."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    return value


def format_cell(value: Any) -> str:
    """One CSV cell: the value as ``jsonable`` converts it, then "" for None, repr for a float, else str."""
    value = jsonable(value)
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def render_csv(experiment: str, rows: list[dict], verdict: str) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [
                experiment,
                row.get("measurement", ""),
                format_cell(row.get("value")),
                format_cell(row.get("std_error")),
                format_cell(row.get("bound")),
                verdict,
                format_cell(row.get("note")),
            ]
        )
    return buf.getvalue()


def render_json(summary: dict) -> str:
    return json.dumps(jsonable(summary), sort_keys=True, indent=2) + "\n"


def write_report(prefix: str, experiment: str, rows: list[dict], summary: dict) -> tuple[str, str]:
    csv_path = f"{prefix}.csv"
    json_path = f"{prefix}.json"
    with open(csv_path, "w", newline="") as fh:
        fh.write(render_csv(experiment, rows, summary.get("verdict", "")))
    with open(json_path, "w") as fh:
        fh.write(render_json(summary))
    return csv_path, json_path
