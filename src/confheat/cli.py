"""Batch experiment runner.

    confheat run <config.json> [--seed N] [--replicas N] [--out PREFIX]
                               [--threads N] [--set key=value]...
    confheat validate <config.json>

Configs are JSON with strict validation (unknown keys rejected; errors reported
exhaustively, not first-only).  ``validate`` runs the same parse of the params
as ``run``, so a config that validates never fails on its params mid-run.  A
run writes <prefix>.csv and <prefix>.json and exits 0 exactly when the verdict
is "pass" (1 fail, 3 inconclusive, 2 errors, among them an output directory
that does not exist, an allocation that fails or a report that cannot be
written).
Outputs are byte-identical for identical config + seed on the same build,
regardless of thread count.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import __version__
from .errors import CapabilityError, CapacityError, EvaluationError, SolverError
from .experiments import EXPERIMENTS, ExperimentResult, validate_params
from .reporting import write_report

_TOP_KEYS = {"experiment", "seed", "replicas", "output", "params"}


def _load(text: str):
    """Parse a config document; returns (doc, None), or (None, the error that stops its validation)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"syntax error: {exc}"
    if not isinstance(doc, dict):
        return None, "config must be a JSON object"
    return doc, None


def validate_config(text: str):
    """Parse and validate a config document; returns (config | None, errors)."""
    doc, error = _load(text)
    if error:
        return None, [error]
    errors: list[str] = []
    for key in doc:
        if key not in _TOP_KEYS:
            errors.append(f"{key}: unknown key")
    name = doc.get("experiment")
    if not isinstance(name, str) or name not in EXPERIMENTS:
        errors.append(f"experiment: unknown experiment {name!r}; valid: {', '.join(sorted(EXPERIMENTS))}")
        return None, errors
    exp = EXPERIMENTS[name]
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or not (-(2**63) <= seed < 2**64):
        errors.append("seed: must be a 64-bit integer")
        seed = 0
    replicas = doc.get("replicas", exp.default_replicas)
    if isinstance(replicas, bool) or not isinstance(replicas, int) or replicas < 2:
        errors.append("replicas: must be an integer >= 2")
        replicas = exp.default_replicas
    output = doc.get("output", "report")
    if not isinstance(output, str) or not output:
        errors.append("output: must be a nonempty string")
        output = "report"
    raw_params = doc.get("params", {})
    if not isinstance(raw_params, dict):
        errors.append("params: must be an object")
        raw_params = {}
    params, _ = validate_params(exp.schema, raw_params, errors)
    if errors:
        return None, errors
    return (
        {"experiment": name, "seed": seed, "replicas": replicas, "output": output, "params": params},
        [],
    )


def _print_invalid(errors: list[str]) -> None:
    for e in errors:
        print(f"invalid: {e}", file=sys.stderr)


def _error(message: str, config: dict):
    print(f"error: {message}", file=sys.stderr)
    return 2, {"error": message, "config": config}


def run_experiment(config: dict, threads: int = 1):
    """Execute a validated config; returns (exit_code, summary dict).  The runner
    gets the objects the params parse to, by the same parse as ``validate_config``."""
    exp = EXPERIMENTS[config["experiment"]]
    errors: list[str] = []
    _, parsed = validate_params(exp.schema, config["params"], errors)
    if errors:
        _print_invalid(errors)
        return 2, {"error": "; ".join(errors), "config": config}
    directory = pathlib.Path(config["output"]).parent
    if not directory.is_dir():
        return _error(f"output directory {directory} does not exist", config)
    try:
        result: ExperimentResult = exp.run(parsed, config["seed"], config["replicas"], threads)
    except (CapacityError, CapabilityError, SolverError, EvaluationError, KeyError, MemoryError, TypeError,
            ValueError) as exc:
        return _error(f"{type(exc).__name__}: {exc}", config)
    summary = {
        "experiment": config["experiment"],
        "config": config,
        "verdict": result.verdict,
        "results": result.rows,
        "details": result.summary,
        "version": __version__,
    }
    try:
        write_report(config["output"], config["experiment"], result.rows, summary)
    except OSError as exc:
        return _error(str(exc), config)
    code = {"pass": 0, "fail": 1, "inconclusive": 3}[result.verdict]
    return code, summary


def _apply_override(doc: dict, key: str, value: str):
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    target = doc
    parts = key.split(".")
    for part in parts[:-1]:
        target = target.setdefault(part, {})
        if not isinstance(target, dict):
            raise ValueError(f"--set {key}: {part} is not an object")
    target[parts[-1]] = parsed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="confheat", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--replicas", type=int, default=None, help="override the replica count")
    run_p.add_argument("--out", default=None, help="override the output prefix")
    run_p.add_argument("--threads", type=int, default=1, help="worker threads (results unchanged)")
    run_p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key (dotted path, JSON value)",
    )
    val_p = sub.add_parser("validate", help="validate a config without running it")
    val_p.add_argument("config", help="path to a JSON experiment config")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        config, errors = validate_config(text)
        if errors:
            _print_invalid(errors)
            return 2
        print(json.dumps(config, sort_keys=True, indent=2))
        return 0

    doc, error = _load(text)
    if error:
        _print_invalid([error])
        return 2
    for item in args.overrides:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return 2
        key, _, value = item.partition("=")
        try:
            _apply_override(doc, key, value)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.replicas is not None:
        doc["replicas"] = args.replicas
    if args.out is not None:
        doc["output"] = args.out

    config, errors = validate_config(json.dumps(doc))
    if errors:
        _print_invalid(errors)
        return 2
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    code, summary = run_experiment(config, threads=args.threads)
    if "verdict" in summary:
        print(f"{config['experiment']}: verdict {summary['verdict']} -> {config['output']}.csv/.json")
    return code


if __name__ == "__main__":
    sys.exit(main())
