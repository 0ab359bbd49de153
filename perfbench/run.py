#!/usr/bin/env python3
"""confheat benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload {battery,mc-semigroup,exact-routes}
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a confheat checkout; it imports the package from
the checkout's ``src``.  Set-up is imports, inputs, config validation and one
small warm-up call per layer; setup_s is the median import time of this
process and four fresh interpreters plus the median of five set-ups.  The timed phase then repeats passes over the workload's cases until
``--seconds`` have elapsed; wall and CPU time are medians over passes.  Every
result is checked against an independent oracle after the timed phase, and
every pass must reproduce the first pass bit for bit.

``--trace 0`` prints the end-to-end metrics: setup_s, wall_s, cpu_s,
peak_rss_mb, and fail_frac on the human-readable lines (it is also the
``failed``/``attempted`` pair of the result).  ``--trace 1`` runs one
untraced pass of the chosen workload, then one traced pass of every
workload (mc-semigroup at 2 and at 1 thread) and prints the per-layer metrics;
its spans go to ``.perfbench_out/trace-<workload>-<seed>.json``.  The last line
of standard output is always one JSON object with the keys correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("battery", "mc-semigroup", "exact-routes")
SETUP_REPS = 5
#: times the imports of a run in a fresh interpreter; argv holds the sys.path entries
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sys; sys.path[:0] = sys.argv[1:]; "
                "import confheat, workloads; print(time.perf_counter() - t0)")


@dataclasses.dataclass
class Record:
    """One timed call: its case, result or error, wall and CPU seconds."""

    case: object
    result: object
    error: str | None
    wall: float
    cpu: float


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: battery configs keep their own seeds, other workloads use 0)")
    parser.add_argument("--seconds", type=float, default=10.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build(cls, seed, tmp: pathlib.Path, reps: int):
    """Set a workload up ``reps`` times; returns the last one and the median set-up time."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            workload = cls(ROOT, seed, tmp / cls.name)
            workload.warm_up()
        times.append(time.perf_counter() - t0)
    return workload, statistics.median(times)


def import_seconds(own: float) -> float:
    """Median import time over this process and SETUP_REPS - 1 fresh interpreters."""
    times = [own]
    for _ in range(SETUP_REPS - 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(HERE)],
                               capture_output=True, text=True, check=True, timeout=120)
        times.append(float(probe.stdout))
    return statistics.median(times)


def run_pass(workload, cases, tracer=None) -> list[Record]:
    records = []
    with workload.begin_pass(), contextlib.redirect_stdout(io.StringIO()):
        for case in cases:
            span = tracer.span(case.name, **case.counts) if tracer else contextlib.nullcontext()
            error = raw = None
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                with span:
                    raw = case.call()
            except (Exception, SystemExit) as exc:
                error = f"{case.name}: {type(exc).__name__}: {exc}"
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
            result = None
            if error is None:
                try:
                    result = case.collect(raw)
                except OSError as exc:
                    error = f"{case.name}: no report: {exc}"
            records.append(Record(case, result, error, wall, cpu))
    return records


def check(records: list[Record]) -> list[str]:
    """Failure reasons, at most one per call; results of one case must all be identical."""
    failures = []
    first: dict[str, bytes] = {}
    for rec in records:
        reason = rec.error
        if reason is None:
            try:
                reason = rec.case.check(rec.result)
            except Exception as exc:  # an oracle that cannot judge counts as a miss
                reason = f"{rec.case.name}: check raised {type(exc).__name__}: {exc}"
        if reason is None:
            blob = pickle.dumps(rec.result)
            if first.setdefault(rec.case.name, blob) != blob:
                reason = f"{rec.case.name}: result differs from the first call"
        if reason is not None:
            failures.append(reason)
    return failures


def result_line(failures, attempted, metrics) -> str:
    return json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def report(title: str, failures: list[str], attempted: int, metrics: dict):
    for reason in failures:
        print(f"FAILED {reason}", file=sys.stderr)
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit}")
    print(f"  {'fail_frac':<52} {len(failures) / attempted:>14.6g} ratio ({len(failures)}/{attempted})")
    print(result_line(failures, attempted, metrics))


def timed_run(args, workloads, import_s: float, tmp: pathlib.Path) -> int:
    workload, setup = build(workloads.WORKLOADS[args.workload], args.seed, tmp, SETUP_REPS)
    cases = workload.cases()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workload, cases))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = [rec for p in passes for rec in p]
    metrics = {
        "setup_s": (import_seconds(import_s) + setup, "s"),
        "wall_s": (statistics.median(sum(r.wall for r in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in p) for p in passes), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    title = f"{args.workload} seed={args.seed}: {len(passes)} passes of {len(cases)} calls"
    report(title, check(records), len(records), metrics)
    return 0


def traced_run(args, workloads, tmp: pathlib.Path) -> int:
    import layers
    from spans import Tracer

    built = {name: build(cls, args.seed, tmp, 1)[0] for name, cls in workloads.WORKLOADS.items()}
    selected = built[args.workload]
    untraced = run_pass(selected, selected.cases())
    tracer = Tracer()
    runs = {}
    for name, threads in (("battery", 1), ("mc-semigroup", 2), ("mc-semigroup", 1), ("exact-routes", 1)):
        workload = built[name]
        tracer.run_id = f"{name}@{threads}t"
        with layers.patches(tracer, name):
            runs[tracer.run_id] = run_pass(workload, workload.cases(threads), tracer)
    records = untraced + [rec for recs in runs.values() for rec in recs]
    failures = check(records)

    traced_wall = sum(r.wall for r in runs[f"{args.workload}@{selected.threads}t"])
    metrics = layers.per_layer(tracer, runs, traced_wall - sum(r.wall for r in untraced))
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "note": "computed_counts are derived from the inputs, not measured",
        "spans": tracer.to_json(),
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }, indent=1))
    print("self time by span name (s), all traced runs:")
    for name, own, calls in layers.self_time_table(tracer)[:15]:
        print(f"  {name:<52} {own:>10.4f}  ({calls} calls)")
    report(f"traced run, spans in {trace_file.relative_to(ROOT)}", failures, len(records), metrics)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "confheat" / "__init__.py").is_file() or not (ROOT / "scripts" / "configs").is_dir():
        print(f"error: {ROOT} holds no confheat sources (src/confheat, scripts/configs)", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # the workloads set their own thread counts
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import confheat
    import workloads

    if not pathlib.Path(confheat.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported confheat from {confheat.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    OUT.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        if args.trace:
            return traced_run(args, workloads, tmp)
        return timed_run(args, workloads, import_s, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
