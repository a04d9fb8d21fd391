"""Run one benchmark workload and print its result as the last line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload plant-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run.  It refuses to start under a tracer,
profiler or ``tracemalloc``.  It sets the workload up several times,
then runs whole rounds until ``--seconds`` have passed, checks every
output, and prints the end-to-end metrics.

``--trace 1`` is the traced run.  It times one untraced round, installs
span wrappers around the program's layers, sets up and runs whole
traced rounds for ``--seconds``, replays the test streams through the
online detector without the service, and prints the per-layer metrics.
Its spans go to ``.perfbench-out/spans-<workload>-seed<n>.jsonl``.

Both print a detail line (run manifest, accounting, checks, reference
figures) before the result line, and append both to
``.perfbench-out/records.jsonl`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"

#: End-to-end metric name -> unit; BENCHMARK.json lists the same.
E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "detect_s": "s",
    "stream_eps": "events/s",
    "stream_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Percentiles the open-loop tail is read at, highest first.
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)


def fail(message: str, code: int = 2) -> "NoReturn":
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def tracing_active() -> "str | None":
    if sys.gettrace() is not None:
        return "a trace function (sys.settrace)"
    if sys.getprofile() is not None:
        return "a profile function (sys.setprofile)"
    if tracemalloc.is_tracing():
        return "tracemalloc"
    return None


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop (median of three).

    A diagnostic of how fast this host ran at the time; it never scales
    a metric.
    """
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(400_000):
            total += value * value % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def git_revision() -> "str | None":
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def manifest(seed: int) -> dict:
    import numpy as np

    blas = None
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "seed": seed,
    }


def median(values) -> float:
    return float(statistics.median(list(values)))


def tail(latencies: list[float]) -> dict:
    """The highest percentile with at least ten windows beyond it."""
    count = len(latencies)
    for percentile in TAIL_PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= 10:
            cut = statistics.quantiles(latencies, n=1000, method="inclusive")
            return {
                "percentile": percentile,
                "windows": count,
                "ms": cut[int(round(percentile * 10)) - 1],
            }
    return {"percentile": None, "windows": count, "ms": None}


def account(workload, rounds, checks) -> "Accounting":
    from workloads import Accounting

    accounting = Accounting()
    for report in workload.setup_builds:
        accounting.build(report)
    expected = workload.expected_stream_windows()
    for done in rounds:
        for report in done.builds:
            accounting.build(report)
        accounting.stream(done.closed, expected)
        accounting.stream(done.open, expected)
    accounting.add("checks", checks.attempted, checks.failed)
    return accounting


def timed_rounds(workload, seconds: float, phase=None) -> tuple[list, list]:
    """Whole rounds until ``seconds`` have passed; returns rounds and windows."""
    rounds, windows = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        if phase is None:
            rounds.append(workload.round())
        else:
            with phase("bench.round"):
                rounds.append(workload.round())
        windows.append((began, time.perf_counter()))
        if time.perf_counter() - start >= seconds:
            return rounds, windows


def end_to_end(workload, setup_times, rounds) -> dict[str, float]:
    fits = [r.fit_s for r in rounds if r.fit_s is not None] or workload.setup_fit_s
    latencies = [ms for r in rounds for ms in r.open.latencies_ms]
    return {
        "setup_s": median(setup_times),
        "fit_s": median(fits),
        "detect_s": median(s for r in rounds for s in r.detect_s),
        "stream_eps": median(r.closed.cells / r.closed.seconds for r in rounds),
        "stream_p50_ms": median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def replay(workload, recorder) -> dict:
    """Single-threaded online scoring of the test streams, no service."""
    from repro.detection.online import OnlineAnomalyDetector
    from stream import chunk_cells, interleave

    graph, options, streams = workload.replay()
    detectors = {tenant: OnlineAnomalyDetector(graph, **options) for tenant in streams}
    order = interleave(streams)
    windows = 0
    start = time.perf_counter()
    with recorder.span("bench.replay"):
        for tenant, _, chunk in order:
            windows += len(detectors[tenant].push_chunk(chunk))
    return {
        "window": (start, time.perf_counter()),
        "windows": windows,
        "cells": sum(chunk_cells(chunk) for _, _, chunk in order),
    }


def run(args) -> tuple[dict, dict]:
    from reference import Checks
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    detail: dict = {"workload": args.workload, "trace": args.trace}
    detail["manifest"] = manifest(args.seed)
    detail["host_probe_s"] = {"before": host_probe()}
    try:
        if args.trace:
            metrics, rounds, extra = traced(workload, args.seconds)
        else:
            metrics, rounds, extra = timed(workload, args.seconds)
        detail.update(extra)
        detail["host_probe_s"]["after"] = host_probe()
        checks = Checks()
        start = time.perf_counter()
        workload.check(rounds, checks)
        detail["check_s"] = time.perf_counter() - start
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    accounting = account(workload, rounds, checks)
    detail["rounds"] = len(rounds)
    detail["input_digests"] = workload.digests
    detail["accounting"] = {"attempted": accounting.attempted, "failed": accounting.failed}
    detail["check_failures"] = checks.failures
    if args.trace:
        from layers import LAYER_UNITS as units
    else:
        units = E2E_UNITS
    result = {
        "correct": checks.failed == 0,
        "attempted": sum(accounting.attempted.values()),
        "failed": sum(accounting.failed.values()),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, detail


def timed(workload, seconds: float):
    setup_times = []
    for _ in range(workload.setups):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    active = tracing_active()
    if active:
        fail(f"refusing to time with {active} active")
    rounds, _ = timed_rounds(workload, seconds)
    metrics = end_to_end(workload, setup_times, rounds)
    latencies = [ms for r in rounds for ms in r.open.latencies_ms]
    extra = {
        "setup_times_s": setup_times,
        "round_fit_s": [r.fit_s for r in rounds],
        "round_detect_s": [r.detect_s for r in rounds],
        "open_loop_tail": tail(latencies),
        "generator_lag_max_ms": max(max(r.open.lag_ms) for r in rounds),
    }
    return metrics, rounds, extra


def traced(workload, seconds: float):
    from layers import layer_metrics
    from tracing import Instrumentation, SpanRecorder

    workload.setup()
    active = tracing_active()
    if active:
        fail(f"refusing to time with {active} active")
    start = time.perf_counter()
    untraced_round = workload.round()
    untraced_wall = time.perf_counter() - start

    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder)
    instrumentation.install()
    workload.recorder = recorder
    try:
        began = time.perf_counter()
        builds_before = len(workload.setup_builds)
        with recorder.span("bench.setup"):
            workload.setup()
        setup_window = (began, time.perf_counter())
        setup_builds = workload.setup_builds[builds_before:]
        rounds, round_windows = timed_rounds(workload, seconds, recorder.span)
        replayed = replay(workload, recorder)
    finally:
        workload.recorder = None
        instrumentation.remove()

    traced_wall = median(end - begin for begin, end in round_windows)
    metrics, table = layer_metrics(
        recorder,
        setup_window,
        round_windows,
        rounds,
        setup_builds,
        replayed,
        traced_wall - untraced_wall,
    )
    spans_path = OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl"
    recorder.write(spans_path)
    extra = {
        "untraced_round_s": untraced_wall,
        "traced_round_s": [end - begin for begin, end in round_windows],
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "self_time": table,
    }
    return metrics, [untraced_round] + rounds, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program source under {ROOT / 'src'}; run from a full checkout")
    active = tracing_active()
    if active:
        fail(f"refusing to run with {active} active")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    result, detail = run(args)
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"seed": args.seed, "seconds": args.seconds, "result": result, "detail": detail}
    with (OUT / "records.jsonl").open("a") as stream:
        stream.write(json.dumps(record) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
