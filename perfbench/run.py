"""The repo benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload solve-n50 --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every per-layer
metric plus the tracing overhead. The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable report that starts with the host record. The exit
code is non-zero if any output check fails, if a process, thread or
shared-memory segment the run started is left behind, or if the checkout
holds no ``src/repro`` to measure. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
#: Compiled kernels are cached inside the checkout, never in $HOME.
KERNEL_CACHE = ROOT / "perfbench" / ".build" / "kernels"
OUT_DIR = ROOT / "perfbench" / "out"
#: The host-speed probe's time at the reference speed closed-loop
#: throughput is reported at (its typical time on a 2-core 2.1 GHz host).
PROBE_REF_S = 0.0025
#: Misses with n at most this are "small" jobs in the service report.
SMALL_N = 16
#: A run that is still going after this many seconds is cut and fails.
DEADLINE_S = 150.0

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("runs_per_s", "1/s", "higher"),
    ("goodput_share", "share", "higher"),
    ("mapping_et_mean", "ET", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]


def bootstrap() -> None:
    """Put the checkout's ``src`` on the path and keep kernel builds inside it."""
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; nothing to measure")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    os.environ["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)


class DeadlineExceeded(Exception):
    pass


class Deadline:
    """Raise :class:`DeadlineExceeded` in the main thread after ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def _fire(self, signum: int, frame: Any) -> None:
        raise DeadlineExceeded(f"run exceeded its {self.seconds:.0f} s deadline")

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def host_record() -> dict[str, Any]:
    import platform

    import numpy

    from repro.kernels.dispatch import get_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernel_backend": get_backend().name,
        "REPRO_KERNEL": os.environ.get("REPRO_KERNEL"),
        "REPRO_WORKERS": os.environ.get("REPRO_WORKERS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def percentile_if_supported(values: list[float], q: float) -> float | None:
    """The q-th percentile, or None unless at least ten samples lie beyond it."""
    if len(values) * (100 - q) / 100 < 10:
        return None
    return float(statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1])


def window_s(ops: list) -> float:
    """From the first operation's due time to the last one's end."""
    return max(op.end for op in ops) - min(op.due for op in ops)


def runs_per_s(workload: Any, ops: list, window: float) -> float:
    """MaTCH runs answered per second.

    Open loop: answered runs over the window. Closed loop: runs over the
    summed median time of each job, scaled from the host speed the probe
    saw during the run to the reference speed (:data:`PROBE_REF_S`), so
    drift in the host's speed does not move the figure.
    """
    ok = [op for op in ops if op.ok]
    if not workload.closed_loop:
        return sum(op.runs for op in ok) / window
    by_job: dict[int, list] = {}
    for op in ok:
        by_job.setdefault(op.job, []).append(op)
    runs = sum(group[0].runs for group in by_job.values())
    busy = sum(statistics.median(op.latency for op in group) for group in by_job.values())
    if not busy:
        return 0.0
    return runs / busy * statistics.median(p for op in ok for p in op.probes) / PROBE_REF_S


def end_to_end(
    workload: Any,
    ops: list,
    setup_times: list[float],
    setup_probes: list[float],
    peak_rss_mb: float,
) -> tuple[dict[str, float], dict[str, Any]]:
    """The end-to-end metrics, plus details for the readable report."""
    ok = [op for op in ops if op.ok]
    solves = [op.latency for op in ok if op.kind == "solve"]
    window = window_s(ops)
    # One ET per distinct solve: a repeated job counts once.
    ets = {(op.job, k): r["execution_time"] for op in ok for k, r in enumerate(op.results)}
    metrics = {
        # At reference host speed, like runs_per_s (see host_probe).
        "setup_s": statistics.median(setup_times) * PROBE_REF_S / statistics.median(setup_probes),
        "runs_per_s": runs_per_s(workload, ops, window),
        "goodput_share": sum(op.latency <= workload.limit_s for op in ok) / len(ops),
        "mapping_et_mean": statistics.fmean(ets.values()) if ets else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    hits = [op.latency for op in ok if op.kind == "hit"]
    small = [op.latency for op in ok if op.kind == "solve" and op.size <= SMALL_N]
    details = {
        "operations": len(ops),
        "failed_share": (len(ops) - len(ok)) / len(ops),
        "window_s": window,
        "latency_limit_s": workload.limit_s,
        "solve_samples": len(solves),
        "solve_latency_p50_s": percentile_if_supported(solves, 50),
        "miss_latency_p95_s": percentile_if_supported(solves, 95),
        "hit_samples": len(hits),
        "hit_latency_p50_s": percentile_if_supported(hits, 50),
        "small_miss_samples": len(small),
        "small_miss_latency_p95_s": percentile_if_supported(small, 95),
        "generator_lateness_max_s": max(op.lateness for op in ops),
        "setup_times_s": setup_times,
        "setup_host_probe_median_s": statistics.median(setup_probes),
        "errors": sorted({op.error for op in ops if op.error})[:5],
    }
    if workload.closed_loop:
        details["host_probe_median_s"] = statistics.median(p for op in ops for p in op.probes)
    return metrics, details


def run_benchmark(
    name: str, seed: int, seconds: float, trace: bool, scale: str = "paper"
) -> dict[str, Any]:
    """Run one workload once; returns the result object plus report fields."""
    import hygiene
    import layers
    import workloads
    from tracer import Tracer, installed_wrappers, to_records

    workload = workloads.WORKLOADS[name](scale)
    before = hygiene.snapshot()
    host = host_record()  # resolves the backend: the one-time kernel build
    inputs = workload.inputs(seed, seconds)
    tracer = Tracer()
    state: dict[str, Any] | None = None
    report: dict[str, Any] = {"workload": name, "seed": seed, "host": host}
    try:
        with Deadline(DEADLINE_S):
            setup_times, setup_probes = [], []
            for _ in range(workload.setup_repeats):
                if state is not None:
                    workload.teardown(state)
                    state = None
                t0 = time.perf_counter()
                state = workload.setup(inputs, tracer)
                setup_times.append(time.perf_counter() - t0)
                setup_probes += [workloads.host_probe() for _ in range(3)]
            ops = workload.run(state, tracer, seconds=seconds)
            workload.check(state, ops)
            peak = workloads.proc_hwm_mb()
            workload.teardown(state)
            peak += state.get("child_hwm_mb", 0.0)
            extras = workload.layer_extras(state, ops)
            state = None
            if not trace:
                metrics, details = end_to_end(workload, ops, setup_times, setup_probes, peak)
                report["details"] = details
            else:
                layers.install(tracer)
                try:
                    tracer.active = True
                    state = workload.setup(inputs, tracer)
                    traced = workload.run(state, tracer, n_ops=len(ops))
                finally:
                    tracer.uninstall()
                workload.teardown(state)
                extras.update(workload.layer_extras(state, traced))
                state = None
                for op, again in zip(ops, traced):
                    if [workloads.core(r) for r in op.results] != [
                        workloads.core(r) for r in again.results
                    ]:
                        op.fail("traced run returned different results")
                wall, traced_wall = window_s(ops), window_s(traced)
                extras["trace.overhead_s"] = traced_wall - wall
                extras["trace.overhead_share"] = (traced_wall - wall) / wall
                metrics = layers.layer_metrics(tracer.spans, extras)
                OUT_DIR.mkdir(parents=True, exist_ok=True)
                spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
                spans_path.write_text(json.dumps(to_records(tracer.spans)))
                report["spans_file"] = str(spans_path.relative_to(ROOT))
                report["details"] = {"operations": len(ops), "spans": len(tracer.spans)}
    finally:
        if state is not None:
            workload.teardown(state)
        tracer.uninstall()
        problems = hygiene.leftovers(before)
    problems += [f"wrapper still installed: {w}" for w in installed_wrappers()]
    failed = sum(not op.ok for op in ops)
    report.update(
        correct=failed == 0 and not problems,
        attempted=len(ops),
        failed=failed,
        metrics=metrics,
        hygiene=problems,
    )
    return report


def units(trace: bool) -> dict[str, str]:
    import layers

    if trace:
        return {name: unit for name, unit, _ in layers.PER_LAYER}
    return {name: unit for name, unit, _ in END_TO_END}


def result_line(report: dict[str, Any], trace: bool) -> str:
    unit = units(trace)
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": report["metrics"][name], "unit": unit[name]} for name in unit
            },
        }
    )


def print_report(report: dict[str, Any], trace: bool) -> None:
    print(f"host: {json.dumps(report['host'], sort_keys=True)}")
    print(f"workload: {report['workload']}  seed: {report['seed']}  trace: {int(trace)}")
    for name, unit in units(trace).items():
        print(f"  {name:40s} {report['metrics'][name]:.6g} {unit}")
    for key, value in report.get("details", {}).items():
        print(f"  {key:40s} {value if value is not None else 'n/a (fewer than 10 beyond)'}")
    for problem in report["hygiene"]:
        print(f"  hygiene: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(report, bool(args.trace))
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=2, default=str))
    print(result_line(report, bool(args.trace)), flush=True)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
