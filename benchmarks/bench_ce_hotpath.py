"""CE hot-path benchmark — writes ``BENCH_ce_hotpath.json``.

Tracks the performance trajectory of the CE engine across PRs with three
measurement groups:

* **sampling** — GenPerm throughput (mappings/s) at ``n ∈ {10, 50}`` for
  the single-matrix sampler, the stacked multi-chain sampler, and a
  replica of the pre-optimization ("seed") sampler;
* **scoring** — batch Eq. (2) throughput on a near-degenerate batch;
* **end_to_end** — multi-run CE wall-clock: the fused multi-chain engine
  (:meth:`MatchMapper.map_many` with ``mode="fused"`` forced) vs a serial
  per-run loop vs the seed-path replica, plus an ``auto`` stage recording
  which path the crossover-aware default picks at this (n, R) and what it
  costs. At ``n = 10`` this is the Table 3 MaTCH replication (30 paper
  repetitions, per-rep derived seeds); the recorded acceptance ratio is
  fused vs seed path there.

The seed-path replica reproduces the hot path the repo shipped before the
multi-chain engine: the row-major GenPerm sampler with per-position
allocations and the 2-D fancy-index communication lookup. Where the
replica and the original differ (the surrounding optimizer loop has since
been lightly tuned too), the replica is the *faster* of the two, so the
recorded speedup is a lower bound.

Every measurement group runs once per loadable kernel backend
(:mod:`repro.kernels`: numpy always; cext when this machine has a C
compiler); per-backend results live under ``kernels.<name>`` and
every entry carries a ``kernel`` field. The legacy top-level groups are
the **numpy** backend's numbers, keeping the file comparable with the
committed history. The ``acceptance.kernel`` section records the compiled
backend's end-to-end gain on the n = 50 Table 3 group.

Usage::

    PYTHONPATH=src python benchmarks/bench_ce_hotpath.py [--smoke] [--out PATH] [--check]

``--smoke`` shrinks sizes and repetition counts so the whole script runs in
a few seconds while still exercising every measurement path; the test suite
runs it that way. ``--check`` exits non-zero unless the best compiled
backend clears ``TARGET_KERNEL_SPEEDUP`` end-to-end at n = 50 (full scale
only). Timings are best-of-``repeats`` to shrug off scheduler noise; the
fused and serial paths must agree on every execution time (seed-for-seed
parity) or the script aborts.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro import kernels
from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.core.config import MatchConfig
from repro.core.match import MatchMapper
from repro.experiments.suite import build_suite
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runstore import BenchResult
from repro.utils.rng import RngStreams, as_generator

#: The acceptance bar this file exists to document: fused multi-chain vs the
#: seed-path replica on the Table 3 (n = 10, 30 runs) replication.
TARGET_SPEEDUP = 3.0

#: Gate for the compiled kernel layer: best compiled backend vs the numpy
#: reference, end-to-end on the n = 50 Table 3 group. The layer was landed
#: on a measured >= 3x; the gate sits at 2.5x to absorb scheduler noise.
TARGET_KERNEL_SPEEDUP = 2.5


# -- the pre-optimization hot path, kept as the measured baseline ---------------


def _seed_sample_permutations(P, n_samples, rng=None):
    """The GenPerm sampler as shipped in the growth seed (row-major layout,
    fresh allocations per position). Semantics match the current sampler;
    only the constant factor differs."""
    arr = np.asarray(P, dtype=np.float64)
    n_tasks, n_res = arr.shape
    gen = as_generator(rng)
    task_orders = np.argsort(gen.random((n_samples, n_tasks)), axis=1)
    X = np.full((n_samples, n_tasks), -1, dtype=np.int64)
    used = np.zeros((n_samples, n_res), dtype=bool)
    rows = np.arange(n_samples)
    for pos in range(n_tasks):
        tasks = task_orders[:, pos]
        probs = arr[tasks]
        probs = np.where(used, 0.0, probs)
        mass = probs.sum(axis=1)
        dead = mass <= 0.0
        if dead.any():
            probs[dead] = (~used[dead]).astype(np.float64)
            mass = probs.sum(axis=1)
        cdf = np.cumsum(probs, axis=1)
        u = gen.random(n_samples) * mass
        choice = (cdf <= u[:, np.newaxis]).sum(axis=1)
        np.minimum(choice, n_res - 1, out=choice)
        bad = used[rows, choice]
        if bad.any():
            choice[bad] = np.argmax(~used[bad], axis=1)
        X[rows, tasks] = choice
        used[rows, choice] = True
    return X


def _seed_batch_scorer(problem: MappingProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Eq. (2) batch scorer as shipped in the seed: 2-D fancy-index
    communication lookup instead of the flat ``np.take``."""
    W = problem.task_weights
    w = problem.proc_weights
    C = problem.edge_weights
    ccm = problem.comm_costs
    eu = problem.edges[:, 0] if problem.edges.size else np.empty(0, dtype=np.int64)
    ev = problem.edges[:, 1] if problem.edges.size else np.empty(0, dtype=np.int64)
    n_r = problem.n_resources

    def evaluate_batch(X: np.ndarray) -> np.ndarray:
        N = X.shape[0]
        row_offsets = (np.arange(N, dtype=np.int64) * n_r)[:, np.newaxis]
        comp_w = W[np.newaxis, :] * w[X]
        totals = np.bincount(
            (row_offsets + X).ravel(), weights=comp_w.ravel(), minlength=N * n_r
        )
        if eu.size:
            s = X[:, eu]
            b = X[:, ev]
            link = C[np.newaxis, :] * ccm[s, b]
            totals += np.bincount(
                (row_offsets + s).ravel(), weights=link.ravel(), minlength=N * n_r
            )
            totals += np.bincount(
                (row_offsets + b).ravel(), weights=link.ravel(), minlength=N * n_r
            )
        return totals.reshape(N, n_r).max(axis=1)

    return evaluate_batch


# -- measurement helpers --------------------------------------------------------


def _best_of(fn: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best wall-clock seconds, last result)."""
    best = float("inf")
    result: object = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _bench_sampling(n: int, repeats: int) -> dict:
    """GenPerm throughput on a uniform n×n matrix at the paper batch size."""
    n_samples = 2 * n * n
    P = np.full((n, n), 1.0 / n)
    n_chains = 8
    P_stack = np.broadcast_to(P, (n_chains, n, n)).copy()

    t_cur, _ = _best_of(lambda: sample_permutations(P, n_samples, rng=0), repeats)
    rand_orders = np.random.default_rng(0).random((n_chains, n_samples, n))
    rand_pos = np.random.default_rng(1).random((n_chains, n, n_samples))
    t_stk, _ = _best_of(
        lambda: sample_permutations_stacked(P_stack, rand_orders, rand_pos),
        repeats,
    )
    t_old, _ = _best_of(lambda: _seed_sample_permutations(P, n_samples, rng=0), repeats)
    return {
        "n": n,
        "batch_size": n_samples,
        "current_mappings_per_s": n_samples / t_cur,
        "stacked_mappings_per_s": n_chains * n_samples / t_stk,
        "seed_replica_mappings_per_s": n_samples / t_old,
        "speedup_vs_seed_sampler": t_old / t_cur,
    }


def _bench_scoring(problem: MappingProblem, repeats: int) -> dict:
    """Batch Eq. (2) throughput on one ``N = 2n²`` batch.

    The batch tiles a handful of distinct mappings, as late CE iterations
    draw once ``P`` commits; it is the batch earlier reports measured, so
    ``plain_rows_per_s`` stays comparable with its history.
    """
    n = problem.n_tasks
    n_samples = 2 * n * n
    distinct = sample_permutations(
        np.full((n, problem.n_resources), 1.0 / problem.n_resources),
        max(1, n_samples // 8),
        rng=7,
    )
    reps = -(-n_samples // distinct.shape[0])
    batch = np.tile(distinct, (reps, 1))[:n_samples]
    np.random.default_rng(11).shuffle(batch)

    model = CostModel(problem)
    t_plain, _ = _best_of(lambda: model.evaluate_batch(batch), repeats)
    return {
        "n": n,
        "batch_size": n_samples,
        "plain_rows_per_s": n_samples / t_plain,
    }


def _bench_end_to_end(
    size: int,
    n_runs: int,
    repeats: int,
    *,
    with_seed_replica: bool,
    max_iterations: int,
    seed: int = 2005,
) -> dict:
    """Multi-run CE wall-clock: fused multi-chain vs serial loop vs seed path.

    Mirrors the Table 3 MaTCH group: one suite instance, ``n_runs``
    repetitions with per-rep derived seeds. The fused and serial paths must
    produce identical execution times (seed-for-seed parity). The fused
    stage forces ``mode="fused"`` so the measurement stays comparable with
    the committed history even where the crossover-aware auto-select would
    choose the serial loop; a third ``auto`` stage records what
    ``map_many``'s default now picks (and costs) at this (n, R).
    """
    instance = build_suite((size,), 1, seed=seed)[size][0]
    problem = instance.problem
    streams = RngStreams(seed=seed)
    run_seeds = [
        streams.seed_for("anova", heuristic="MaTCH", rep=rep) for rep in range(n_runs)
    ]
    config = MatchConfig(max_iterations=max_iterations)

    auto_mode: list[str] = []

    def fused() -> list[float]:
        results = MatchMapper(config).map_many(problem, run_seeds, mode="fused")
        return [r.execution_time for r in results]

    def serial() -> list[float]:
        mapper = MatchMapper(config)
        return [mapper.map(problem, s).execution_time for s in run_seeds]

    def auto() -> list[float]:
        results = MatchMapper(config).map_many(problem, run_seeds)
        auto_mode[:] = [results[0].extras["multichain_mode"]] if results else []
        return [r.execution_time for r in results]

    def seed_path() -> list[float]:
        from repro.ce.optimizer import CrossEntropyOptimizer

        scorer = _seed_batch_scorer(problem)
        ce_cfg = config.ce_config(problem.n_resources)
        ets = []
        for s in run_seeds:
            result = CrossEntropyOptimizer(
                scorer,
                problem.n_tasks,
                problem.n_resources,
                ce_cfg,
                sampler=_seed_sample_permutations,
                rng=s,
            ).run()
            ets.append(result.best_cost)
        return ets

    t_fused, ets_fused = _best_of(fused, repeats)
    t_serial, ets_serial = _best_of(serial, repeats)
    if ets_fused != ets_serial:
        raise AssertionError(
            f"fused/serial execution times diverged at n={size}: "
            f"{ets_fused} vs {ets_serial}"
        )
    t_auto, ets_auto = _best_of(auto, repeats)
    if ets_auto != ets_fused:
        raise AssertionError(
            f"auto-mode execution times diverged at n={size}: "
            f"{ets_auto} vs {ets_fused}"
        )
    out = {
        "n": size,
        "n_runs": n_runs,
        "max_iterations": max_iterations,
        "fused_seconds": t_fused,
        "serial_seconds": t_serial,
        "speedup_fused_vs_serial": t_serial / t_fused,
        # The mode map_many picks on its own for this (n, R), plus what
        # the crossover-aware auto-select actually costs relative to the
        # better of the two hand-forced paths.
        "auto_seconds": t_auto,
        "auto_mode": auto_mode[0] if auto_mode else None,
        "speedup_auto_vs_best_forced": min(t_fused, t_serial) / t_auto,
        "et_parity_fused_vs_serial": True,
        "mean_execution_time": float(np.mean(ets_fused)),
    }
    if with_seed_replica:
        t_old, _ = _best_of(seed_path, repeats)
        out["seed_path_seconds"] = t_old
        out["speedup_fused_vs_seed_path"] = t_old / t_fused
    return out


# -- driver ---------------------------------------------------------------------


def _bench_backend(name: str, smoke: bool) -> dict:
    """All three measurement groups under one pinned kernel backend."""
    if smoke:
        sizes = (10,)
        repeats = 1
        e2e = {10: 3}
    else:
        sizes = (10, 50)
        repeats = 4
        # n = 10: the Table 3 replication (30 paper repetitions); n = 50:
        # fewer runs — each is ~2 orders of magnitude heavier.
        e2e = {10: 30, 50: 4}

    group: dict = {"sampling": {}, "scoring": {}, "end_to_end": {}}
    with kernels.use_backend(name):
        for n in sizes:
            group["sampling"][str(n)] = {"kernel": name, **_bench_sampling(n, repeats)}
        for n in sizes:
            instance = build_suite((n,), 1, seed=2005)[n][0]
            group["scoring"][str(n)] = {
                "kernel": name,
                **_bench_scoring(instance.problem, repeats),
            }
        for n in sizes:
            group["end_to_end"][str(n)] = {
                "kernel": name,
                **_bench_end_to_end(
                    n,
                    e2e[n],
                    repeats if n == 10 else 1,
                    # The seed-path replica is backend-independent pure
                    # numpy; measuring it once (under the numpy backend,
                    # at the n = 10 acceptance point) is enough.
                    with_seed_replica=(n == 10 and name == "numpy"),
                    max_iterations=500,
                ),
            }
    return group


def run(
    smoke: bool = False,
    out: str | Path | None = None,
    runs_root: str | Path | None = None,
) -> dict:
    """Execute every measurement group per backend and write the JSON report."""
    backend_names = [n for n, ok in kernels.available_backends().items() if ok]
    # numpy first: it is the reference every speedup is taken against.
    backend_names.sort(key=lambda n: (n != "numpy", n))

    by_backend = {name: _bench_backend(name, smoke) for name in backend_names}
    # Legacy top-level groups = the numpy reference backend, so the file
    # stays comparable with the pre-kernel committed history.
    legacy = by_backend["numpy"]

    measured = legacy["end_to_end"]["10"]["speedup_fused_vs_seed_path"]
    acceptance: dict = {
        "criterion": (
            "fused multi-chain >= 3x faster than the serial seed path on the "
            "30-run n=10 Table 3 replication"
        ),
        "target_speedup_vs_seed_path": TARGET_SPEEDUP,
        "measured_speedup_vs_seed_path": measured,
        "met": bool(measured >= TARGET_SPEEDUP) if not smoke else None,
    }

    compiled = [n for n in backend_names if n != "numpy"]
    kernel_acc: dict = {
        "criterion": (
            "best compiled kernel backend >= 2.5x faster than the numpy "
            "reference end-to-end on the n=50 Table 3 group"
        ),
        "target_speedup": TARGET_KERNEL_SPEEDUP,
        "compiled_backends": compiled,
        "measured_speedup": None,
        "best_backend": None,
        "met": None,
    }
    if compiled and not smoke:
        ref = by_backend["numpy"]["end_to_end"]["50"]["fused_seconds"]
        best_name = min(
            compiled,
            key=lambda n: by_backend[n]["end_to_end"]["50"]["fused_seconds"],
        )
        speed = ref / by_backend[best_name]["end_to_end"]["50"]["fused_seconds"]
        kernel_acc.update(
            measured_speedup=speed,
            best_backend=best_name,
            met=bool(speed >= TARGET_KERNEL_SPEEDUP),
        )
    acceptance["kernel"] = kernel_acc

    out_path = Path(out) if out is not None else Path(__file__).parent.parent / "BENCH_ce_hotpath.json"
    return BenchResult(
        "ce_hotpath",
        smoke=smoke,
        groups={"kernels": by_backend, **legacy},
        acceptance=acceptance,
        host_extra={"kernel_backends": backend_names},
    ).write(out_path, runs_root=runs_root)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes/repeats (seconds, CI-friendly)"
    )
    parser.add_argument(
        "--out", default=None, help="output JSON path (default: repo-root BENCH_ce_hotpath.json)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"exit non-zero unless a compiled backend clears "
        f"{TARGET_KERNEL_SPEEDUP}x end-to-end at n=50 (full scale only)",
    )
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help="run-store root for this bench's runs/{run_id}/ record",
    )
    args = parser.parse_args()
    report = run(smoke=args.smoke, out=args.out, runs_root=args.runs_dir)
    for backend, groups in report["kernels"].items():
        for n, row in groups["end_to_end"].items():
            line = (
                f"[{backend}] n={n}: fused {row['fused_seconds']:.3f}s, "
                f"serial {row['serial_seconds']:.3f}s "
                f"({row['speedup_fused_vs_serial']:.2f}x), "
                f"auto={row['auto_mode']} {row['auto_seconds']:.3f}s"
            )
            if "seed_path_seconds" in row:
                line += (
                    f", seed path {row['seed_path_seconds']:.3f}s "
                    f"({row['speedup_fused_vs_seed_path']:.2f}x)"
                )
            print(line)
    acc = report["acceptance"]
    print(
        f"acceptance: {acc['measured_speedup_vs_seed_path']:.2f}x "
        f"(target {acc['target_speedup_vs_seed_path']}x, met={acc['met']})"
    )
    kacc = acc["kernel"]
    if kacc["measured_speedup"] is not None:
        print(
            f"kernel acceptance: {kacc['best_backend']} "
            f"{kacc['measured_speedup']:.2f}x vs numpy at n=50 "
            f"(target {kacc['target_speedup']}x, met={kacc['met']})"
        )
    else:
        print("kernel acceptance: not judged (smoke run or no compiled backend)")
    if args.check and kacc["met"] is not True:
        print(
            "--check FAILED: compiled kernel path did not clear "
            f"{TARGET_KERNEL_SPEEDUP}x at n=50",
            file=sys.stderr,
        )
        raise SystemExit(1)


if __name__ == "__main__":
    main()
