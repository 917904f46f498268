"""The perf gate: perfbench A/B of the working tree against a base revision.

Usage (from anywhere inside the checkout)::

    python benchmarks/perf_gate.py <base-revision>

Both sides run from sibling directories of one temporary directory
(removed on exit): the base revision is checked out there with ``git
worktree add --detach`` as ``base/``, and the working tree is copied there
as ``head/`` (every file ``git ls-files -co --exclude-standard`` lists, so
uncommitted changes count and ignored build output does not). Running
head from the checkout itself instead moved table3-n10 ``runs_per_s`` by
+19% against the base worktree on unchanged code, where two side-by-side
copies differed by 2%. For every workload in ``BENCHMARK.json`` the gate
runs :data:`PAIRS` pairs of

    python3 perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0

once in ``base/`` and once in ``head/``, alternating which side goes first,
and reads each run's result from the last line of its standard output. It
then times two floors on head alone: the compiled kernels against the
numpy reference (:data:`KERNEL_FLOOR`) and the fused multi-chain
``map_many`` against a per-seed ``map`` loop (:data:`FUSED_FLOOR`). Head's
perfbench records are copied back to ``perfbench/out/`` of the checkout.

The gate fails, and exits 1, on any of:

* a run that exits non-zero or reports ``correct: false``;
* a higher failed share of operations on head than on base;
* an end-to-end metric whose head median is worse than the base median by
  more than its ``BENCHMARK.json`` ``bound``, in its ``better`` direction;
* a floor ratio below its floor.

The verdict functions (:func:`workload_problems`, :func:`floor_problems`)
are pure, so they are unit-tested on fabricated run records.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Alternating-order (base, head) pairs per workload; pair ``i`` runs seed
#: ``i + 1`` on both sides.
PAIRS = 3

#: Compiled kernels vs the numpy reference: wall time of one fixed n = 50
#: paper-pair ``MatchMapper(MatchConfig(max_iterations=40)).map``. Measured
#: at 6.5-10.6x over six gate runs on a 2-core host; the floor leaves a wide
#: margin for CI runners.
KERNEL_FLOOR = 2.5
KERNEL_N = 50
KERNEL_ITERATIONS = 40

#: Per-seed ``map`` loop vs fused multi-chain ``map_many`` (best of
#: :data:`FUSED_REPEATS`) at n = 10 with 30 seeds, the Table 3 load, on
#: each backend. Measured at 2.2-3.1x (cext) and 2.5-3.2x (numpy) over six
#: gate runs on a 2-core host; single repetitions swing more, hence best-of.
FUSED_FLOOR = 1.5
FUSED_N = 10
FUSED_SEEDS = 30
FUSED_REPEATS = 3

#: Seed of the generated paper pair both floors solve.
FLOOR_PAIR_SEED = 2005

BACKENDS = ("cext", "numpy")


# -- verdict (pure) -------------------------------------------------------------


def worse_by(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``.

    Positive means worse in the metric's ``better`` direction ("higher" or
    "lower"); zero or negative means as good or better.
    """
    change = head - base if better == "lower" else base - head
    if base == 0:
        return 0.0 if change <= 0 else float("inf")
    return change / abs(base)


def failed_share(runs: Sequence[Mapping[str, Any]]) -> float:
    """Failed operations over attempted ones, across ``runs``."""
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def run_problems(workload: str, side: str, runs: Sequence[Mapping[str, Any]]) -> list[str]:
    """A failure line for every run that exited non-zero or was incorrect."""
    problems = []
    for i, run in enumerate(runs):
        if run["returncode"] != 0:
            problems.append(f"{workload}: {side} run {i} exited {run['returncode']}")
        if run.get("correct") is not True:
            problems.append(f"{workload}: {side} run {i} reported correct: {run.get('correct')}")
    return problems


def metric_median(runs: Sequence[Mapping[str, Any]], name: str) -> float:
    return statistics.median(run["metrics"][name]["value"] for run in runs)


def workload_problems(
    workload: str,
    base: Sequence[Mapping[str, Any]],
    head: Sequence[Mapping[str, Any]],
    end_to_end: Sequence[Mapping[str, Any]],
) -> list[str]:
    """Every reason ``head`` fails against ``base`` on one workload.

    ``base``/``head`` are run records: a perfbench result object plus the
    run's ``returncode``. ``end_to_end`` is ``BENCHMARK.json``'s list of
    ``{"name", "better", "bound"}`` metrics.
    """
    problems = run_problems(workload, "base", base) + run_problems(workload, "head", head)
    reported = [run for run in (*base, *head) if "metrics" in run]
    if len(reported) != len(base) + len(head):
        return problems
    base_share, head_share = failed_share(base), failed_share(head)
    if head_share > base_share:
        problems.append(
            f"{workload}: failed share {head_share:.3g} on head > {base_share:.3g} on base"
        )
    for metric in end_to_end:
        name = metric["name"]
        b, h = metric_median(base, name), metric_median(head, name)
        worse = worse_by(b, h, metric["better"])
        if worse > metric["bound"]:
            problems.append(
                f"{workload}: {name} median {h:.6g} vs base {b:.6g} is "
                f"{worse:.1%} worse ({metric['better']} is better; bound {metric['bound']:.0%})"
            )
    return problems


def floor_problems(kernel_ratio: float, fused_ratios: Mapping[str, float]) -> list[str]:
    """A failure line for every floor ratio below its floor."""
    problems = []
    if kernel_ratio < KERNEL_FLOOR:
        problems.append(f"kernel floor: numpy/cext {kernel_ratio:.2f}x < {KERNEL_FLOOR}x")
    for backend, ratio in fused_ratios.items():
        if ratio < FUSED_FLOOR:
            problems.append(f"fused floor ({backend}): serial/fused {ratio:.2f}x < {FUSED_FLOOR}x")
    return problems


# -- measurement ----------------------------------------------------------------


def floor_probe() -> None:
    """Time both floors under the process's ``REPRO_KERNEL``; print one JSON line.

    Runs in a child process (see :func:`measure_floors`) so each backend
    gets a fresh interpreter.
    """
    from repro.core.config import MatchConfig
    from repro.core.match import MatchMapper
    from repro.graphs import generate_paper_pair
    from repro.kernels.dispatch import get_backend
    from repro.mapping.problem import MappingProblem

    def problem(n: int) -> MappingProblem:
        pair = generate_paper_pair(n, FLOOR_PAIR_SEED)
        return MappingProblem(pair.tig, pair.resources, require_square=True)

    big = problem(KERNEL_N)
    MatchMapper(MatchConfig(max_iterations=2)).map(big, 0)  # warm-up: kernel load
    t0 = time.perf_counter()
    MatchMapper(MatchConfig(max_iterations=KERNEL_ITERATIONS)).map(big, 0)
    map_s = time.perf_counter() - t0

    small, seeds, mapper = problem(FUSED_N), list(range(FUSED_SEEDS)), MatchMapper()
    sides = {
        "serial": lambda: [mapper.map(small, s) for s in seeds],
        "fused": lambda: mapper.map_many(small, seeds),
    }
    best: dict[str, float] = {}
    ets: dict[str, list[float]] = {}
    for _ in range(FUSED_REPEATS):
        for side, run in sides.items():
            t0 = time.perf_counter()
            results = run()
            best[side] = min(best.get(side, float("inf")), time.perf_counter() - t0)
            ets[side] = [r.execution_time for r in results]
    if ets["serial"] != ets["fused"]:
        raise SystemExit("map_many and the per-seed map loop disagree on execution times")
    record = {
        "backend": get_backend().name,
        "map_s": map_s,
        "serial_s": best["serial"],
        "fused_s": best["fused"],
    }
    print(json.dumps(record))  # repro: noqa[run-discipline] -- to the parent gate's pipe


def measure_floors(head_tree: Path) -> tuple[float, dict[str, float]]:
    """(numpy/cext kernel ratio, serial/fused ratio per backend) on head."""
    probes = {}
    for backend in BACKENDS:
        env = {
            **os.environ,
            "REPRO_KERNEL": backend,
            "REPRO_KERNEL_CACHE": str(head_tree / "perfbench" / ".build" / "kernels"),
            "PYTHONPATH": str(head_tree / "src"),
        }
        code = f"import sys; sys.path.insert(0, {str(head_tree / 'benchmarks')!r}); " + (
            "import perf_gate; perf_gate.floor_probe()"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, check=True, stdout=subprocess.PIPE, text=True
        ).stdout
        probe = json.loads(out.strip().splitlines()[-1])
        if probe["backend"] != backend:
            raise SystemExit(f"floor probe asked for {backend}, ran {probe['backend']}")
        probes[backend] = probe
        print(
            f"floor probe [{backend}]: n={KERNEL_N} map {probe['map_s']:.3f}s, "
            f"n={FUSED_N} x{FUSED_SEEDS} serial {probe['serial_s']:.3f}s "
            f"fused {probe['fused_s']:.3f}s",
            flush=True,
        )
    kernel_ratio = probes["numpy"]["map_s"] / probes["cext"]["map_s"]
    fused = {b: p["serial_s"] / p["fused_s"] for b, p in probes.items()}
    return kernel_ratio, fused


def perfbench_run(
    config: Mapping[str, Any], tree: Path, workload: str, seed: int
) -> dict[str, Any]:
    """One perfbench run in ``tree``: its result object plus ``returncode``."""
    cmd = [
        *config["command"], "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {**result, "returncode": proc.returncode}


def snapshot_tree(source: Path, dest: Path) -> None:
    """Copy the working tree of the checkout at ``source`` into ``dest``.

    The files are what ``git ls-files -co --exclude-standard`` lists:
    tracked and untracked, minus ignored ones. A tracked file deleted in
    the working tree is left out, as it is absent from the working tree.
    """
    listed = subprocess.run(
        ["git", "ls-files", "-co", "--exclude-standard", "-z"],
        cwd=source, check=True, stdout=subprocess.PIPE,
    ).stdout.decode()
    for name in filter(None, listed.split("\0")):
        path = source / name
        if path.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / name)


def run_pairs(
    config: Mapping[str, Any], trees: Mapping[str, Path], workload: str
) -> dict[str, list[dict[str, Any]]]:
    """:data:`PAIRS` alternating-order pairs of one workload: base and head runs."""
    runs: dict[str, list[dict[str, Any]]] = {"base": [], "head": []}
    for i in range(PAIRS):
        for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
            run = perfbench_run(config, trees[side], workload, i + 1)
            runs[side].append(run)
            value = run.get("metrics", {}).get("runs_per_s", {}).get("value")
            print(
                f"{workload} pair {i} {side}: exit {run['returncode']}, "
                f"correct {run.get('correct')}, runs_per_s {value}",
                flush=True,
            )
    return runs


def main(argv: Sequence[str]) -> int:
    if len(argv) != 1:
        print("usage: perf_gate.py <base-revision>", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = config["end_to_end"]
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        snapshot_tree(ROOT, trees["head"])
        subprocess.run(
            ["git", "worktree", "add", "--detach", str(trees["base"]), argv[0]],
            cwd=ROOT, check=True,
        )
        try:
            for entry in config["workloads"]:
                runs = run_pairs(config, trees, entry["name"])
                print_table(entry["name"], runs["base"], runs["head"], end_to_end)
                problems += workload_problems(entry["name"], runs["base"], runs["head"], end_to_end)
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(trees["base"])], cwd=ROOT, check=False
            )
        kernel_ratio, fused = measure_floors(trees["head"])
        head_out = trees["head"] / "perfbench" / "out"
        if head_out.is_dir():
            shutil.copytree(head_out, ROOT / "perfbench" / "out", dirs_exist_ok=True)
    print(f"kernel floor: numpy/cext {kernel_ratio:.2f}x (floor {KERNEL_FLOOR}x)")
    for backend, ratio in fused.items():
        print(f"fused floor ({backend}): serial/fused {ratio:.2f}x (floor {FUSED_FLOOR}x)")
    problems += floor_problems(kernel_ratio, fused)
    for line in problems:
        print(f"FAIL {line}")
    print(f"perf gate vs {argv[0]}: {'FAIL' if problems else 'PASS'}")
    return 1 if problems else 0


def print_table(
    workload: str,
    base: Sequence[Mapping[str, Any]],
    head: Sequence[Mapping[str, Any]],
    end_to_end: Sequence[Mapping[str, Any]],
) -> None:
    if not all("metrics" in run for run in (*base, *head)):
        return
    print(f"{workload}: metric, base median, head median, worse by (bound)")
    for metric in end_to_end:
        b, h = metric_median(base, metric["name"]), metric_median(head, metric["name"])
        print(
            f"  {metric['name']:16s} {b:12.6g} {h:12.6g} "
            f"{worse_by(b, h, metric['better']):+8.1%} ({metric['bound']:.0%})"
        )
    print(f"  {'failed_share':16s} {failed_share(base):12.3g} {failed_share(head):12.3g}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
