"""Command-line interface: regenerate any paper artifact from a terminal.

Usage::

    python -m repro list                 # available experiments
    python -m repro table1               # regenerate Table 1 (smoke scale)
    python -m repro table3 --scale paper # paper-scale ANOVA study
    python -m repro all --seed 7         # every artifact
    python -m repro solve --size 20      # run MaTCH on a fresh instance
    python -m repro solve --heuristic fastmap-ga --budget-evals 2000 \
        --checkpoint run.ckpt            # budgeted, resumable run
    python -m repro resume run.ckpt      # continue an interrupted run

The ``repro-match`` console script installs the same entry point.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument schema."""
    parser = argparse.ArgumentParser(
        prog="repro-match",
        description="MaTCH reproduction harness (Sanyal & Das, IPDPS 2005)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiment ids")

    run = sub.add_parser("run", help="regenerate one experiment artifact by id")
    run.add_argument("experiment", help="experiment id (see 'list')")
    _add_common(run)

    everything = sub.add_parser("all", help="regenerate every artifact")
    _add_common(everything)

    report = sub.add_parser(
        "report", help="run all artifacts and render the markdown reproduction report"
    )
    report.add_argument(
        "--out", default=None, help="write the report to this file (default: stdout)"
    )
    _add_common(report)

    from repro.runtime import solver_names

    solve = sub.add_parser("solve", help="run a heuristic on a freshly generated instance")
    solve.add_argument("--size", type=int, default=20, help="|V_t| = |V_r| (default 20)")
    solve.add_argument(
        "--heuristic",
        choices=solver_names(),
        default="match",
        help="solver-registry name of the heuristic (default: match)",
    )
    solve.add_argument("--rho", type=float, default=0.05, help="focus parameter (match only)")
    solve.add_argument("--zeta", type=float, default=0.3, help="smoothing factor (match only)")
    solve.add_argument("--seed", type=int, default=2005, help="root seed")
    solve.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="write a resumable repro-checkpoint/1 file as the run progresses",
    )
    solve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="checkpoint cadence in solver iterations (default 1)",
    )
    _add_kernel_arg(solve)
    _add_budget_args(solve)
    _add_runstore_args(solve)

    resume = sub.add_parser(
        "resume", help="continue an interrupted run from its checkpoint file"
    )
    resume.add_argument("checkpoint", help="path to a repro-checkpoint/1 JSON file")
    resume.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="do not keep updating the checkpoint while the resumed run progresses",
    )
    _add_kernel_arg(resume)
    _add_budget_args(resume)
    _add_runstore_args(resume)

    serve = sub.add_parser(
        "serve",
        help="run the mapping gateway daemon (HTTP, cached, misses solved on pool workers)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8753, help="bind port (default 8753)")
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for the shared pool (default: REPRO_WORKERS or cpus-1)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="in-memory result-cache entries (default 1024)",
    )
    serve.add_argument(
        "--no-cache-persist",
        action="store_true",
        help="disable the on-disk cache tier under <runs-dir>/service-cache",
    )
    serve.add_argument(
        "--quota",
        type=int,
        default=None,
        metavar="EVALS",
        help="per-client evaluation quota (default: unlimited admission)",
    )
    serve.add_argument(
        "--default-charge",
        type=int,
        default=25_000,
        metavar="EVALS",
        help="quota charge for requests without max_evaluations (default 25000)",
    )
    _add_kernel_arg(serve)
    _add_runstore_args(serve)

    submit = sub.add_parser(
        "submit", help="submit one mapping request to a running gateway"
    )
    submit.add_argument("--host", default="127.0.0.1", help="gateway host (default 127.0.0.1)")
    submit.add_argument("--port", type=int, default=8753, help="gateway port (default 8753)")
    submit.add_argument(
        "--size", type=int, default=20, help="|V_t| = |V_r| of the generated instance"
    )
    submit.add_argument(
        "--heuristic",
        choices=solver_names(),
        default="match",
        help="solver-registry name (default: match)",
    )
    submit.add_argument(
        "--seed", type=int, default=2005, help="instance + run seed (matches 'solve')"
    )
    submit.add_argument("--client", default="cli", help="client id for quota accounting")
    submit.add_argument(
        "--max-evaluations",
        type=int,
        default=None,
        metavar="N",
        help="evaluation cap for the solve (also the quota charge)",
    )

    island = sub.add_parser(
        "island", help="multi-node island MaTCH (coordinator and island nodes)"
    )
    island_sub = island.add_subparsers(dest="island_command", required=True)
    i_serve = island_sub.add_parser(
        "serve",
        help=(
            "run the coordinator: wait for islands to join, then drive one "
            "distributed solve (bit-identical to the sequential simulation)"
        ),
    )
    i_serve.add_argument("--size", type=int, default=20, help="|V_t| = |V_r| (default 20)")
    i_serve.add_argument("--seed", type=int, default=2005, help="root seed (default 2005)")
    i_serve.add_argument(
        "--islands",
        type=int,
        default=2,
        metavar="N",
        help="islands that must join before the run starts (default 2)",
    )
    i_serve.add_argument(
        "--agents",
        type=int,
        default=4,
        metavar="N",
        help="CE agents sharded across the islands (default 4)",
    )
    i_serve.add_argument(
        "--sync-every",
        type=int,
        default=5,
        metavar="R",
        help="gossip cadence in rounds (default 5)",
    )
    i_serve.add_argument(
        "--gossip-weight",
        type=float,
        default=0.5,
        metavar="W",
        help="blend weight towards the leader matrix at each sync (default 0.5)",
    )
    i_serve.add_argument("--rho", type=float, default=0.05, help="focus parameter (default 0.05)")
    i_serve.add_argument("--zeta", type=float, default=0.3, help="smoothing factor (default 0.3)")
    i_serve.add_argument(
        "--total-samples",
        type=int,
        default=None,
        metavar="N",
        help="per-round sample budget across all agents (default: paper's 2n^2)",
    )
    i_serve.add_argument(
        "--max-rounds", type=int, default=500, metavar="R", help="round cap (default 500)"
    )
    i_serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    i_serve.add_argument("--port", type=int, default=8754, help="bind port (default 8754)")
    i_serve.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="S",
        help=(
            "heartbeat + join deadline in seconds; it must cover one sync "
            "interval of an island's work; a silent island is declared "
            "dead and its chains replay on survivors (default 60)"
        ),
    )
    _add_kernel_arg(i_serve)
    _add_runstore_args(i_serve)
    i_join = island_sub.add_parser(
        "join", help="run one island node against a listening coordinator"
    )
    i_join.add_argument(
        "--connect",
        default="127.0.0.1:8754",
        metavar="HOST:PORT",
        help="coordinator address (default 127.0.0.1:8754)",
    )
    i_join.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for this island's local pool (default 1)",
    )
    i_join.add_argument(
        "--name", default="", help="island name for the coordinator's logs"
    )
    _add_kernel_arg(i_join)

    runs = sub.add_parser("runs", help="inspect and replay recorded runs")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    r_list = runs_sub.add_parser("list", help="list recorded run ids")
    r_show = runs_sub.add_parser(
        "show", help="print one run's manifest, metrics and events"
    )
    r_show.add_argument("run_id")
    r_diff = runs_sub.add_parser(
        "diff", help="manifest keys that differ between two runs"
    )
    r_diff.add_argument("run_a")
    r_diff.add_argument("run_b")
    r_replay = runs_sub.add_parser(
        "replay",
        help=(
            "re-execute a recorded solve run from its manifest alone "
            "(env surface, solver, seed; verifies the problem checksum)"
        ),
    )
    r_replay.add_argument("run_id")
    r_replay.add_argument(
        "--max-evals",
        type=int,
        default=2000,
        metavar="N",
        help="evaluation cap for the replay smoke run (default 2000)",
    )
    for p in (r_list, r_show, r_diff, r_replay):
        p.add_argument(
            "--runs-dir",
            default=None,
            metavar="DIR",
            help="run-store root (default: REPRO_RUNS_DIR or ./runs)",
        )

    # Sugar: every experiment id is also a first-class subcommand.
    from repro.experiments.registry import EXPERIMENTS

    for exp_id, (desc, _) in EXPERIMENTS.items():
        p = sub.add_parser(exp_id, help=desc)
        _add_common(p)
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2005, help="root seed (default 2005)")
    parser.add_argument(
        "--scale",
        choices=("smoke", "paper"),
        default=None,
        help="scale profile (default: REPRO_SCALE env or 'smoke')",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for the execution fabric (default: experiment-"
            "specific; REPRO_WORKERS overrides the host default). Results "
            "are identical for every worker count."
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="K",
        help=(
            "re-dispatches per failed cell beyond its first attempt "
            "(default: 2, or REPRO_MAX_RETRIES). Retries replay the cell's "
            "own seed, so a salvaged run is bit-identical to a fault-free one."
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="S",
        help=(
            "per-attempt deadline in seconds for one dispatch cell "
            "(default: none, or REPRO_CELL_TIMEOUT); an overrunning cell's "
            "worker is killed and the cell retried instead of hanging the sweep"
        ),
    )
    _add_kernel_arg(parser)
    _add_runstore_args(parser)


def _add_runstore_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--runs-dir",
        default=None,
        metavar="DIR",
        help=(
            "run-store root for this invocation's runs/{run_id}/ record "
            "(default: REPRO_RUNS_DIR env or ./runs)"
        ),
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help=(
            "explicit run id (default: derived from the command and UTC "
            "stamp; collisions get a numeric suffix, never overwritten)"
        ),
    )


def _add_kernel_arg(parser: argparse.ArgumentParser) -> None:
    from repro.kernels import KERNEL_CHOICES

    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help=(
            "kernel backend for the hot loops (default: REPRO_KERNEL env or "
            "'auto'). All backends are bit-identical; naming an unavailable "
            "one is an error, 'auto' silently falls back to numpy."
        ),
    )


def _apply_kernel_choice(args: argparse.Namespace) -> None:
    """Pin the kernel backend process-wide before any solver runs.

    Exported through the environment (not just ``set_backend``) so pool
    workers spawned by the execution fabric inherit the same choice.
    """
    choice = getattr(args, "kernel", None)
    if choice is None:
        return
    import os

    from repro import kernels

    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = choice
    try:
        kernels.get_backend()  # fail fast if an explicit backend cannot load
    except Exception:
        # Do not leave a broken choice in the environment of a process
        # that may go on to run more work (tests, interactive sessions).
        if previous is None:
            os.environ.pop("REPRO_KERNEL", None)
        else:
            os.environ["REPRO_KERNEL"] = previous
        raise


def _add_budget_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget-evals",
        type=int,
        default=None,
        metavar="N",
        help="stop after N cost evaluations",
    )
    parser.add_argument(
        "--budget-seconds",
        type=float,
        default=None,
        metavar="S",
        help="stop after S heuristic wall-clock seconds",
    )
    parser.add_argument(
        "--target-cost",
        type=float,
        default=None,
        metavar="C",
        help="stop once the incumbent execution time reaches C",
    )


def _budget_from_args(args: argparse.Namespace):
    """An EvaluationBudget from the CLI flags, or None when none were given."""
    if (
        args.budget_evals is None
        and args.budget_seconds is None
        and args.target_cost is None
    ):
        return None
    from repro.runtime import EvaluationBudget

    return EvaluationBudget(
        max_evaluations=args.budget_evals,
        max_seconds=args.budget_seconds,
        target_cost=args.target_cost,
    )


def _resolve_profile(scale: str | None):
    from repro.experiments.spec import PAPER_PROFILE, SMOKE_PROFILE, active_profile

    if scale == "paper":
        return PAPER_PROFILE
    if scale == "smoke":
        return SMOKE_PROFILE
    return active_profile()


def _print_solve_result(title: str, result) -> None:
    import numpy as np

    from repro.utils.tables import render_kv_block

    rows = {
        "execution time (ET)": result.execution_time,
        "mapping time (MT, s)": result.mapping_time,
        "evaluations": result.n_evaluations,
    }
    for key in ("iterations", "stop_reason"):
        if key in result.extras:
            rows[key.replace("_", " ")] = result.extras[key]
    print(render_kv_block(title, rows))
    print("\nassignment (task -> resource):")
    print(np.array2string(result.assignment, max_line_width=100))


def _start_cli_run(args: argparse.Namespace, kind: str, **manifest_kwargs):
    """Open a run for one CLI invocation (root from --runs-dir / env)."""
    from repro.runstore import RunStore, build_manifest

    store = RunStore(getattr(args, "runs_dir", None))
    return store.start_run(
        kind,
        run_id=getattr(args, "run_id", None),
        manifest=build_manifest(kind, **manifest_kwargs),
    )


def _record_solve_result(run, result) -> None:
    run.record_metrics(
        "result",
        {
            "execution_time": result.execution_time,
            "mapping_time": result.mapping_time,
            "n_evaluations": result.n_evaluations,
            "iterations": result.extras.get("iterations"),
            "stop_reason": result.extras.get("stop_reason"),
        },
    )
    run.add_artifact("assignment.json", payload={"assignment": result.assignment})


def _cmd_solve(args: argparse.Namespace) -> int:
    from repro.graphs import generate_paper_pair
    from repro.mapping import MappingProblem
    from repro.mapping.problem_key import problem_key
    from repro.runstore import RunEventHook
    from repro.runtime import CheckpointWriter, create_mapper

    pair = generate_paper_pair(args.size, args.seed)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    params = {"rho": args.rho, "zeta": args.zeta} if args.heuristic == "match" else {}
    mapper = create_mapper(args.heuristic, params)
    run = _start_cli_run(
        args,
        "solve",
        seed=args.seed,
        config={
            "size": args.size,
            "budget_evals": args.budget_evals,
            "budget_seconds": args.budget_seconds,
            "target_cost": args.target_cost,
        },
        solver={"name": args.heuristic, "params": params},
        problems={"instance": problem_key(problem)},
    )
    checkpointer = None
    if args.checkpoint:
        checkpointer = CheckpointWriter(
            args.checkpoint,
            solver_name=args.heuristic,
            params=mapper.checkpoint_params(),
            problem=problem,
            seed=args.seed,
            every=args.checkpoint_every,
        )
        run.update_manifest({"checkpoint": str(args.checkpoint)})
    try:
        result = mapper.map(
            problem,
            args.seed,
            budget=_budget_from_args(args),
            hooks=RunEventHook(run),
            checkpointer=checkpointer,
        )
    except KeyboardInterrupt:
        run.finalize(status="interrupted")
        if args.checkpoint:
            print(
                f"\ninterrupted; resume with: repro-match resume {args.checkpoint}",
                file=sys.stderr,
            )
        return 130
    except BaseException:
        run.finalize(status="failed")
        raise
    _record_solve_result(run, result)
    run.finalize(status="complete")
    _print_solve_result(
        f"{mapper.name} on a fresh n={args.size} instance (seed {args.seed})",
        result,
    )
    print(f"run recorded: {run.path}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal
    from pathlib import Path

    from repro.runstore import default_runs_dir
    from repro.service import MappingService, ServiceConfig, start_http_server

    cache_dir = None
    if not args.no_cache_persist:
        root = Path(args.runs_dir) if args.runs_dir else default_runs_dir()
        cache_dir = root / "service-cache"
    config = ServiceConfig(
        n_workers=args.workers,
        cache_capacity=args.cache_size,
        cache_dir=cache_dir,
        client_quota=args.quota,
        default_charge=args.default_charge,
    )
    run = _start_cli_run(
        args,
        "service",
        config={
            "host": args.host,
            "port": args.port,
            "n_workers": args.workers,
            "cache_size": args.cache_size,
            "cache_persistent": cache_dir is not None,
            "quota": args.quota,
            "default_charge": args.default_charge,
        },
    )

    async def _serve() -> None:
        # SIGTERM and SIGINT end the serve loop, so leaving the service
        # context answers the admitted requests and closes the pool. A
        # daemon started with `&` from a non-interactive shell has SIGINT
        # ignored, and SIGTERM's default action would skip that cleanup.
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        async with MappingService(config, run=run) as service:
            server = await start_http_server(service, args.host, args.port)
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on http://{host}:{port}", file=sys.stderr)
            print(f"run recorded: {run.path}", file=sys.stderr)
            try:
                await stop.wait()
            finally:
                server.close()
                await server.wait_closed()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    run.finalize(status="complete")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.service import submit_over_http

    url = f"http://{args.host}:{args.port}"
    payload = {
        "problem": {"size": args.size, "seed": args.seed},
        "solver": {"name": args.heuristic, "params": {}},
        "seed": args.seed,
        "client": args.client,
        "max_evaluations": args.max_evaluations,
    }
    try:
        status, response = submit_over_http(url, payload)
    except OSError as exc:
        print(f"error: cannot reach gateway at {url}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if status == 200 else 1


def _cmd_island(args: argparse.Namespace) -> int:
    if args.island_command == "join":
        from repro.islands import run_island

        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(
                f"error: --connect wants HOST:PORT, got {args.connect!r}",
                file=sys.stderr,
            )
            return 1
        print(f"joining coordinator at {host}:{port}", file=sys.stderr)
        run_island(host, int(port), n_workers=args.workers, name=args.name)
        return 0

    import numpy as np

    from repro.core.distributed import DistributedMatchConfig
    from repro.graphs import generate_paper_pair
    from repro.islands import IslandCoordinator
    from repro.mapping import MappingProblem
    from repro.mapping.problem_key import problem_key
    from repro.utils.tables import render_kv_block

    pair = generate_paper_pair(args.size, args.seed)
    problem = MappingProblem(pair.tig, pair.resources, require_square=True)
    params = {
        "n_agents": args.agents,
        "sync_every": args.sync_every,
        "gossip_weight": args.gossip_weight,
        "rho": args.rho,
        "zeta": args.zeta,
        "total_samples": args.total_samples,
        "max_rounds": args.max_rounds,
    }
    config = DistributedMatchConfig(**params)
    run = _start_cli_run(
        args,
        "islands",
        seed=args.seed,
        config={"size": args.size, "n_islands": args.islands, "timeout": args.timeout},
        solver={"name": "match-islands", "params": params},
        problems={"instance": problem_key(problem)},
    )
    coordinator = IslandCoordinator(
        problem,
        config,
        seed=args.seed,
        n_islands=args.islands,
        host=args.host,
        port=args.port,
        heartbeat_timeout=args.timeout,
        accept_timeout=args.timeout,
        run=run,
    )
    host, port = coordinator.address
    print(
        f"coordinator on {host}:{port}; waiting for {args.islands} island(s) "
        f"(repro-match island join --connect {host}:{port})",
        file=sys.stderr,
    )
    try:
        result = coordinator.run()
    except KeyboardInterrupt:
        run.finalize(status="interrupted")
        return 130
    except BaseException:
        run.finalize(status="failed")
        raise
    extras = result["extras"]
    run.record_metrics(
        "result",
        {
            "execution_time": result["best_cost"],
            "n_evaluations": result["n_evaluations"],
            "rounds": extras["rounds"],
            "n_syncs": extras["n_syncs"],
            "node_failures": extras["node_failures"],
            "finished_locally": extras["finished_locally"],
        },
    )
    run.add_artifact("assignment.json", payload={"assignment": result["assignment"]})
    run.finalize(status="complete")
    rows = {
        "execution time (ET)": result["best_cost"],
        "evaluations": result["n_evaluations"],
        "rounds": extras["rounds"],
        "islands": extras["n_islands"],
        "node failures": extras["node_failures"],
        "replayed agent-rounds": extras["replayed_agent_rounds"],
        "discarded agent-rounds": extras["discarded_agent_rounds"],
    }
    print(
        render_kv_block(
            f"island MaTCH on a fresh n={args.size} instance (seed {args.seed})", rows
        )
    )
    print("\nassignment (task -> resource):")
    print(np.array2string(np.asarray(result["assignment"]), max_line_width=100))
    print(f"run recorded: {run.path}", file=sys.stderr)
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.runstore import RunEventHook
    from repro.runtime import resume_run

    run = _start_cli_run(
        args, "resume", config={"checkpoint": str(args.checkpoint)}
    )
    try:
        mapper, result = resume_run(
            args.checkpoint,
            budget=_budget_from_args(args),
            hooks=RunEventHook(run),
            keep_checkpointing=not args.no_checkpoint,
        )
    except BaseException:
        run.finalize(status="failed")
        raise
    _record_solve_result(run, result)
    run.finalize(status="complete")
    _print_solve_result(f"{mapper.name} resumed from {args.checkpoint}", result)
    print(f"run recorded: {run.path}", file=sys.stderr)
    return 0


def _cmd_runs(args: argparse.Namespace) -> int:
    import json

    from repro.runstore import RunStore

    store = RunStore(args.runs_dir)
    if args.runs_command == "list":
        ids = store.list_runs()
        if not ids:
            print(f"no runs under {store.root}")
            return 0
        for run_id in ids:
            manifest = store.load_manifest(run_id)
            print(
                f"{run_id:44s} {manifest.get('kind', '?'):24s} "
                f"{manifest.get('status', '?'):11s} {manifest.get('generated', '')}"
            )
        return 0
    if args.runs_command == "show":
        manifest = store.load_manifest(args.run_id)
        metrics = store.load_metrics(args.run_id)
        events = store.read_events(args.run_id)
        print(json.dumps({"manifest": manifest, "metrics": metrics}, indent=2, sort_keys=True))
        print(f"\nevents ({len(events)}):")
        for event in events:
            rest = {k: v for k, v in event.items() if k not in ("t", "event")}
            print(f"  {event.get('t', '')} {event.get('event', '?')} {rest or ''}")
        return 0
    if args.runs_command == "diff":
        delta = store.diff(args.run_a, args.run_b)
        if not delta:
            print("runs are identical (excluding run id and timestamps)")
            return 0
        width = max(len(k) for k in delta)
        for key, (a, b) in delta.items():
            print(f"{key:{width}s}  {a!r}  ->  {b!r}")
        return 0
    if args.runs_command == "replay":
        return _cmd_runs_replay(args, store)
    raise AssertionError(f"unhandled runs subcommand {args.runs_command!r}")


def _cmd_runs_replay(args: argparse.Namespace, store) -> int:
    """Re-execute a solve run from its manifest alone (the replayability
    contract behind capturing the full ``REPRO_*`` surface)."""
    from repro.exceptions import ReproError
    from repro.graphs import generate_paper_pair
    from repro.mapping import MappingProblem
    from repro.mapping.problem_key import problem_key
    from repro.runstore import RunEventHook, build_manifest, pinned_env
    from repro.runtime import EvaluationBudget, create_mapper

    manifest = store.load_manifest(args.run_id)
    if manifest.get("kind") not in ("solve", "replay"):
        raise ReproError(
            f"run {args.run_id!r} has kind {manifest.get('kind')!r}; "
            "only solve runs can be replayed"
        )
    config = manifest.get("config") or {}
    solver = manifest.get("solver") or {}
    seed = (manifest.get("rng") or {}).get("root_seed")
    if seed is None or "size" not in config or "name" not in solver:
        raise ReproError(
            f"run {args.run_id!r} has an incomplete manifest "
            "(needs rng.root_seed, config.size, solver.name)"
        )

    with pinned_env(manifest.get("env") or {}):
        pair = generate_paper_pair(int(config["size"]), int(seed))
        problem = MappingProblem(pair.tig, pair.resources, require_square=True)
        checksum = problem_key(problem)
        recorded = (manifest.get("problems") or {}).get("instance")
        if recorded is not None and checksum != recorded:
            print(
                f"error: rebuilt instance checksum {checksum[:12]} does not "
                f"match the recorded {str(recorded)[:12]} — the generator or "
                "its inputs changed since the run",
                file=sys.stderr,
            )
            return 1
        mapper = create_mapper(solver["name"], dict(solver.get("params") or {}))
        run = store.start_run(
            "replay",
            manifest=build_manifest(
                "replay",
                seed=int(seed),
                config=dict(config),
                solver=dict(solver),
                problems={"instance": checksum},
                extra={"replay_of": args.run_id},
            ),
        )
        try:
            result = mapper.map(
                problem,
                int(seed),
                budget=EvaluationBudget(max_evaluations=args.max_evals),
                hooks=RunEventHook(run),
            )
        except BaseException:
            run.finalize(status="failed")
            raise
        _record_solve_result(run, result)
        run.finalize(status="complete")
    print(
        f"replayed {args.run_id} as {run.run_id}: problem checksum verified, "
        f"{solver['name']} reached ET {result.execution_time:.6g} within "
        f"{args.max_evals} evaluations"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    from repro.experiments.registry import EXPERIMENTS, experiment_ids, run_experiment

    try:
        _apply_kernel_choice(args)
        if args.command == "list":
            for exp_id in experiment_ids():
                print(f"{exp_id:18s} {EXPERIMENTS[exp_id][0]}")
            return 0
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "island":
            return _cmd_island(args)
        if args.command == "runs":
            return _cmd_runs(args)
        if args.command == "report":
            from pathlib import Path

            from repro.experiments.reporting import build_report, render_report_markdown
            from repro.runstore import activate_run

            profile = _resolve_profile(args.scale)
            run = _start_cli_run(
                args,
                "report",
                seed=args.seed,
                config={"profile": profile.name, "n_workers": args.workers},
            )
            with activate_run(run):
                text = render_report_markdown(
                    build_report(profile, seed=args.seed, n_workers=args.workers)
                )
                run.add_artifact("report.md", text=text)
            if args.out:
                Path(args.out).write_text(text, encoding="utf-8")
                print(f"wrote {args.out}")
            else:
                print(text)
            return 0
        if args.command == "all":
            profile = _resolve_profile(args.scale)
            for exp_id in experiment_ids():
                print(
                    run_experiment(
                        exp_id, profile=profile, seed=args.seed,
                        n_workers=args.workers,
                        max_retries=args.max_retries,
                        cell_timeout=args.cell_timeout,
                        runs_dir=args.runs_dir, run_id=args.run_id,
                    )
                )
                print("\n" + "#" * 72 + "\n")
            return 0
        exp_id = args.experiment if args.command == "run" else args.command
        profile = _resolve_profile(args.scale)
        print(
            run_experiment(
                exp_id, profile=profile, seed=args.seed, n_workers=args.workers,
                max_retries=args.max_retries, cell_timeout=args.cell_timeout,
                runs_dir=args.runs_dir, run_id=args.run_id,
            )
        )
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
