"""Which repro functions the traced run wraps, and the per-layer metrics.

Every target is a public function or method of one layer, patched where
its callers look it up (see :mod:`tracer`). :data:`PER_LAYER` is the
metric list ``BENCHMARK.json`` declares; :func:`layer_metrics` computes all
of them from the spans of one traced pass, so a layer the workload does not
run reads 0.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from typing import Any

import numpy as np

from tracer import ORIGINAL_ATTR, Span, Tracer, attr_sum, busy, count, self_time

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: list[tuple[str, str, str]] = [
    ("ce.genperm.busy_s", "s", "lower"),
    ("ce.genperm.rows", "count", "lower"),
    ("ce.dedup.busy_s", "s", "lower"),
    ("ce.dedup.collapse_rate", "share", "lower"),
    ("ce.update.busy_s", "s", "lower"),
    ("ce.select.busy_s", "s", "lower"),
    ("ce.iterations", "count", "lower"),
    ("ce.other_s", "s", "lower"),
    ("mapping.score.busy_s", "s", "lower"),
    ("mapping.score.rows", "count", "lower"),
    ("mapping.score.rows_per_s", "1/s", "higher"),
    ("mapping.problem_build.busy_s", "s", "lower"),
    ("mapping.problem_key.busy_s", "s", "lower"),
    ("service.wire_decode.busy_s", "s", "lower"),
    ("service.queue_wait_p95_s", "s", "lower"),
    ("service.batch_width_mean", "count", "higher"),
    ("service.batches", "count", "lower"),
    ("service.coalesced_dedup", "count", "higher"),
    ("service.worker_utilization", "share", "lower"),
    ("utils.shared_plane.publish.busy_s", "s", "lower"),
    ("utils.shared_plane.publish.calls", "count", "lower"),
    ("utils.parallel.dispatch.busy_s", "s", "lower"),
    ("utils.parallel.retries", "count", "lower"),
    ("utils.parallel.failures", "count", "lower"),
    ("runstore.cache.hits", "count", "higher"),
    ("runstore.cache.misses", "count", "lower"),
    ("runstore.cache.hit_share", "share", "higher"),
    ("runstore.cache.hit_latency_p50_s", "s", "lower"),
    ("islands.chain_round.busy_s", "s", "lower"),
    ("islands.wire.codec.busy_s", "s", "lower"),
    ("islands.wire.frames", "count", "lower"),
    ("islands.wire.bytes", "bytes", "lower"),
    ("islands.sync_wait_s", "s", "lower"),
    ("islands.overhead_ms_per_agent_round", "ms", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]

#: Modules whose by-name imports must be loaded before patching.
MODULES = (
    "repro.ce.genperm",
    "repro.ce.quantile",
    "repro.ce.stochastic_matrix",
    "repro.ce.optimizer",
    "repro.ce.multichain",
    "repro.core.match",
    "repro.core.distributed",
    "repro.mapping.cost_model",
    "repro.mapping.problem",
    "repro.mapping.problem_key",
    "repro.utils.dedup",
    "repro.utils.parallel",
    "repro.utils.shared_plane",
    "repro.runstore.cache",
    "repro.service.service",
    "repro.service.wire",
    "repro.islands.wire",
    "repro.islands.chains",
    "repro.islands.island",
    "repro.islands.coordinator",
)


def _rows(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    shape = np.shape(result)
    return {"rows": int(np.prod(shape[:-1])) if len(shape) > 1 else 0}


def _dedup(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"rows": int(np.shape(args[0])[0]), "unique": int(np.shape(result[0])[0])}


def _scored(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"rows": int(np.shape(result)[0])}


def _frame_bytes(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    # send_frame writes a 4-byte length prefix and this exact body.
    return {"bytes": 4 + len(json.dumps(args[1], separators=(",", ":")).encode("utf-8"))}


def _cache_get(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"hit": result is not None}


def _salvage(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"retries": int(result.n_retries), "failures": len(result.failures)}


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics need."""
    for module in MODULES:
        importlib.import_module(module)
    fn = tracer.patch_function
    fn("repro.ce.genperm", "sample_permutations", "ce.genperm", _rows)
    fn("repro.ce.genperm", "sample_permutations_stacked", "ce.genperm", _rows)
    fn("repro.utils.dedup", "collapse_duplicate_rows", "ce.dedup", _dedup)
    fn("repro.ce.quantile", "select_top_k", "ce.select")
    fn("repro.ce.quantile", "select_elites", "ce.select")
    fn("repro.ce.stochastic_matrix", "stacked_elite_update", "ce.update")
    fn("repro.mapping.problem_key", "problem_key", "mapping.problem_key")
    fn("repro.service.wire", "request_from_wire", "service.wire_decode")
    fn("repro.islands.wire", "encode_matrix", "islands.wire.codec")
    fn("repro.islands.wire", "decode_matrix", "islands.wire.codec")
    fn("repro.islands.wire", "send_frame", "islands.wire.send", _frame_bytes)
    fn("repro.islands.wire", "recv_frame", "islands.wire.recv")
    fn("repro.islands.chains", "run_chain_round", "islands.chain_round")

    method = tracer.patch_method
    method("repro.core.match", "MatchMapper", "map", "ce.run")
    method("repro.core.match", "MatchMapper", "map_many", "ce.run")
    method("repro.ce.optimizer", "CrossEntropyOptimizer", "step", "ce.step")
    method("repro.ce.multichain", "MultiChainCE", "step", "ce.step")
    method("repro.ce.stochastic_matrix", "StochasticMatrix", "update_from_elites", "ce.update")
    method("repro.mapping.cost_model", "CostModel", "evaluate_batch", "mapping.score", _scored)
    method("repro.mapping.problem", "MappingProblem", "__init__", "mapping.problem_build")
    method("repro.mapping.problem", "MappingProblem", "from_plane_arrays", "mapping.problem_build")
    method("repro.runstore.cache", "ResultCache", "get", "runstore.cache.get", _cache_get)
    method("repro.utils.shared_plane", "ProblemPlane", "publish", "utils.shared_plane.publish")
    method("repro.utils.parallel", "WorkerPool", "map_salvage", "utils.parallel.dispatch", _salvage)

    # The dispatcher's batch coroutine: record each request's queue wait
    # (enqueue to dispatch) as it enters the batch.
    service_cls = importlib.import_module("repro.service.service").MappingService
    run_batch = service_cls._run_batch

    def traced_run_batch(self: Any, batch: list) -> Any:
        now = time.perf_counter()
        for work in batch:
            tracer.record("service.queue_wait", now - work.waited.elapsed, now)
        return run_batch(self, batch)

    setattr(traced_run_batch, ORIGINAL_ATTR, run_batch)
    tracer.patch_raw(service_cls, "_run_batch", traced_run_batch)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], extras: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced pass (0 when idle)."""
    main = threading.main_thread().ident
    genperm_rows = attr_sum(spans, "ce.genperm", "rows")
    dedup_rows = attr_sum(spans, "ce.dedup", "rows")
    score_busy = busy(spans, "mapping.score")
    score_rows = attr_sum(spans, "mapping.score", "rows")
    gets = [s for s in spans if s.name == "runstore.cache.get"]
    hits = [s for s in gets if s.attrs and s.attrs["hit"]]
    sends = [s for s in spans if s.name == "islands.wire.send"]
    m = {
        "ce.genperm.busy_s": busy(spans, "ce.genperm"),
        "ce.genperm.rows": genperm_rows,
        "ce.dedup.busy_s": busy(spans, "ce.dedup"),
        "ce.dedup.collapse_rate": (
            attr_sum(spans, "ce.dedup", "unique") / dedup_rows if dedup_rows else 0.0
        ),
        "ce.update.busy_s": busy(spans, "ce.update"),
        "ce.select.busy_s": busy(spans, "ce.select"),
        "ce.iterations": float(count(spans, "ce.step")),
        "ce.other_s": self_time(spans, {"ce.run", "ce.step"}),
        "mapping.score.busy_s": score_busy,
        "mapping.score.rows": score_rows,
        "mapping.score.rows_per_s": score_rows / score_busy if score_busy else 0.0,
        "mapping.problem_build.busy_s": busy(spans, "mapping.problem_build"),
        "mapping.problem_key.busy_s": busy(spans, "mapping.problem_key"),
        "service.wire_decode.busy_s": busy(spans, "service.wire_decode"),
        "service.queue_wait_p95_s": _percentile(
            [s.duration for s in spans if s.name == "service.queue_wait"], 95
        ),
        "utils.shared_plane.publish.busy_s": busy(spans, "utils.shared_plane.publish"),
        "utils.shared_plane.publish.calls": float(count(spans, "utils.shared_plane.publish")),
        "utils.parallel.dispatch.busy_s": busy(spans, "utils.parallel.dispatch"),
        "utils.parallel.retries": attr_sum(spans, "utils.parallel.dispatch", "retries"),
        "utils.parallel.failures": attr_sum(spans, "utils.parallel.dispatch", "failures"),
        "runstore.cache.hits": float(len(hits)),
        "runstore.cache.misses": float(len(gets) - len(hits)),
        "runstore.cache.hit_share": len(hits) / len(gets) if gets else 0.0,
        "runstore.cache.hit_latency_p50_s": _percentile([s.duration for s in hits], 50),
        "islands.chain_round.busy_s": busy(spans, "islands.chain_round"),
        "islands.wire.codec.busy_s": busy(spans, "islands.wire.codec"),
        "islands.wire.frames": float(len(sends)),
        "islands.wire.bytes": attr_sum(spans, "islands.wire.send", "bytes"),
        # The coordinator runs on the main thread; its receives are the
        # time it waits for islands to report or gossip.
        "islands.sync_wait_s": float(
            sum(s.duration for s in spans if s.name == "islands.wire.recv" and s.thread == main)
        ),
    }
    for name, _unit, _better in PER_LAYER:
        m.setdefault(name, float(extras.get(name, 0.0)))
    return m
