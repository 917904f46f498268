"""The run-store: every run writes ``runs/{run_id}/``, nothing else.

Layout of one run directory::

    runs/{run_id}/
        manifest.json    # provenance: git SHA, env, kernel, seeds, checksums
        metrics.json     # results: per-cell costs, timings, diagnostics
        events.jsonl     # append-only lifecycle log (one JSON object/line)
        artifacts/       # checkpoints, report snapshots, salvage manifests

``manifest.json`` and ``metrics.json`` are written atomically (temp file in
the same directory + ``os.replace``), so a kill at any instant leaves either
the previous consistent snapshot or the new one — never a truncated file.
``events.jsonl`` is append-only with per-line flush; a torn final line is
tolerated by the reader.

The *active run* is process-global context (one experiment = one run):
entry points open a run with :meth:`RunStore.start_run` and the layers
below (suite builder, comparison runner, ablation sweeps, search loops)
observe it through :func:`current_run` — no layer threads a writer through
fifteen signatures, and no layer hand-rolls its own output files again.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.exceptions import ReproError
from repro.runtime.hooks import SearchHooks
from repro.runtime.solver import StepReport
from repro.utils.serialization import to_jsonable
from repro.utils.timing import utc_stamp

__all__ = [
    "RunStoreError",
    "RunStore",
    "RunHandle",
    "RunEventHook",
    "default_runs_dir",
    "current_run",
    "activate_run",
    "diff_manifests",
]

#: Environment override for the run-store root (CLI --runs-dir wins).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

_RUN_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RunStoreError(ReproError):
    """Raised for malformed run ids, missing runs, or store misuse."""


def default_runs_dir() -> Path:
    """The store root: ``$REPRO_RUNS_DIR`` or ``runs/`` under the cwd."""
    return Path(os.environ.get(RUNS_DIR_ENV) or "runs")


def _atomic_write_json(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON via temp-file + ``os.replace`` (atomic)."""
    text = json.dumps(to_jsonable(payload), indent=2, sort_keys=True) + "\n"
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# -- active-run context ---------------------------------------------------------

_ACTIVE: list["RunHandle"] = []


def current_run() -> "RunHandle | None":
    """The innermost active run, or ``None`` outside any run context."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate_run(run: "RunHandle") -> Iterator["RunHandle"]:
    """Make ``run`` the process's active run for the duration of the block.

    On a clean exit the run is finalized as ``complete``; an exception
    finalizes it as ``failed`` (recording the exception type/message as an
    event) and propagates.
    """
    _ACTIVE.append(run)
    try:
        yield run
    except BaseException as exc:
        run.log_event("run-failed", error=f"{type(exc).__name__}: {exc}")
        run.finalize(status="failed")
        raise
    finally:
        _ACTIVE.pop()
    run.finalize(status="complete")


class RunHandle:
    """Writer for one ``runs/{run_id}/`` directory (created by the store)."""

    def __init__(self, path: Path, run_id: str) -> None:
        self.path = path
        self.run_id = run_id
        self.artifacts_dir = path / "artifacts"
        self._manifest: dict[str, Any] = {}
        self._metrics: dict[str, Any] = {}
        self._finalized = False

    # -- manifest ----------------------------------------------------------
    def write_manifest(self, manifest: Mapping[str, Any]) -> Path:
        """Write (or atomically replace) ``manifest.json``."""
        self._manifest = dict(manifest)
        self._manifest.setdefault("run_id", self.run_id)
        self._manifest.setdefault("generated", utc_stamp())
        self._manifest.setdefault("status", "running")
        target = self.path / "manifest.json"
        _atomic_write_json(target, self._manifest)
        return target

    def update_manifest(self, patch: Mapping[str, Any]) -> None:
        """Merge ``patch`` into the manifest and rewrite it atomically."""
        self._manifest.update(dict(patch))
        self.write_manifest(self._manifest)

    def merge_manifest(self, key: str, values: Mapping[str, Any]) -> None:
        """Merge ``values`` into the manifest's dict-valued ``key``.

        Used for accumulating maps (e.g. problem checksums contributed by
        several suite builds inside one run) where ``update_manifest``'s
        whole-key replacement would drop earlier contributions.
        """
        current = dict(self._manifest.get(key) or {})
        current.update(to_jsonable(values))
        self.update_manifest({key: current})

    # -- metrics -----------------------------------------------------------
    def record_metrics(self, group: str, payload: Any) -> None:
        """Record one named metrics group; rewrites ``metrics.json`` atomically.

        Groups accumulate over the run (``comparison``, ``table3``,
        ...); recording the same group twice replaces it.
        """
        self._metrics[group] = to_jsonable(payload)
        _atomic_write_json(self.path / "metrics.json", self._metrics)

    # -- events ------------------------------------------------------------
    def log_event(self, event: str, **fields: Any) -> None:
        """Append one lifecycle event line to ``events.jsonl``."""
        record = {"t": utc_stamp(), "event": event}
        record.update(to_jsonable(fields))
        with open(self.path / "events.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    # -- artifacts ---------------------------------------------------------
    def add_artifact(self, name: str, text: str | None = None, payload: Any = None) -> Path:
        """Write one artifact file (text, or a JSON payload) atomically."""
        self.artifacts_dir.mkdir(exist_ok=True)
        target = self.artifacts_dir / name
        if (text is None) == (payload is None):
            raise RunStoreError("add_artifact takes exactly one of text= or payload=")
        if text is not None:
            tmp = target.with_name(target.name + f".tmp{os.getpid()}")
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, target)
        else:
            _atomic_write_json(target, payload)
        self.log_event("artifact-written", name=name)
        return target

    def artifact_path(self, name: str) -> Path:
        """Reserve a path under ``artifacts/`` for a caller-written file
        (e.g. a solver checkpoint that the checkpoint writer owns)."""
        self.artifacts_dir.mkdir(exist_ok=True)
        return self.artifacts_dir / name

    # -- lifecycle ---------------------------------------------------------
    def finalize(self, status: str = "complete") -> None:
        """Stamp the run's final status into the manifest (idempotent)."""
        if self._finalized:
            return
        self._finalized = True
        self.log_event("run-finalized", status=status)
        self.update_manifest({"status": status, "finished": utc_stamp()})


class RunStore:
    """Owner of a ``runs/`` directory tree."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else default_runs_dir()

    # -- creation ----------------------------------------------------------
    def start_run(
        self,
        kind: str,
        *,
        run_id: str | None = None,
        manifest: Mapping[str, Any] | None = None,
    ) -> RunHandle:
        """Create ``runs/{run_id}/`` and write its initial manifest.

        ``run_id`` defaults to ``{kind}-{utc stamp}``; an id that already
        exists (same-second starts, or a caller-pinned id) gets a ``-2``,
        ``-3``, ... suffix rather than clobbering the existing run.
        """
        requested = run_id if run_id is not None else self._generate_id(kind)
        if not _RUN_ID_RE.match(requested):
            raise RunStoreError(
                f"invalid run id {requested!r}: use letters, digits, '.', '_', '-'"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        resolved = self._claim(requested)
        handle = RunHandle(self.root / resolved, resolved)
        base = dict(manifest) if manifest is not None else {"kind": kind}
        base.setdefault("kind", kind)
        handle.write_manifest(base)
        handle.log_event("run-started", kind=kind)
        return handle

    def _generate_id(self, kind: str) -> str:
        stamp = utc_stamp().replace(":", "").replace("-", "").rstrip("Z")
        return f"{kind}-{stamp}"

    def _claim(self, run_id: str) -> str:
        """Atomically claim a directory for ``run_id`` (suffix on collision)."""
        candidate = run_id
        for attempt in range(2, 1000):
            try:
                (self.root / candidate).mkdir()
                return candidate
            except FileExistsError:
                candidate = f"{run_id}-{attempt}"
        raise RunStoreError(f"could not claim a run directory for {run_id!r}")

    # -- reading -----------------------------------------------------------
    def list_runs(self) -> list[str]:
        """All run ids under the root (sorted; newest last by id stamp)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p.name for p in self.root.iterdir()
            if p.is_dir() and (p / "manifest.json").is_file()
        )

    def _run_dir(self, run_id: str) -> Path:
        path = self.root / run_id
        if not (path / "manifest.json").is_file():
            raise RunStoreError(
                f"no run {run_id!r} under {self.root} "
                f"(known: {', '.join(self.list_runs()) or 'none'})"
            )
        return path

    def load_manifest(self, run_id: str) -> dict[str, Any]:
        """The run's manifest dictionary."""
        path = self._run_dir(run_id) / "manifest.json"
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise RunStoreError(f"corrupt manifest for run {run_id!r}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise RunStoreError(f"manifest for run {run_id!r} is not an object")
        return loaded

    def load_metrics(self, run_id: str) -> dict[str, Any]:
        """The run's metrics groups (``{}`` when none were recorded)."""
        path = self._run_dir(run_id) / "metrics.json"
        if not path.is_file():
            return {}
        loaded = json.loads(path.read_text(encoding="utf-8"))
        return loaded if isinstance(loaded, dict) else {}

    def read_events(self, run_id: str) -> list[dict[str, Any]]:
        """The run's lifecycle events (a torn final line is skipped)."""
        path = self._run_dir(run_id) / "events.jsonl"
        if not path.is_file():
            return []
        events = []
        for line in path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail from a kill mid-append
        return events

    def diff(self, run_a: str, run_b: str) -> dict[str, tuple[Any, Any]]:
        """Manifest keys that differ between two runs (volatile keys ignored)."""
        return diff_manifests(self.load_manifest(run_a), self.load_manifest(run_b))


#: Manifest keys that differ between *any* two runs and carry no
#: comparative signal.
_DIFF_IGNORED = frozenset({"run_id", "generated", "finished", "status"})


def _flatten(prefix: str, obj: Any, out: dict[str, Any]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], out)
    else:
        out[prefix] = obj


def diff_manifests(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> dict[str, tuple[Any, Any]]:
    """Flattened key → ``(a value, b value)`` for every differing key.

    A key missing on one side reads as ``None`` there; the volatile
    identity/stamp keys (``run_id``, ``generated``, ``finished``,
    ``status``) are excluded so a diff of two otherwise-identical runs is
    empty.
    """
    flat_a: dict[str, Any] = {}
    flat_b: dict[str, Any] = {}
    _flatten("", {k: v for k, v in a.items() if k not in _DIFF_IGNORED}, flat_a)
    _flatten("", {k: v for k, v in b.items() if k not in _DIFF_IGNORED}, flat_b)
    out: dict[str, tuple[Any, Any]] = {}
    for key in sorted(set(flat_a) | set(flat_b)):
        if flat_a.get(key) != flat_b.get(key):
            out[key] = (flat_a.get(key), flat_b.get(key))
    return out


class RunEventHook(SearchHooks):
    """Search-loop lifecycle events → the run's ``events.jsonl``.

    Attached by run-owning entry points (``repro solve`` / ``resume``), so
    solver progress lands in the same append-only log as dispatch events.
    The loop pauses its MT stopwatch around hook calls, so logging cost
    never contaminates mapping time. ``every`` throttles per-iteration
    events (improvements and the stop event always log).
    """

    def __init__(self, run: RunHandle, *, every: int = 25) -> None:
        if every < 1:
            raise RunStoreError(f"event cadence must be >= 1, got {every}")
        self.run = run
        self.every = every

    def on_start(self, solver: Any, problem: Any) -> None:
        self.run.log_event("search-started", solver=type(solver).__name__)

    def on_iteration(self, solver: Any, report: StepReport) -> None:
        if (report.iteration + 1) % self.every == 0:
            self.run.log_event(
                "search-progress",
                iteration=report.iteration,
                best_cost=report.best_cost,
                evaluations=solver.budget.used,
            )

    def on_improvement(self, solver: Any, report: StepReport) -> None:
        self.run.log_event(
            "search-improved", iteration=report.iteration, best_cost=report.best_cost
        )

    def on_stop(self, solver: Any, kind: str, reason: str) -> None:
        self.run.log_event("search-stopped", kind=kind, reason=reason)
