"""The run-store substrate: every run writes ``runs/{run_id}/``.

One directory per run — ``manifest.json`` (provenance: git SHA, env
surface, kernel backend, seeds, problem checksums), ``metrics.json``
(results), ``events.jsonl`` (lifecycle log), ``artifacts/`` (checkpoints,
report snapshots). Experiments, the service and the CLI all report
through here.

See DESIGN.md §13.
"""

from repro.runstore.cache import ResultCache, cache_key
from repro.runstore.manifest import (
    MANIFEST_SCHEMA,
    REPRO_ENV_KEYS,
    build_manifest,
    env_surface,
    git_revision,
    host_class,
    host_info,
    kernel_backend_name,
    pinned_env,
)
from repro.runstore.store import (
    RunEventHook,
    RunHandle,
    RunStore,
    RunStoreError,
    activate_run,
    current_run,
    default_runs_dir,
    diff_manifests,
)

__all__ = [
    "ResultCache",
    "cache_key",
    "MANIFEST_SCHEMA",
    "REPRO_ENV_KEYS",
    "build_manifest",
    "env_surface",
    "git_revision",
    "host_class",
    "host_info",
    "kernel_backend_name",
    "pinned_env",
    "RunEventHook",
    "RunHandle",
    "RunStore",
    "RunStoreError",
    "activate_run",
    "current_run",
    "default_runs_dir",
    "diff_manifests",
]
