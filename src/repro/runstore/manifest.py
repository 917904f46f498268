"""Run manifests: everything needed to attribute and replay a run.

A manifest answers "what exactly produced these numbers?" — the question
every cross-run comparison in this literature hinges on. It captures:

* the code identity (git SHA + dirty flag, package version);
* the host (platform, python, numpy, cpu count) and its *host class* — the
  coarse key perf-history comparisons are grouped under;
* the full ``REPRO_*`` environment surface (kernel backend, worker count,
  retry policy, fault harness), so a run is replayable from its manifest
  alone;
* the resolved kernel backend (what ``auto`` actually picked);
* problem/dataset checksums and the run's RNG root seed.

Everything here is best-effort observational: a missing git binary or an
unbuildable kernel backend degrades to an explicit ``None``/``"unresolved"``
marker rather than failing the run being recorded.
"""

from __future__ import annotations

import os
import platform
import subprocess
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "MANIFEST_SCHEMA",
    "REPRO_ENV_KEYS",
    "git_revision",
    "host_info",
    "host_class",
    "env_surface",
    "kernel_backend_name",
    "build_manifest",
    "pinned_env",
]

MANIFEST_SCHEMA = "repro.run-manifest/1"

#: The environment knobs that change what a run computes or how it is
#: dispatched. They are captured verbatim (value or absent) so the manifest
#: alone reconstructs the execution environment.
REPRO_ENV_KEYS = (
    "REPRO_KERNEL",
    "REPRO_WORKERS",
    "REPRO_MAX_RETRIES",
    "REPRO_CELL_TIMEOUT",
    "REPRO_FAULTS",
    "REPRO_SCALE",
)


@contextmanager
def pinned_env(
    env: Mapping[str, str], *, exclude: tuple[str, ...] = ("REPRO_RUNS_DIR",)
) -> Iterator[None]:
    """Reproduce a manifest's ``REPRO_*`` surface exactly for the block.

    Recorded keys are set to their recorded values; ``REPRO_*`` keys the
    manifest did *not* record are removed for the duration — replay means
    the recorded environment, not the recorded environment plus whatever
    is ambient today. ``exclude`` keys (by default the run-store root, so
    a replay writes into the *caller's* store) keep their ambient values.
    """
    target = {k: str(v) for k, v in env.items() if k not in exclude}
    touched = set(target) | {
        k for k in os.environ if k.startswith("REPRO_") and k not in exclude
    }
    saved = {k: os.environ.get(k) for k in touched}
    for key in touched - set(target):
        os.environ.pop(key, None)
    os.environ.update(target)
    try:
        yield
    finally:
        for key, old in saved.items():
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old


def git_revision(cwd: str | None = None) -> dict[str, Any]:
    """``{"sha": ..., "dirty": ...}`` for the working tree, or ``None`` values.

    Uses the plain git CLI so the library keeps zero dependencies; any
    failure (no git, not a repository) degrades to ``{"sha": None,
    "dirty": None}``.
    """
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        ).stdout
        return {"sha": sha, "dirty": bool(status.strip())}
    except Exception:
        return {"sha": None, "dirty": None}


def host_class() -> str:
    """Coarse hardware key for perf-history grouping (os + architecture).

    Perf numbers are only comparable between runs on like machines; this
    key is deliberately coarse (``linux-x86_64``) so one baseline covers a
    CI runner fleet while an ARM laptop never gates against it.
    """
    return f"{platform.system()}-{platform.machine()}".lower()


def host_info() -> dict[str, Any]:
    """Host facts recorded in every manifest and benchmark report."""
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "host_class": host_class(),
    }


def env_surface() -> dict[str, str]:
    """Every ``REPRO_*`` variable currently set (named keys first)."""
    surface = {k: os.environ[k] for k in REPRO_ENV_KEYS if k in os.environ}
    for key, value in os.environ.items():
        if key.startswith("REPRO_") and key not in surface:
            surface[key] = value
    return surface


def kernel_backend_name() -> str:
    """The kernel backend an ``auto`` (or pinned) choice actually resolves to."""
    try:
        from repro import kernels

        return kernels.get_backend().name
    except Exception:
        return "unresolved"


def build_manifest(
    kind: str,
    *,
    seed: int | None = None,
    config: Mapping[str, Any] | None = None,
    solver: Mapping[str, Any] | None = None,
    problems: Mapping[str, str] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one run's manifest dictionary (the ``generated`` stamp is
    added by the store when the manifest is first written).

    ``config`` is the resolved run configuration (profile fields, CLI
    flags), ``solver`` the resolved solver identity (solver name +
    params), ``problems`` a label → ``problem_key`` map of the instances
    solved.
    """
    from repro.utils.parallel import RetryPolicy

    try:
        policy = RetryPolicy.default()
        retry = {
            "max_retries": policy.max_retries,
            "cell_timeout": policy.cell_timeout,
        }
    except Exception:
        retry = {"max_retries": None, "cell_timeout": None}

    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "git": git_revision(),
        "host": host_info(),
        "env": env_surface(),
        "kernel_backend": kernel_backend_name(),
        "workers": os.environ.get("REPRO_WORKERS"),
        "retry": retry,
        "rng": {"root_seed": seed},
    }
    if config is not None:
        manifest["config"] = dict(config)
    if solver is not None:
        manifest["solver"] = dict(solver)
    if problems is not None:
        manifest["problems"] = dict(problems)
    if extra:
        manifest.update(dict(extra))
    return manifest
