"""The canonical result cache: exact-hit memoization for mapping solves.

Every solve in this library is a pure function of ``(problem, solver spec,
seed)`` — the worker-purity flow rule proves it, the golden fixtures pin
it, and the kernel parity suite makes the kernel tier irrelevant to the
bytes produced. That purity is worth money at serving time: a request the
process (or a previous process) already answered can be served from a
lookup instead of a CE run.

:func:`cache_key` turns the triple, plus the solve's evaluation cap, into
a stable sha256 hex key built on
:func:`repro.mapping.problem_key.problem_key` (the canonical problem
hash), the spec's canonical ``(name, sorted params)`` form, the seed and
``max_evaluations``.
The kernel backend is deliberately **not** part of the key: backends are
bit-identical, so one entry serves all tiers exactly.

:class:`ResultCache` is a bounded LRU over JSON-able result payloads with
optional write-through persistence — one ``<key>.json`` file per entry,
written atomically under a directory that by convention lives beneath the
run-store root (the service puts it at ``<runs_dir>/service-cache/``).
Evicted entries stay on disk and reload on the next miss, so the disk tier
doubles as cross-process warm start.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping

__all__ = ["cache_key", "ResultCache"]

#: Version tag for the key derivation; bump on any change to the recipe so
#: stale persisted entries can never be misread as hits.
_CACHE_KEY_SCHEMA = "repro.cache-key/2"


def cache_key(
    problem_digest: str,
    solver_name: str,
    params: Mapping[str, Any] | None,
    seed: int,
    *,
    max_evaluations: int | None = None,
) -> str:
    """The canonical cache key for one ``(problem, solver, seed)`` solve.

    ``problem_digest`` is the :func:`~repro.mapping.problem_key.problem_key`
    hex digest (precomputed so batch callers hash each problem once).
    Params are canonicalized by sorted key through JSON, matching
    :meth:`SolverSpec.of`'s ordering, so specs built from differently-
    ordered dicts in different processes produce the same key.
    ``max_evaluations`` is the solve's evaluation cap (``None`` for
    uncapped): a capped run stops early, so it is a different result.
    """
    payload = json.dumps(
        {
            "schema": _CACHE_KEY_SCHEMA,
            "problem": problem_digest,
            "solver": solver_name,
            "params": dict(params or {}),
            "seed": int(seed),
            "max_evaluations": None if max_evaluations is None else int(max_evaluations),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Bounded LRU of solve results with optional on-disk write-through.

    Parameters
    ----------
    capacity:
        Maximum in-memory entries; the least-recently-used entry is
        evicted past it. Must be >= 1.
    persist_dir:
        Optional directory for write-through persistence. Entries are
        written atomically (tmp + ``os.replace``) as ``<key>.json`` and
        reloaded on miss, so evicted and cross-process entries still hit.
    """

    def __init__(self, capacity: int = 1024, persist_dir: str | Path | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.persist_dir = Path(persist_dir) if persist_dir is not None else None
        if self.persist_dir is not None:
            self.persist_dir.mkdir(parents=True, exist_ok=True)
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    @property
    def keys_lru_order(self) -> list[str]:
        """Keys from least- to most-recently used (eviction order)."""
        return list(self._entries)

    def get(self, key: str) -> dict[str, Any] | None:
        """The cached payload for ``key``, or None; a hit refreshes LRU.

        ``hits`` counts *memory* hits only. An entry reloaded from the disk
        tier counts once, as a ``disk_hits`` — the two tiers have very
        different latencies, so conflating them would make the hit counter
        useless for sizing ``capacity`` — and is re-admitted to the memory
        LRU under the same capacity bound as any ``put`` (possibly evicting
        the current least-recently-used entry).
        """
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        entry = self._load_persisted(key)
        if entry is not None:
            self.disk_hits += 1
            self._admit(key, entry)
            return entry
        self.misses += 1
        return None

    def put(self, key: str, payload: Mapping[str, Any]) -> None:
        """Insert/overwrite ``key``; writes through to disk when enabled."""
        entry = dict(payload)
        self._admit(key, entry)
        if self.persist_dir is not None:
            path = self.persist_dir / f"{key}.json"
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(
                json.dumps(entry, sort_keys=True, separators=(",", ":")),
                encoding="utf-8",
            )
            os.replace(tmp, path)

    def stats(self) -> dict[str, Any]:
        """Counters for the service's ``/stats`` endpoint and run metrics."""
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "persistent": self.persist_dir is not None,
        }

    # -- internals ---------------------------------------------------------
    def _admit(self, key: str, entry: dict[str, Any]) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def _load_persisted(self, key: str) -> dict[str, Any] | None:
        if self.persist_dir is None:
            return None
        path = self.persist_dir / f"{key}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None
