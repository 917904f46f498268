"""The canonical problem hash: one key per mathematically-equal instance.

``problem_key`` is the public identity function for
:class:`~repro.mapping.problem.MappingProblem` instances: two problems get
the same key iff their plane arrays describe the same instance, no matter
how or where each was built. It is the key the service result cache, the
run-store manifests and cross-run comparisons all hang on, so it must be
stable across

* **processes and hosts** — only array *values* are hashed, never object
  ids, memory layout or dict ordering;
* **construction paths** — a problem built from graph objects, decoded
  from the service wire (which sends the six graph arrays and rebuilds
  ``comm_costs`` through the constructor), or attached zero-copy from a
  shared-memory segment hashes identically;
* **dtype accidents** — an edge list that arrived as ``int32`` (a common
  default on Windows / from ``np.array`` literals) or weights passed as
  ``float32`` hash the same as their 64-bit twins, because every array is
  canonicalized to a C-contiguous 64-bit representation before hashing.
  Note this canonicalizes *representation*, not values: a ``float32``
  array whose values are not exactly representable round-trips through
  ``float64`` unchanged (the cast is exact), so equal values always mean
  equal keys;
* **kernel backends** — the key never looks at the kernel tier. Backends
  are bit-identical (the parity suite enforces it), so one cache entry
  serves every backend exactly.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

__all__ = ["problem_key", "canonical_array"]

#: Version tag mixed into every digest so a future canonicalization change
#: can never silently collide with keys minted under the old scheme.
_KEY_SCHEMA = b"repro.problem-key/1"


def canonical_array(arr: Any) -> np.ndarray:
    """The canonical 64-bit C-contiguous representation of ``arr``.

    Float kinds map to ``float64``, integer/bool kinds to ``int64`` —
    exact casts for every dtype the problem planes carry, so values (not
    storage accidents) determine the hash.
    """
    a = np.asarray(arr)
    if a.dtype.kind in "fc":
        a = a.astype(np.float64, copy=False)
    elif a.dtype.kind in "iub":
        a = a.astype(np.int64, copy=False)
    else:
        raise TypeError(f"cannot canonicalize array of dtype {a.dtype}")
    return np.ascontiguousarray(a)


def problem_key(problem: Any) -> str:
    """Stable sha256 hex digest identifying a mapping problem instance.

    Hashes the canonicalized plane arrays (see
    :meth:`~repro.mapping.problem.MappingProblem.plane_arrays`) in
    sorted-name order: name, canonical dtype, shape, then the raw bytes.
    Equal instances — built in different processes, from different
    construction paths, with different input dtypes — produce equal keys.
    """
    digest = hashlib.sha256(_KEY_SCHEMA)
    arrays = problem.plane_arrays()
    for name in sorted(arrays):
        arr = canonical_array(arrays[name])
        digest.update(name.encode("utf-8"))
        digest.update(str(arr.dtype).encode("utf-8"))
        digest.update(str(arr.shape).encode("utf-8"))
        digest.update(arr.tobytes())
    return digest.hexdigest()
