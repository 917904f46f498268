"""The pure-numpy kernel backend — always available, the parity anchor.

These are the vectorized implementations that previously lived inline in
``mapping/cost_model.py`` (``bincount`` scatter-add batch scoring) and
``ce/genperm.py`` (the column-major GenPerm position loop), moved behind
the backend API unchanged so ``REPRO_KERNEL=numpy`` reproduces every
historical result bit-for-bit. The compiled backend is tested against
this module, not the other way around.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.csr import ProblemPack

__all__ = [
    "eval_batch",
    "genperm",
]


# -- Eq. (1)/(2) batch scoring -----------------------------------------------

def _times_block(pack: ProblemPack, X: np.ndarray) -> np.ndarray:
    """Eq. (1) for one block of rows: returns ``(N, n_resources)`` times.

    Strategy: flatten the (row, resource) bucket space to
    ``row * n_r + resource`` and use a single ``bincount`` scatter-add
    per term — no Python-level loop over samples.
    """
    N = X.shape[0]
    n_r = pack.n_resources
    row_offsets = (np.arange(N, dtype=np.int64) * n_r)[:, np.newaxis]

    # Processing term.
    comp_w = pack.task_weights[np.newaxis, :] * pack.proc_weights[X]  # (N, n_t)
    flat_proc = (row_offsets + X).ravel()
    totals = np.bincount(flat_proc, weights=comp_w.ravel(), minlength=N * n_r)

    # Communication term (both endpoint resources pay). The cost matrix
    # lookup goes through a flat 1-D take (``s·n_r + b``) rather than a
    # 2-D fancy index — same values, substantially cheaper per element.
    if pack.eu.size:
        s = X[:, pack.eu]  # (N, E)
        b = X[:, pack.ev]  # (N, E)
        link = pack.edge_vol[np.newaxis, :] * np.take(
            pack.comm_flat, s * n_r + b, mode="clip"
        )
        totals += np.bincount(
            (row_offsets + s).ravel(), weights=link.ravel(), minlength=N * n_r
        )
        totals += np.bincount(
            (row_offsets + b).ravel(), weights=link.ravel(), minlength=N * n_r
        )
    return totals.reshape(N, n_r)


def times_batch(pack: ProblemPack, X: np.ndarray) -> np.ndarray:
    """Eq. (1) for a whole batch: returns ``(N, n_resources)`` times.

    Large batches are processed in row blocks sized so the ``(N, E)``
    link intermediates stay a couple of MB: past the cache the fused
    pass turns memory-bound and goes *superlinear* in ``N`` (measured
    on a 352-edge, n = 50 instance: 20 000 rows cost 0.45 s in one
    pass vs 0.11 s in 1 000-row blocks). Block boundaries cannot
    change any value — every term is row-local.
    """
    N = X.shape[0]
    widest = max(int(pack.eu.size), pack.n_tasks, 1)
    block = max(512, 262_144 // widest)
    if N <= block:
        return _times_block(pack, X)
    out = np.empty((N, pack.n_resources))
    for start in range(0, N, block):
        out[start : start + block] = _times_block(pack, X[start : start + block])
    return out


def eval_batch(pack: ProblemPack, X: np.ndarray) -> np.ndarray:
    """Eq. (2) for a whole batch: one cost per row (lower is better)."""
    return times_batch(pack, X).max(axis=1)


# -- GenPerm position loop ---------------------------------------------------

def genperm(
    P: np.ndarray, rand_orders: np.ndarray, rand_pos: np.ndarray
) -> np.ndarray:
    """GenPerm over a stack of ``R`` chains, ``N`` samples each.

    Parameters
    ----------
    P:
        ``(R, n_tasks, n_res)`` stack of non-negative matrices.
    rand_orders:
        ``(R, N, n_tasks)`` uniforms; the stable argsort of each row
        (ties in index order) is that sample's task visit order.
    rand_pos:
        ``(R, n_tasks, N)`` uniforms; ``rand_pos[r, pos]`` drives chain
        ``r``'s roulette draws at visit position ``pos``.

    Returns the ``(R, N, n_tasks)`` samples. The loop runs on one
    flattened batch of ``B = R·N`` samples: sample ``b`` gathers its rows
    from block ``(b // N)·n_tasks`` of the transposed stack.

    The resources-first layout keeps every per-position reduction
    (masking, mass, CDF, inverse-CDF count) running along the long
    contiguous sample axis — full-width SIMD passes instead of
    length-``n_res`` strided reductions (measured: a samples-major layout
    with last-axis ``cumsum``/bool-sum is ~4-6× slower per op at
    ``B = 6000``) — and every scratch array (gathered columns, CDF,
    comparison mask) is allocated once and reused across the ``n_tasks``
    positions.
    """
    R, N, n_tasks = rand_orders.shape
    n_res = P.shape[2]
    B = R * N
    task_orders = np.argsort(rand_orders, axis=2, kind="stable").reshape(B, n_tasks)
    dist_offsets = np.repeat(np.arange(R, dtype=np.int64) * n_tasks, N)
    rand_pos = rand_pos.transpose(1, 0, 2).reshape(n_tasks, B)
    P_cols = np.ascontiguousarray(P.reshape(R * n_tasks, n_res).T)
    X = np.full((B, n_tasks), -1, dtype=np.int64)
    # Float 0/1 availability mask: float·float multiplies and row copies
    # stay pure SIMD (a bool mask would force a casting buffer per pass).
    unused = np.ones((n_res, B), dtype=np.float64)
    rows = np.arange(B)
    probs = np.empty((n_res, B), dtype=np.float64)
    cdf = np.empty((n_res, B), dtype=np.float64)
    below = np.empty((n_res, B), dtype=bool)
    choice = np.empty(B, dtype=np.int64)
    u = np.empty(B, dtype=np.float64)
    # Square case: after n-1 placements exactly one resource remains, so
    # the last roulette draw is forced — track the remaining resource as a
    # running index sum and skip the whole final gather/CDF pass. (The
    # final uniform was still pre-drawn, so the RNG stream is identical.)
    square = n_tasks == n_res
    if square:
        rem = np.full(B, n_res * (n_res - 1) // 2, dtype=np.int64)

    for pos in range(n_tasks):
        tasks = task_orders[:, pos]  # (B,)
        if square and pos == n_tasks - 1:
            X[rows, tasks] = rem
            break
        # mode="clip" skips per-element bounds checks (indices are valid
        # by construction) — measurably faster than the default mode.
        np.take(P_cols, dist_offsets + tasks, axis=1, out=probs, mode="clip")
        np.multiply(probs, unused, out=probs)  # zero the taken resources
        # Running CDF down the resource axis via row-wise contiguous adds
        # (np.cumsum over axis 0 falls back to a strided loop); the last
        # row doubles as the remaining mass.
        np.copyto(cdf[0], probs[0])
        for i in range(1, n_res):
            np.add(cdf[i - 1], probs[i], out=cdf[i])
        mass = cdf[n_res - 1]
        dead = mass <= 0.0
        if dead.any():
            # Uniform over unused resources for exhausted samples; redo
            # the CDF for just those columns (mass is a view, so it sees
            # the fix).
            probs[:, dead] = unused[:, dead]
            cdf[:, dead] = np.cumsum(probs[:, dead], axis=0)
        np.multiply(rand_pos[pos], mass, out=u)
        np.less_equal(cdf, u[np.newaxis, :], out=below)
        # choice = below.sum(axis=0), as contiguous row adds.
        np.copyto(choice, below[0], casting="unsafe")
        for i in range(1, n_res):
            choice += below[i]
        # Float-edge guard. A mid-range draw can never land on a used
        # (zero-probability) resource: that would need
        # cdf[c-1] <= u < cdf[c] with cdf[c] == cdf[c-1]. Only the
        # overflow case u >= mass (rounding at rand ~ 1.0) needs care:
        # clamp it and, if the last resource is taken, fall back to the
        # first unused one — probability ~ machine epsilon, so one cheap
        # max() replaces a per-position gathered mask check.
        if int(choice.max()) == n_res:
            over = choice == n_res
            choice[over] = n_res - 1
            bad = over & (unused[n_res - 1] == 0.0)  # repro: noqa[float-equality] -- consumed mass is written as exact 0.0 below
            if bad.any():
                choice[bad] = np.argmax(unused[:, bad], axis=0)
        X[rows, tasks] = choice
        unused[choice, rows] = 0.0
        if square:
            rem -= choice
    return X.reshape(R, N, n_tasks)
