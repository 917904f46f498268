"""Length-prefixed socket frames for the island runtime.

The gossip transport speaks JSON objects, one per frame, over a stream
socket. Each frame is a 4-byte big-endian length followed by the UTF-8
JSON body — the simplest self-delimiting encoding that survives TCP's
arbitrary segmentation. The JSON vocabulary deliberately reuses the
service wire format (:mod:`repro.service.wire`) for problems, so a
coordinator ships an island the *same* payload an HTTP client would ship
the gateway, and both sides rebuild bit-identical instances.

Stochastic matrices must cross the wire **bit-exactly** (the loopback
parity pin compares the distributed run against the sequential simulation
to the last ulp), so they travel as base64 of the raw C-order float64
buffer, not as JSON number lists: :func:`encode_matrix` /
:func:`decode_matrix` round-trip any float64 array without touching its
bits; :func:`decode_leader_matrix` also holds a gossip leader's matrix to
the problem's shape and to the row-stochastic rule.

Malformed traffic is rejected with a structured
:class:`~repro.exceptions.FrameError` whose ``kind`` distinguishes a peer
that died mid-frame (``truncated`` — the signal the coordinator's heal
path reacts to) from an over-limit length prefix (``oversized``) and from
undecodable bodies (``malformed``).
"""

from __future__ import annotations

import base64
import json
import math
import socket
import struct
from typing import Any

import numpy as np

from repro.exceptions import FrameError
from repro.utils.validation import is_row_stochastic

__all__ = [
    "MAX_FRAME_BYTES",
    "encode_matrix",
    "decode_matrix",
    "decode_leader_matrix",
    "send_frame",
    "recv_frame",
]

#: Ceiling on one frame's body size. A gossip frame carries one stochastic
#: matrix (n² float64 ≈ 80 KB at n = 100), so 16 MiB is three orders of
#: magnitude of headroom while still rejecting a garbage length prefix
#: (e.g. a peer speaking a different protocol) before allocating for it.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("!I")


#: The one dtype the matrix codec speaks.
_DTYPE = np.dtype(np.float64)


def encode_matrix(arr: np.ndarray) -> dict[str, Any]:
    """JSON-able, bit-exact encoding of a float64 array."""
    contiguous = np.ascontiguousarray(arr, dtype=_DTYPE)
    return {
        "dtype": contiguous.dtype.str,
        "shape": list(contiguous.shape),
        "data": base64.b64encode(contiguous.tobytes(order="C")).decode("ascii"),
    }


def decode_matrix(payload: Any) -> np.ndarray:
    """Inverse of :func:`encode_matrix`; validates dtype, shape and size.

    Only the float64 :func:`encode_matrix` writes is accepted, and only a
    list of non-negative integer extents; anything else is ``malformed``.
    """
    if not isinstance(payload, dict):
        raise FrameError("malformed", f"matrix payload must be an object, got {type(payload).__name__}")
    try:
        dtype = payload["dtype"]
        shape = payload["shape"]
        raw = base64.b64decode(payload["data"], validate=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError("malformed", f"undecodable matrix payload: {exc}") from exc
    if dtype != _DTYPE.str:  # compared raw: np.dtype(None) is float64
        raise FrameError("malformed", f"matrix dtype must be {_DTYPE.str}, got {dtype!r}")
    if not isinstance(shape, list) or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in shape
    ):
        raise FrameError(
            "malformed", f"matrix shape must be a list of non-negative integers, got {shape!r}"
        )
    expected = _DTYPE.itemsize * math.prod(shape)
    if len(raw) != expected:
        raise FrameError(
            "malformed",
            f"matrix payload carries {len(raw)} bytes but shape {tuple(shape)} "
            f"({_DTYPE}) needs {expected}",
        )
    try:  # an empty matrix can still name extents numpy cannot index
        return np.frombuffer(raw, dtype=_DTYPE).reshape(shape).copy()
    except ValueError as exc:
        raise FrameError("malformed", f"matrix shape {tuple(shape)} is unusable: {exc}") from exc


def decode_leader_matrix(payload: Any, shape: tuple[int, int], what: str) -> np.ndarray:
    """:func:`decode_matrix` for a gossip leader's matrix ``what``: of
    ``shape``, rows probability vectors (a NaN or off-simplex entry would
    reach GenPerm through the blend). Any defect is ``malformed``."""
    try:
        matrix = decode_matrix(payload)
    except FrameError as exc:
        raise FrameError(exc.kind, f"{what}: {exc}") from exc
    if matrix.shape != shape:
        raise FrameError("malformed", f"{what} must be {shape}, got {matrix.shape}")
    if not is_row_stochastic(matrix):
        raise FrameError("malformed", f"{what} must hold probabilities whose rows sum to 1")
    return matrix


def send_frame(
    sock: socket.socket, payload: dict[str, Any], *, max_bytes: int = MAX_FRAME_BYTES
) -> None:
    """Serialize ``payload`` and write one length-prefixed frame."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > max_bytes:
        raise FrameError(
            "oversized", f"refusing to send a {len(body)}-byte frame (cap {max_bytes})"
        )
    sock.sendall(_LEN.pack(len(body)) + body)


def _recv_exact(sock: socket.socket, n: int, what: str) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            got = n - remaining
            raise FrameError(
                "truncated",
                f"peer closed mid-{what}: got {got} of {n} bytes",
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, *, max_bytes: int = MAX_FRAME_BYTES
) -> dict[str, Any]:
    """Read one frame; raises :class:`FrameError` on any wire defect.

    ``truncated`` covers both a clean EOF mid-frame and a zero-byte read
    inside the length prefix — the caller (coordinator heal path, island
    main loop) treats either as "peer is gone". An EOF *between* frames is
    also reported as ``truncated`` with 0 of 4 prefix bytes, which is the
    correct signal at every call site: the protocol has no silence, a live
    peer always owes the next frame.
    """
    prefix = _recv_exact(sock, _LEN.size, "length prefix")
    (length,) = _LEN.unpack(prefix)
    if length > max_bytes:
        raise FrameError(
            "oversized",
            f"frame announces {length} bytes, over the {max_bytes}-byte cap",
        )
    body = _recv_exact(sock, length, "frame body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError("malformed", f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FrameError(
            "malformed", f"frame body must be a JSON object, got {type(payload).__name__}"
        )
    return payload
