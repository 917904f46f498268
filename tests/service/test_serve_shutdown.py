"""`repro-match serve` shuts down cleanly on SIGTERM.

A daemon started with ``&`` from a non-interactive shell inherits SIGINT
as ignored, so SIGTERM is the signal that reaches it. The serve loop must
treat it as a shutdown request: close the HTTP server and the worker
pool, leave no shared-memory segment behind, stamp the run complete, and
exit 0.
"""

from __future__ import annotations

import glob
import json
import os
import queue
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.service import submit_over_http

pytestmark = pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals")


def _segments() -> set[str]:
    return set(glob.glob("/dev/shm/repro_*"))


def _ignore_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def test_sigterm_stops_the_daemon_cleanly(tmp_path: Path):
    before = _segments()
    runs = tmp_path / "runs"
    # The daemon runs from tmp_path: put this checkout's package first.
    env = os.environ.copy()
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2", "--runs-dir", str(runs),
        ],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=_ignore_sigint,
    )
    lines: "queue.Queue[str]" = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(line) for line in proc.stderr], daemon=True
    ).start()
    try:
        url = run_path = None
        seen: list[str] = []
        for _ in range(120):  # at most a minute of polling
            if url is not None and run_path is not None:
                break
            try:
                line = lines.get(timeout=0.5).strip()
            except queue.Empty:
                continue
            seen.append(line)
            if line.startswith("serving on "):
                url = line.removeprefix("serving on ")
            elif line.startswith("run recorded: "):
                run_path = Path(line.removeprefix("run recorded: "))
        assert url is not None and run_path is not None, f"daemon never came up: {seen}"

        # Two concurrent solves each run on a pool worker, so the pool is
        # live at shutdown.
        def solve(seed: int) -> tuple[int, dict]:
            payload = {
                "problem": {"size": 6, "seed": seed},
                "solver": {"name": "match", "params": {"max_iterations": 10}},
                "seed": seed,
            }
            return submit_over_http(url, payload, timeout=60)

        with ThreadPoolExecutor(2) as clients:
            replies = list(clients.map(solve, [1, 2]))
        assert all(code == 200 and body["status"] == "ok" for code, body in replies), replies

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    manifest = json.loads((run_path / "manifest.json").read_text())
    assert manifest["status"] == "complete"
    assert _segments() - before == set()
