"""The repo must satisfy its own determinism contract.

This is the regression test the whole subsystem exists for: ``repro-lint``
over ``src/`` and ``tests/`` reports zero non-suppressed findings. If a
new module sneaks in stdlib ``random``, a stray ``time.time()`` or a
lambda dispatched to the process pool, this test — and CI — fail with the
exact location.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.analysis import lint_paths

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def test_repo_root_layout_is_what_we_expect():
    assert (REPO_ROOT / "src" / "repro").is_dir()
    assert (REPO_ROOT / "tests").is_dir()


def test_src_and_tests_satisfy_determinism_contract():
    result = lint_paths(
        [REPO_ROOT / "src", REPO_ROOT / "tests"], root=REPO_ROOT
    )
    details = "\n".join(
        f"{f.location()} [{f.rule}] {f.message}" for f in result.findings
    )
    assert result.ok, f"repro-lint found violations:\n{details}"
    assert result.files_scanned > 150  # the whole tree really was scanned


def test_every_suppression_in_tree_is_bracketed_and_justified():
    # Bare "# repro: noqa" silences every rule on the line; the tree's own
    # suppressions must name their rule and carry a justification.
    import re

    marker = re.compile(r"#\s*repro:\s*noqa(?P<bracket>\[[^\]]+\])?(?P<rest>.*)")
    offenders = []
    for sub in ("src", "tests"):
        for path in (REPO_ROOT / sub).rglob("*.py"):
            if "analysis" in path.parts:
                continue  # the linter/tests mention markers in fixtures
            for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                m = marker.search(line)
                if not m:
                    continue
                if not m.group("bracket") or not m.group("rest").strip():
                    offenders.append(f"{path}:{lineno}")
    assert offenders == [], f"unjustified/bare noqa markers: {offenders}"
