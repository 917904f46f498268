"""Manifest provenance: env surface capture, checksums, replay env pinning."""

from __future__ import annotations

import os

import pytest

from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem, problem_key
from repro.runstore import (
    REPRO_ENV_KEYS,
    build_manifest,
    env_surface,
    host_class,
    pinned_env,
)


def _problem(size=6, seed=3):
    pair = generate_paper_pair(size, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


class TestEnvSurface:
    def test_named_keys_captured_verbatim(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy")
        monkeypatch.setenv("REPRO_WORKERS", "4")
        surface = env_surface()
        assert surface["REPRO_KERNEL"] == "numpy"
        assert surface["REPRO_WORKERS"] == "4"

    def test_unnamed_repro_keys_still_captured(self, monkeypatch):
        # The surface is the *full* REPRO_* namespace, not only the knobs
        # this version knows about — future knobs must not silently escape.
        monkeypatch.setenv("REPRO_FUTURE_KNOB", "on")
        assert env_surface()["REPRO_FUTURE_KNOB"] == "on"

    def test_non_repro_keys_excluded(self, monkeypatch):
        monkeypatch.setenv("PATHY_THING", "x")
        assert "PATHY_THING" not in env_surface()

    def test_known_knobs_are_the_documented_six(self):
        assert set(REPRO_ENV_KEYS) == {
            "REPRO_KERNEL", "REPRO_WORKERS", "REPRO_MAX_RETRIES",
            "REPRO_CELL_TIMEOUT", "REPRO_FAULTS", "REPRO_SCALE",
        }


class TestPinnedEnv:
    def test_sets_recorded_and_removes_unrecorded(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cext")  # ambient, not recorded
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        with pinned_env({"REPRO_WORKERS": "2"}):
            assert os.environ["REPRO_WORKERS"] == "2"
            assert "REPRO_KERNEL" not in os.environ
        assert os.environ["REPRO_KERNEL"] == "cext"
        assert "REPRO_WORKERS" not in os.environ

    def test_runs_dir_is_excluded_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", "/ambient/runs")
        with pinned_env({"REPRO_RUNS_DIR": "/recorded/runs", "REPRO_KERNEL": "numpy"}):
            # Replays write into the caller's store, not the recorded one.
            assert os.environ["REPRO_RUNS_DIR"] == "/ambient/runs"
            assert os.environ["REPRO_KERNEL"] == "numpy"

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "cext")
        with pytest.raises(RuntimeError):
            with pinned_env({"REPRO_KERNEL": "numpy"}):
                raise RuntimeError
        assert os.environ["REPRO_KERNEL"] == "cext"


class TestProblemChecksum:
    def test_same_instance_same_checksum(self):
        assert problem_key(_problem()) == problem_key(_problem())

    def test_different_seed_different_checksum(self):
        assert problem_key(_problem(seed=3)) != problem_key(_problem(seed=4))


class TestBuildManifest:
    def test_standard_sections_present(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        manifest = build_manifest(
            "solve",
            seed=7,
            config={"size": 6},
            solver={"name": "match", "params": {}},
            problems={"instance": "abc"},
        )
        assert manifest["kind"] == "solve"
        assert manifest["rng"]["root_seed"] == 7
        assert manifest["env"]["REPRO_WORKERS"] == "3"
        assert manifest["workers"] == "3"
        assert manifest["kernel_backend"] in ("numpy", "cext", "unresolved")
        assert manifest["host"]["host_class"] == host_class()
        assert set(manifest["retry"]) == {"max_retries", "cell_timeout"}
        assert manifest["solver"]["name"] == "match"
        assert manifest["problems"] == {"instance": "abc"}

    def test_extra_keys_merge_at_top_level(self):
        manifest = build_manifest("replay", extra={"replay_of": "run-1"})
        assert manifest["replay_of"] == "run-1"
