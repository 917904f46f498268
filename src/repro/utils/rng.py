"""Deterministic random-number-generator management.

Every stochastic component in the library (graph generators, GenPerm
sampling, GA operators, ...) takes a *seed-like* value
and converts it with :func:`as_generator`. Experiments that need several
independent streams — e.g. one per heuristic per repetition — derive them
from a single root seed with :func:`spawn_generators` or the convenience
:class:`RngStreams` wrapper, so a whole paper table is reproducible from one
integer.

The implementation builds on :class:`numpy.random.SeedSequence` spawning,
the recommended mechanism for statistically independent substreams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.types import SeedLike

__all__ = [
    "as_generator",
    "spawn_generators",
    "derive_seed",
    "generator_state",
    "generator_from_state",
    "RngStreams",
]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    ``None`` gives OS entropy; an ``int`` or ``SeedSequence`` seeds a fresh
    PCG64 generator; an existing ``Generator`` is returned unchanged (so
    callers can thread one stream through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, n: int) -> list[np.random.Generator]:
    """Derive ``n`` statistically independent generators from ``seed``.

    Unlike ``[default_rng(seed + i) for i in range(n)]`` — which numpy's
    documentation warns against — spawned ``SeedSequence`` children are
    guaranteed non-overlapping.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(seed, np.random.Generator):
        # Spawn from the generator's own bit generator seed sequence.
        children = seed.bit_generator.seed_seq.spawn(n)  # type: ignore[union-attr]
    else:
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(n)
    return [np.random.default_rng(c) for c in children]


def derive_seed(seed: SeedLike, *labels: object) -> int:
    """Derive a stable 63-bit integer sub-seed from ``seed`` and labels.

    Useful when an API only accepts integer seeds (e.g. recording the seed
    in a JSON result file). The same ``(seed, labels)`` always yields the
    same value; different labels yield (with overwhelming probability)
    different values.
    """
    if isinstance(seed, np.random.Generator):
        raise TypeError("derive_seed needs a reproducible seed, not a live Generator")
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # Mix the labels into the entropy via their hash of a stable repr.
    import zlib

    label_entropy = [zlib.crc32(repr(lab).encode("utf-8")) for lab in labels]
    mixed = np.random.SeedSequence(
        entropy=base.entropy, spawn_key=tuple(label_entropy)
    )
    return int(mixed.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))


def generator_state(gen: np.random.Generator) -> dict:
    """JSON-able snapshot of a generator's exact stream position.

    Numpy's ``bit_generator.state`` is a nested dict of strings and
    (arbitrarily large) Python ints, which serializes losslessly to JSON.
    Restoring it with :func:`generator_from_state` resumes the stream at
    the *same position* — the next draw after a save/restore round-trip is
    bit-identical to the draw an uninterrupted run would have made, which
    is what makes checkpoint/resume seed-for-seed exact.
    """
    return _jsonable_rng_state(gen.bit_generator.state)


def generator_from_state(state: dict) -> np.random.Generator:
    """Rebuild a generator positioned exactly where :func:`generator_state` left it."""
    name = state.get("bit_generator")
    cls = getattr(np.random, name, None) if isinstance(name, str) else None
    if not (isinstance(cls, type) and issubclass(cls, np.random.BitGenerator)):
        raise ValueError(f"unknown bit generator in rng state: {name!r}")
    bit_gen = cls()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def _jsonable_rng_state(state: object) -> dict:
    """Recursively coerce numpy scalars/arrays in a bit-generator state to ints."""
    if isinstance(state, dict):
        return {k: _jsonable_rng_state(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return [int(v) for v in state.tolist()]  # type: ignore[return-value]
    if isinstance(state, np.integer):
        return int(state)  # type: ignore[return-value]
    return state  # type: ignore[return-value]


@dataclass
class RngStreams:
    """A root seed plus a lazily-grown family of named independent streams.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> g1 = streams.get("match", rep=0)
    >>> g2 = streams.get("ga", rep=0)

    The same name/kwargs always return a *fresh* generator seeded
    identically, so a stream can be replayed.
    """

    seed: int
    _cache: dict[tuple, int] = field(default_factory=dict, repr=False)

    def seed_for(self, name: str, **labels: object) -> int:
        """Integer sub-seed for the stream ``(name, labels)``."""
        key = (name, tuple(sorted(labels.items())))
        if key not in self._cache:
            self._cache[key] = derive_seed(self.seed, name, tuple(sorted(labels.items())))
        return self._cache[key]

    def get(self, name: str, **labels: object) -> np.random.Generator:
        """A fresh generator for the stream ``(name, labels)``."""
        return np.random.default_rng(self.seed_for(name, **labels))
