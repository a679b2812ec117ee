"""Deterministic, splittable random number streams.

A single 64-bit seed defines a tree of independent streams. Each stream is a
numpy Generator backed by the counter-based Philox engine, keyed through a
SeedSequence spawn path, so parallel sample generation keyed by index is safe
and every run is bit-reproducible.
"""

from __future__ import annotations

import numpy as np


class SeededRng:
    """One stream in the seed tree. ``split(i)`` derives child stream i."""

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = seed
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def split(self, *indices: int) -> "SeededRng":
        """Child stream at the given index path, independent of this one."""
        return SeededRng(self.seed, self.path + tuple(int(i) for i in indices))

    def standard_normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(size=shape)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:  # pragma: no cover
        return f"SeededRng(seed={self.seed}, path={self.path})"
