"""Deterministic random-number helpers.

All stochastic choices in the reproduction (cuckoo way selection, weighted
insertion, workload generation, fragmentation patterns) flow through
:class:`DeterministicRng` so that every experiment is reproducible from a
single seed.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with the helpers the library needs.

    Thin wrapper over :class:`random.Random`; exists so call sites never
    touch the global ``random`` module and so weighted selection has one
    well-tested implementation.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._random = random.Random(seed)

    def fork(self, salt: int) -> "DeterministicRng":
        """Return an independent stream derived from this seed and ``salt``.

        Forking lets one experiment seed drive many components without the
        components' consumption patterns perturbing each other.
        """
        return DeterministicRng(hash((self.seed, salt)) & 0xFFFFFFFFFFFFFFFF)

    def randint(self, low: int, high: int) -> int:
        """Return a uniform integer in the inclusive range [low, high]."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Return a uniformly random element of ``seq``."""
        return self._random.choice(seq)

    def shuffle(self, seq: list) -> None:
        """Shuffle ``seq`` in place."""
        self._random.shuffle(seq)

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Return an index sampled proportionally to ``weights``.

        Implements the paper's weighted-random insertion primitive: draw a
        uniform number in [0, total) and walk the cumulative weights.  All
        weights must be non-negative and at least one must be positive.
        """
        total = 0.0
        for weight in weights:
            if weight < 0:
                raise ValueError(f"negative weight {weight}")
            total += weight
        if total <= 0.0:
            raise ValueError("all weights are zero")
        point = self._random.random() * total
        cumulative = 0.0
        last_positive = 0
        for index, weight in enumerate(weights):
            if weight > 0:
                last_positive = index
            cumulative += weight
            if point < cumulative:
                return index
        # Floating-point round-off can leave point == cumulative; return the
        # last index that had positive weight.
        return last_positive

    def sample_zipf(self, n: int, alpha: float = 1.0) -> int:
        """Return an index in [0, n) with a Zipf-like skew.

        Used by workload generators to model skewed page popularity.  The
        implementation uses inverse-CDF sampling over the harmonic weights,
        computed lazily per (n, alpha) and cached.
        """
        key = (n, alpha)
        cache = getattr(self, "_zipf_cache", None)
        if cache is None:
            cache = {}
            self._zipf_cache = cache
        cdf = cache.get(key)
        if cdf is None:
            weights = [1.0 / ((i + 1) ** alpha) for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for weight in weights:
                acc += weight / total
                cdf.append(acc)
            cache[key] = cdf
        point = self._random.random()
        # Binary search the CDF.
        low, high = 0, n - 1
        while low < high:
            mid = (low + high) // 2
            if cdf[mid] < point:
                low = mid + 1
            else:
                high = mid
        return low


def make_rng(seed_or_rng: Optional[object], default_seed: int = 0) -> DeterministicRng:
    """Coerce ``seed_or_rng`` (None, int, or DeterministicRng) to an RNG."""
    if seed_or_rng is None:
        return DeterministicRng(default_seed)
    if isinstance(seed_or_rng, DeterministicRng):
        return seed_or_rng
    if isinstance(seed_or_rng, int):
        return DeterministicRng(seed_or_rng)
    raise TypeError(f"expected None, int, or DeterministicRng, got {type(seed_or_rng)!r}")
